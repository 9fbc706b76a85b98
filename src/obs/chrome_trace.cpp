#include "obs/chrome_trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "net/message.h"

namespace dsf::obs {

namespace {

/// Simulation seconds -> trace microseconds, printed compactly.
std::string us(double time_s) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", time_s * 1e6);
  return buf;
}

const char* type_name(std::uint8_t type) {
  if (type >= net::kNumMessageTypes) return "?";
  return net::to_string(static_cast<net::MessageType>(type)).data();
}

/// Emits one trace-event object.  `first` tracks the comma discipline.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  void open(const Record& r, const char* name, const char* ph,
            const char* cat) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << "    {\"name\": \"" << name << "\", \"cat\": \"" << cat
        << "\", \"ph\": \"" << ph << "\", \"pid\": 1, \"ts\": "
        << us(r.time_s);
  }

  void field(const char* key, const std::string& value) {
    os_ << ", \"" << key << "\": " << value;
  }

  void close() { os_ << "}"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const Record> records,
                        std::uint64_t overwritten) {
  os << "{\n  \"displayTimeUnit\": \"ms\",\n"
     << "  \"otherData\": {\"source\": \"dsf flight recorder\", "
     << "\"records\": " << records.size()
     << ", \"overwritten\": " << overwritten << "},\n"
     << "  \"traceEvents\": [\n";

  EventWriter w(os);
  for (const Record& r : records) {
    switch (r.kind) {
      case RecordKind::kSearchBegin:
        w.open(r, "search", "b", "search");
        w.field("id", u64(r.span));
        w.field("tid", u64(r.from));
        w.field("args", "{\"initiator\": " + u64(r.from) +
                            ", \"item\": " + u64(r.a) +
                            ", \"max_hops\": " + std::to_string(r.ttl) + "}");
        w.close();
        break;
      case RecordKind::kSearchEnd: {
        w.open(r, "search", "e", "search");
        w.field("id", u64(r.span));
        w.field("tid", u64(r.from));
        // The score arg appears only on ranked spans, so exact-match
        // traces stay byte-identical to pre-ranked-plane captures.
        std::string args = "{\"results\": " + u64(r.unpack_results()) +
                           ", \"first_hit_hop\": " + std::to_string(r.ttl);
        if (const double score = r.unpack_score(); score > 0.0) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.4f", score);
          args += ", \"score\": ";
          args += buf;
        }
        args += "}";
        w.field("args", args);
        w.close();
        break;
      }
      case RecordKind::kSend:
      case RecordKind::kRecv:
      case RecordKind::kDrop: {
        w.open(r, to_string(r.kind), "i", "wire");
        w.field("s", "\"t\"");
        w.field("tid", u64(r.from));
        w.field("args", std::string("{\"type\": \"") + type_name(r.type) +
                            "\", \"from\": " + u64(r.from) +
                            ", \"to\": " + u64(r.to) +
                            ", \"ttl\": " + std::to_string(r.ttl) +
                            ", \"span\": " + u64(r.span) + "}");
        w.close();
        break;
      }
      case RecordKind::kPeerCrash:
        w.open(r, "peer-crash", "i", "fault");
        w.field("s", "\"p\"");
        w.field("tid", u64(r.from));
        w.field("args", "{\"victim\": " + u64(r.from) + "}");
        w.close();
        break;
      case RecordKind::kHeartbeat:
        // Three counter tracks out of one pulse record.
        w.open(r, "events", "C", "heartbeat");
        w.field("args", "{\"executed\": " + u64(r.a) + "}");
        w.close();
        w.open(r, "queue", "C", "heartbeat");
        w.field("args", "{\"pending\": " + u64(r.from) + "}");
        w.close();
        w.open(r, "rss_mib", "C", "heartbeat");
        w.field("args",
                "{\"mib\": " + std::to_string(r.b / (1024 * 1024)) + "}");
        w.close();
        break;
    }
  }
  os << "\n  ]\n}\n";
}

bool write_chrome_trace_file(const std::string& path,
                             std::span<const Record> records,
                             std::uint64_t overwritten) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f, records, overwritten);
  return static_cast<bool>(f);
}

}  // namespace dsf::obs
