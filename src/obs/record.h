#pragma once

// The flight recorder's wire format: one fixed-size POD record per
// observable event.  Records are designed to be cheap to stamp (a struct
// copy into a preallocated ring, no allocation, no formatting) and rich
// enough to reconstruct a search's full hop tree afterwards: every record
// carries the simulation time and the id of the search span it belongs
// to, so an exporter can group a query's begin → per-hop sends/receives →
// terminal into one causal trace.
//
// The payload fields `a`/`b` (and the reused `ttl` slot) are
// kind-specific; the table below is the authoritative encoding and the
// exporters in chrome_trace.cpp / span_table.cpp are its only consumers:
//
//   kind          from        to        ttl            a              b
//   ------------  ----------  --------  -------------  -------------  ----------------
//   kSend         sender      receiver  hop budget     bytes          copies (dup = 2)
//   kRecv         sender      receiver  hop budget     bytes          copies
//   kDrop         sender      receiver  hop budget     bytes          copies
//   kSearchBegin  initiator   invalid   max hops       target item    0
//   kSearchEnd    initiator   invalid   first-hit hop  results (low   first-result
//                                       (-1: miss)     32) + best-    delay bits
//                                                      score float
//                                                      bits (high 32)
//   kPeerCrash    victim      invalid   -1             0              0
//   kHeartbeat    queue pop.  wall ms   -1             events so far  RSS bytes
//
// (kSearchEnd.b is a double stored via std::bit_cast so the record stays
// trivially copyable.  kSearchEnd.a packs the result count into the low
// 32 bits and the best ranked score — float bits — into the high 32;
// exact-match searches have score 0, so their `a` equals the bare result
// count and pre-ranked-plane captures decode unchanged.  kHeartbeat packs
// the queue population and the wall clock into the two 32-bit node slots,
// which caps them at ~4.2e9 — plenty for a progress pulse.)

#include <bit>
#include <cstdint>
#include <type_traits>

namespace dsf::obs {

enum class RecordKind : std::uint8_t {
  kSend = 0,     ///< a message copy was put on the wire
  kRecv,         ///< the copy reached its receiver
  kDrop,         ///< the copy was lost (fault rule, or receiver dead)
  kSearchBegin,  ///< a search span opened at `from`
  kSearchEnd,    ///< the span closed (hit or miss)
  kPeerCrash,    ///< `from` crashed ungracefully
  kHeartbeat,    ///< periodic progress pulse (long-run liveness)
};

inline constexpr int kNumRecordKinds =
    static_cast<int>(RecordKind::kHeartbeat) + 1;

constexpr const char* to_string(RecordKind k) noexcept {
  switch (k) {
    case RecordKind::kSend: return "send";
    case RecordKind::kRecv: return "recv";
    case RecordKind::kDrop: return "drop";
    case RecordKind::kSearchBegin: return "search-begin";
    case RecordKind::kSearchEnd: return "search-end";
    case RecordKind::kPeerCrash: return "peer-crash";
    case RecordKind::kHeartbeat: return "heartbeat";
  }
  return "?";
}

/// One flight-recorder record: 40 bytes, trivially copyable, no pointers.
struct Record {
  double time_s = 0.0;      ///< simulation time of the event
  std::uint64_t a = 0;      ///< kind-specific payload (see table above)
  std::uint64_t b = 0;      ///< kind-specific payload
  std::uint32_t span = 0;   ///< enclosing search span id (0 = none)
  std::uint32_t from = 0;   ///< kind-specific node slot
  std::uint32_t to = 0;     ///< kind-specific node slot
  std::int16_t ttl = -1;    ///< remaining hop budget / first-hit hop / -1
  RecordKind kind = RecordKind::kSend;
  std::uint8_t type = 0;    ///< net::MessageType for wire records

  /// kSearchEnd helper: the first-result delay travels as raw double bits.
  static std::uint64_t pack_delay(double delay_s) noexcept {
    return std::bit_cast<std::uint64_t>(delay_s);
  }
  double unpack_delay() const noexcept { return std::bit_cast<double>(b); }

  /// kSearchEnd helper: result count (low 32 bits of `a`) plus the best
  /// ranked score as float bits (high 32).  Score 0 — every exact-match
  /// search — leaves `a` equal to the bare result count.
  static std::uint64_t pack_results_score(std::uint64_t results,
                                          double best_score) noexcept {
    const auto score_bits = best_score > 0.0
                                ? std::bit_cast<std::uint32_t>(
                                      static_cast<float>(best_score))
                                : std::uint32_t{0};
    return (std::uint64_t{score_bits} << 32) | (results & 0xffffffffULL);
  }
  std::uint64_t unpack_results() const noexcept { return a & 0xffffffffULL; }
  double unpack_score() const noexcept {
    return static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(a >> 32)));
  }
};

static_assert(std::is_trivially_copyable_v<Record>,
              "records are raw-copied into the ring");
static_assert(sizeof(Record) == 40, "keep the flight-recorder record compact");

}  // namespace dsf::obs
