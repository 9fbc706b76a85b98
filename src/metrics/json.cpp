#include "metrics/json.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dsf::metrics {

JsonValue JsonValue::string(std::string s) {
  JsonValue v(Kind::kString);
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v(Kind::kNumber);
  v.num_ = value;
  return v;
}

JsonValue JsonValue::number(std::int64_t value) {
  JsonValue v(Kind::kInteger);
  v.int_ = value;
  return v;
}

JsonValue JsonValue::number(std::uint64_t value) {
  JsonValue v(Kind::kUnsigned);
  v.uint_ = value;
  return v;
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v(Kind::kBool);
  v.bool_ = b;
  return v;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::kObject)
    throw std::logic_error("JsonValue::set on non-object");
  members_.emplace_back(key, std::move(v));
  return *this;
}

JsonValue& JsonValue::push(JsonValue v) {
  if (kind_ != Kind::kArray)
    throw std::logic_error("JsonValue::push on non-array");
  elements_.push_back(std::move(v));
  return *this;
}

void JsonValue::write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void JsonValue::write(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kObject: {
      if (members_.empty()) {
        os << "{}";
        return;
      }
      os << "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        os << inner_pad;
        write_escaped(os, members_[i].first);
        os << ": ";
        members_[i].second.write(os, indent + 1);
        if (i + 1 < members_.size()) os << ',';
        os << '\n';
      }
      os << pad << '}';
      return;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        os << "[]";
        return;
      }
      os << "[\n";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        os << inner_pad;
        elements_[i].write(os, indent + 1);
        if (i + 1 < elements_.size()) os << ',';
        os << '\n';
      }
      os << pad << ']';
      return;
    }
    case Kind::kString:
      write_escaped(os, str_);
      return;
    case Kind::kNumber: {
      if (std::isfinite(num_)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", num_);
        os << buf;
      } else {
        os << "null";  // JSON has no Inf/NaN
      }
      return;
    }
    case Kind::kInteger:
      os << int_;
      return;
    case Kind::kUnsigned:
      os << uint_;
      return;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      return;
  }
}

std::string JsonValue::to_string() const {
  std::ostringstream ss;
  write(ss);
  return ss.str();
}

}  // namespace dsf::metrics
