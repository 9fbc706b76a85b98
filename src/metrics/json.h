#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dsf::metrics {

/// Minimal JSON emitter for machine-readable result dumps from the CLI
/// driver and benches.  Build a tree of values and stream it; strings are
/// escaped, doubles printed with enough precision to round-trip.
class JsonValue {
 public:
  static JsonValue object() { return JsonValue(Kind::kObject); }
  static JsonValue array() { return JsonValue(Kind::kArray); }
  static JsonValue string(std::string s);
  static JsonValue number(double v);
  static JsonValue number(std::int64_t v);
  static JsonValue number(std::uint64_t v);
  static JsonValue boolean(bool b);

  /// Object member (only valid on objects); returns *this for chaining.
  JsonValue& set(const std::string& key, JsonValue v);
  /// Array element (only valid on arrays).
  JsonValue& push(JsonValue v);

  void write(std::ostream& os, int indent = 0) const;
  std::string to_string() const;

 private:
  enum class Kind {
    kObject, kArray, kString, kNumber, kInteger, kUnsigned, kBool
  };
  explicit JsonValue(Kind kind) : kind_(kind) {}

  static void write_escaped(std::ostream& os, const std::string& s);

  Kind kind_;
  std::string str_;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  bool bool_ = false;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

}  // namespace dsf::metrics
