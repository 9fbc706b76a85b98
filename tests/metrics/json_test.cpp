#include "metrics/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace dsf::metrics {
namespace {

TEST(Json, EmptyContainers) {
  EXPECT_EQ(JsonValue::object().to_string(), "{}");
  EXPECT_EQ(JsonValue::array().to_string(), "[]");
}

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue::string("hi").to_string(), "\"hi\"");
  EXPECT_EQ(JsonValue::number(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(JsonValue::number(std::int64_t{-3}).to_string(), "-3");
  // Unsigned values above INT64_MAX keep their magnitude.
  EXPECT_EQ(JsonValue::number(std::uint64_t{1} << 63).to_string(),
            "9223372036854775808");
  EXPECT_EQ(
      JsonValue::number(std::numeric_limits<std::uint64_t>::max()).to_string(),
      "18446744073709551615");
  EXPECT_EQ(JsonValue::boolean(true).to_string(), "true");
  EXPECT_EQ(JsonValue::boolean(false).to_string(), "false");
  EXPECT_EQ(JsonValue::number(1.5).to_string(), "1.5");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonValue::number(std::nan("")).to_string(), "null");
  EXPECT_EQ(JsonValue::number(INFINITY).to_string(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue::string("a\"b").to_string(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::string("a\\b").to_string(), "\"a\\\\b\"");
  EXPECT_EQ(JsonValue::string("a\nb").to_string(), "\"a\\nb\"");
  EXPECT_EQ(JsonValue::string(std::string("a\x01") + "b").to_string(),
            "\"a\\u0001b\"");
}

TEST(Json, ObjectStructure) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("dsf"))
      .set("hits", JsonValue::number(std::uint64_t{163157}));
  const std::string s = obj.to_string();
  EXPECT_NE(s.find("\"name\": \"dsf\""), std::string::npos);
  EXPECT_NE(s.find("\"hits\": 163157"), std::string::npos);
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
}

TEST(Json, ArrayOfObjects) {
  JsonValue arr = JsonValue::array();
  for (int i = 0; i < 2; ++i) {
    JsonValue o = JsonValue::object();
    o.set("i", JsonValue::number(std::int64_t{i}));
    arr.push(std::move(o));
  }
  const std::string s = arr.to_string();
  EXPECT_NE(s.find("\"i\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"i\": 1"), std::string::npos);
}

TEST(Json, TypeMisuseThrows) {
  EXPECT_THROW(JsonValue::array().set("k", JsonValue::boolean(true)),
               std::logic_error);
  EXPECT_THROW(JsonValue::object().push(JsonValue::boolean(true)),
               std::logic_error);
}

TEST(Json, DoublePrecisionRoundTrips) {
  const double v = 0.392943618125;
  const std::string s = JsonValue::number(v).to_string();
  EXPECT_DOUBLE_EQ(std::stod(s), v);
}

}  // namespace
}  // namespace dsf::metrics
