// The tokenizer under cli::FlagRegistry: which tokens are options, which
// are their values and which are positional.  Typed parsing (integers,
// numbers, booleans) is the registry's and is tested in
// flag_registry_test.cpp; the overflow cases below follow a token from
// argv through the registry to the typed error a driver sees.
#include "cli/args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/flag_registry.h"

namespace dsf::cli {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, PositionalArguments) {
  const Args a = make({"gnutella", "extra"});
  EXPECT_EQ(a.positional(),
            (std::vector<std::string>{"gnutella", "extra"}));
}

TEST(Args, KeyValuePairs) {
  const Args a = make({"--users", "2000", "--hops=4"});
  EXPECT_EQ(a.get("users"), "2000");
  EXPECT_EQ(a.get("hops"), "4");
}

TEST(Args, BooleanFlagWithoutValue) {
  // A flag followed by another option (or nothing) reads as "true".
  const Args a = make({"--json", "--dynamic", "false"});
  EXPECT_EQ(a.get("json"), "true");
  EXPECT_EQ(a.get("dynamic"), "false");
}

TEST(Args, Fallbacks) {
  // An absent key has no value; the registry substitutes its default.
  const Args a = make({});
  EXPECT_EQ(a.get("missing"), std::nullopt);
  EXPECT_TRUE(a.unrecognized().empty());
}

TEST(Args, DoubleParsing) {
  // Numeric spellings, negative ones included, stay values verbatim.
  const Args a = make({"--hours", "1.5", "--rate", "-2.5e-3"});
  EXPECT_EQ(a.get("hours"), "1.5");
  EXPECT_EQ(a.get("rate"), "-2.5e-3");
}

TEST(Args, UnrecognizedTracking) {
  const Args a = make({"--known", "1", "--typo", "2"});
  EXPECT_EQ(a.get("known"), "1");
  const auto unknown = a.unrecognized();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, EqualsFormWithEmptyValue) {
  const Args a = make({"--name="});
  EXPECT_EQ(a.get("name"), "");
}

TEST(Args, NegativeNumbersAsValues) {
  // "-5" must not be mistaken for an option.
  const Args a = make({"--offset", "-5"});
  EXPECT_EQ(a.get("offset"), "-5");
}

TEST(Args, ShortOptionWithValue) {
  const Args a = make({"-j", "4"});
  EXPECT_EQ(a.get("j"), "4");
}

TEST(Args, ShortOptionAsBoolean) {
  const Args a = make({"-v", "--peers", "100"});
  EXPECT_EQ(a.get("v"), "true");
  EXPECT_EQ(a.get("peers"), "100");
}

TEST(Args, ShortOptionDoesNotSwallowNegativeValue) {
  // A short option followed by a negative number takes it as a value
  // (a digit after '-' is never an option).
  const Args a = make({"-j", "-1"});
  EXPECT_EQ(a.get("j"), "-1");
}

TEST(Args, OverflowIntegerThrowsTypedOutOfRangeError) {
  // std::stoll throws std::out_of_range here; the old blanket catch
  // re-labeled it "not an integer", and before that the exception
  // escaped the driver entirely.  The tokenizer keeps the value verbatim,
  // and parsing it as the declared type must surface a FlagError (so
  // drivers can map it to exit 2) that names both the flag and the
  // actual problem.
  const std::vector<const char*> argv{"prog", "--peers",
                                      "99999999999999999999"};
  const Args a(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(a.get("peers"), "99999999999999999999");
  FlagRegistry reg("prog");
  reg.add_int("peers", 0, "population");
  try {
    reg.parse(static_cast<int>(argv.size()), argv.data());
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--peers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  }
}

TEST(Args, OverflowDoubleThrowsTypedOutOfRangeError) {
  const std::vector<const char*> argv{"prog", "--rate", "1e999"};
  const Args a(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(a.get("rate"), "1e999");
  FlagRegistry reg("prog");
  reg.add_double("rate", 0.0, "arrival rate");
  try {
    reg.parse(static_cast<int>(argv.size()), argv.data());
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--rate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  }
}

TEST(Args, DashDigitAndBareDashAreNotOptions) {
  const Args a = make({"-7", "-"});
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"-7", "-"}));
}

}  // namespace
}  // namespace dsf::cli
