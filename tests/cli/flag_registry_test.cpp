// The declarative flag surface: typed defaults, generated help, and — the
// behavior change this registry exists for — rejection of undeclared
// options with a nearest-match suggestion.
#include <gtest/gtest.h>

#include <vector>

#include "cli/flag_registry.h"

namespace dsf::cli {
namespace {

/// argv helper: builds the (argc, argv) pair gtest-side.
struct Argv {
  explicit Argv(std::vector<const char*> words) : words_(std::move(words)) {
    words_.insert(words_.begin(), "prog");
  }
  int argc() const { return static_cast<int>(words_.size()); }
  const char* const* argv() const { return words_.data(); }
  std::vector<const char*> words_;
};

FlagRegistry make_registry() {
  FlagRegistry reg("prog [options]", "test surface");
  reg.add_int("peers", 100, "population");
  reg.add_double("drop", 0.0, "loss probability");
  reg.add_bool("dynamic", false, "reconfigure overlay");
  reg.add_string("mode", "adaptive", "strategy");
  return reg;
}

TEST(FlagRegistry, DefaultsApplyWhenUnset) {
  auto reg = make_registry();
  reg.parse(Argv({}).argc(), Argv({}).argv());
  EXPECT_EQ(reg.get_int("peers"), 100);
  EXPECT_DOUBLE_EQ(reg.get_double("drop"), 0.0);
  EXPECT_FALSE(reg.get_bool("dynamic"));
  EXPECT_EQ(reg.get_string("mode"), "adaptive");
  EXPECT_FALSE(reg.was_set("peers"));
}

TEST(FlagRegistry, BindsTypedValues) {
  auto reg = make_registry();
  const Argv a({"--peers", "250", "--drop=0.25", "--dynamic", "--mode",
                "flood"});
  reg.parse(a.argc(), a.argv());
  EXPECT_EQ(reg.get_int("peers"), 250);
  EXPECT_DOUBLE_EQ(reg.get_double("drop"), 0.25);
  EXPECT_TRUE(reg.get_bool("dynamic"));
  EXPECT_EQ(reg.get_string("mode"), "flood");
  EXPECT_TRUE(reg.was_set("peers"));
  EXPECT_TRUE(reg.was_set("drop"));
}

TEST(FlagRegistry, UnknownFlagThrowsWithSuggestion) {
  auto reg = make_registry();
  const Argv a({"--peeers", "64"});
  try {
    reg.parse(a.argc(), a.argv());
    FAIL() << "expected UnknownFlag";
  } catch (const UnknownFlag& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--peeers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean --peers"), std::string::npos) << msg;
  }
}

TEST(FlagRegistry, UnknownFlagFarFromEverythingGetsNoSuggestion) {
  auto reg = make_registry();
  const Argv a({"--zzzqqqxxx", "1"});
  try {
    reg.parse(a.argc(), a.argv());
    FAIL() << "expected UnknownFlag";
  } catch (const UnknownFlag& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(FlagRegistry, BadTypedValueThrows) {
  auto reg = make_registry();
  const Argv a({"--peers", "many"});
  EXPECT_THROW(reg.parse(a.argc(), a.argv()), std::invalid_argument);
}

TEST(FlagRegistry, MalformedValuesThrow) {
  // Each declared type rejects a value that does not parse as it.
  for (const std::vector<const char*>& words :
       {std::vector<const char*>{"--peers", "12x"},
        std::vector<const char*>{"--drop", "1.5.2"},
        std::vector<const char*>{"--dynamic", "maybe"}}) {
    auto reg = make_registry();
    const Argv a(words);
    EXPECT_THROW(reg.parse(a.argc(), a.argv()), FlagError) << words[0];
  }
}

TEST(FlagRegistry, BoolSpellings) {
  FlagRegistry reg("prog");
  reg.add_bool("a", false, "").add_bool("b", true, "");
  reg.add_bool("c", false, "").add_bool("d", true, "");
  const Argv a({"--a", "yes", "--b", "0", "--c=on", "--d", "off"});
  reg.parse(a.argc(), a.argv());
  EXPECT_TRUE(reg.get_bool("a"));
  EXPECT_FALSE(reg.get_bool("b"));
  EXPECT_TRUE(reg.get_bool("c"));
  EXPECT_FALSE(reg.get_bool("d"));
}

TEST(FlagRegistry, FlagErrorIsAnInvalidArgument) {
  // Catch-sites that handle std::invalid_argument (the drivers' usage
  // exit) see every typed flag error.
  auto reg = make_registry();
  const Argv a({"--peers", "99999999999999999999"});
  EXPECT_THROW(reg.parse(a.argc(), a.argv()), std::invalid_argument);
}

TEST(FlagRegistry, OverflowIntegerIsATypedOutOfRangeError) {
  // Eager validation in parse() must catch a value that parses but does
  // not fit in int64 — and say so, instead of the old "not an integer"
  // (or, worse, an uncaught std::out_of_range crossing main).
  auto reg = make_registry();
  const Argv a({"--peers", "99999999999999999999"});
  try {
    reg.parse(a.argc(), a.argv());
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--peers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("integer out of range"), std::string::npos) << msg;
  }
}

TEST(FlagRegistry, OverflowDoubleIsATypedOutOfRangeError) {
  auto reg = make_registry();
  const Argv a({"--drop", "1e999"});
  try {
    reg.parse(a.argc(), a.argv());
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--drop"), std::string::npos) << msg;
    EXPECT_NE(msg.find("number out of range"), std::string::npos) << msg;
  }
}

TEST(FlagRegistry, HelpIsDeclaredAndRendersGroupsAliasesDefaults) {
  auto reg = make_registry();
  const Argv a({"--help"});
  reg.parse(a.argc(), a.argv());
  EXPECT_TRUE(reg.help_requested());
  const std::string h = reg.help();
  EXPECT_NE(h.find("prog [options]"), std::string::npos);
  EXPECT_NE(h.find("--peers"), std::string::npos);
  EXPECT_NE(h.find("default"), std::string::npos);
}

TEST(FlagRegistry, HiddenFlagsParseButStayOutOfHelp) {
  FlagRegistry reg("prog");
  reg.add_double("fault-drop-query", -1.0, "");
  reg.hide("fault-drop-query");
  const Argv a({"--fault-drop-query", "0.5"});
  reg.parse(a.argc(), a.argv());
  EXPECT_DOUBLE_EQ(reg.get_double("fault-drop-query"), 0.5);
  EXPECT_EQ(reg.help().find("fault-drop-query"), std::string::npos);
}

TEST(FlagRegistry, UndeclaredAccessIsAProgrammingError) {
  auto reg = make_registry();
  reg.parse(Argv({}).argc(), Argv({}).argv());
  EXPECT_THROW(reg.get_int("nonesuch"), std::logic_error);
}

TEST(FlagRegistry, DuplicateDeclarationIsAProgrammingError) {
  FlagRegistry reg("prog");
  reg.add_int("peers", 1, "");
  EXPECT_THROW(reg.add_int("peers", 2, ""), std::logic_error);
}

TEST(FlagRegistry, PositionalArgumentsSurviveParsing) {
  auto reg = make_registry();
  const Argv a({"gnutella", "--peers", "12"});
  const Args& args = reg.parse(a.argc(), a.argv());
  ASSERT_FALSE(args.positional().empty());
  EXPECT_EQ(args.positional()[0], "gnutella");
}

TEST(EditDistance, MatchesClassicCases) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("fault-drp", "fault-drop"), 1u);
}

}  // namespace
}  // namespace dsf::cli
