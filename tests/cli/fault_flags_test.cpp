// The --fault-* group's value checks: every out-of-range value is a
// FlagError (usage exit 2 in dsf_sim) whose message names the flag as
// typed and its value, not the sim::FaultRule field behind it.  A modifier
// of a fault that is off is a FlagError naming what it needs.
#include "cli/fault_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dsf::cli {
namespace {

/// Parses `words` against the fault group alone and returns the message
/// of the FlagError fault_options_from throws ("" when it accepts them).
std::string error_of(std::vector<const char*> words) {
  words.insert(words.begin(), "prog");
  FlagRegistry reg("prog [options]", "fault group");
  register_fault_flags(reg);
  reg.parse(static_cast<int>(words.size()), words.data());
  try {
    fault_options_from(reg);
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(FaultFlags, ProbabilityErrorsNameTheFlagAndValue) {
  EXPECT_EQ(error_of({"--fault-drop", "-0.5"}),
            "--fault-drop: must be in [0, 1], got -0.5");
  EXPECT_EQ(error_of({"--fault-dup", "1.5"}),
            "--fault-dup: must be in [0, 1], got 1.5");
  EXPECT_EQ(error_of({"--fault-delay", "2"}),
            "--fault-delay: must be in [0, 1], got 2");
}

TEST(FaultFlags, PerTypeOverrideErrorsNameTheOverride) {
  EXPECT_EQ(error_of({"--fault-drop-query", "2"}),
            "--fault-drop-query: must be in [0, 1], got 2");
  EXPECT_EQ(error_of({"--fault-delay-invitation-reply", "-0.25"}),
            "--fault-delay-invitation-reply: must be in [0, 1], got -0.25");
}

TEST(FaultFlags, SumErrorNamesTheFlagsItAdds) {
  EXPECT_EQ(error_of({"--fault-drop", "0.6", "--fault-dup", "0.6"}),
            "--fault-drop + --fault-dup + --fault-delay: must not exceed 1, "
            "got 1.2");
  EXPECT_EQ(error_of({"--fault-drop", "0.5", "--fault-dup-ping", "0.7"}),
            "--fault-drop + --fault-dup-ping + --fault-delay: must not "
            "exceed 1, got 1.2");
}

TEST(FaultFlags, DelayWindowAndCrashErrorsNameTheFlagAndValue) {
  EXPECT_EQ(error_of({"--fault-delay-s", "-3"}),
            "--fault-delay-s: must be >= 0, got -3");
  EXPECT_EQ(error_of({"--fault-window-start", "100", "--fault-window-end",
                      "50"}),
            "--fault-window-start/--fault-window-end: need 0 <= start < end, "
            "got 100 and 50");
  EXPECT_EQ(error_of({"--fault-crash-rate", "-1"}),
            "--fault-crash-rate: must be >= 0, got -1");
  EXPECT_EQ(error_of({"--fault-crash-max", "-7"}),
            "--fault-crash-max: must be >= 0, or -1 for unlimited, got -7");
  EXPECT_EQ(error_of({"--fault-crash-start", "-5"}),
            "--fault-crash-start/--fault-crash-end: need 0 <= start < end, "
            "got -5 and inf");
}

TEST(FaultFlags, ModifiersNeedTheFaultTheyModify) {
  const std::string delay =
      " needs --fault-delay or a --fault-delay-<type> override";
  EXPECT_EQ(error_of({"--fault-delay-s", "3"}), "--fault-delay-s" + delay);
  EXPECT_EQ(error_of({"--fault-drop", "0.1", "--fault-delay-s", "3"}),
            "--fault-delay-s" + delay);
  const std::string probability =
      " needs a fault probability (--fault-drop, --fault-dup, --fault-delay "
      "or a per-type override)";
  EXPECT_EQ(error_of({"--fault-window-start", "100"}),
            "--fault-window-start" + probability);
  EXPECT_EQ(error_of({"--fault-window-end", "100"}),
            "--fault-window-end" + probability);
  for (const char* flag :
       {"--fault-crash-max", "--fault-crash-start", "--fault-crash-end"}) {
    EXPECT_EQ(error_of({flag, "3"}),
              std::string(flag) + " needs --fault-crash-rate");
    EXPECT_EQ(error_of({"--fault-crash-rate", "0", flag, "3"}),
              std::string(flag) + " needs --fault-crash-rate");
  }
  // The modifier's fault may come from a per-type override alone.
  EXPECT_EQ(error_of({"--fault-delay-s", "3", "--fault-delay-query", "0.1"}),
            "");
  EXPECT_EQ(error_of({"--fault-window-start", "100", "--fault-drop-ping",
                      "0.2"}),
            "");
  EXPECT_EQ(error_of({"--fault-crash-rate", "2", "--fault-crash-max", "3",
                      "--fault-crash-start", "60", "--fault-crash-end",
                      "600"}),
            "");
}

TEST(FaultFlags, InRangeValuesAreAccepted) {
  EXPECT_EQ(error_of({}), "");
  EXPECT_EQ(error_of({"--fault-drop", "0.1", "--fault-dup-query", "0.9",
                      "--fault-drop-query", "0", "--fault-crash-rate", "4",
                      "--fault-crash-max", "-1"}),
            "");
}

}  // namespace
}  // namespace dsf::cli
