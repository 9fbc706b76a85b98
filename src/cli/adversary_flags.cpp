#include "cli/adversary_flags.h"

#include <limits>
#include <stdexcept>

namespace dsf::cli {

void register_adversary_flags(FlagRegistry& reg) {
  reg.group("adversary layer (all off by default)");
  reg.add_double("adversary-abusers", 0.0,
                 "fraction of peers turned query-flood abusers")
      .add_double("adversary-abuse-rate", 0.0,
                  "searches per second per abuser")
      .add_double("adversary-abuse-start", 0.0,
                  "abuse active from this sim time")
      .add_double("adversary-abuse-end",
                  std::numeric_limits<double>::infinity(),
                  "... until this sim time (default: forever)")
      .add_bool("adversary-check", false,
                "audit abuse attribution + abuser overlay; exit 4 on "
                "violation");
}

AdversaryOptions adversary_options_from(const FlagRegistry& reg) {
  AdversaryOptions opts;
  sim::AdversaryPlan& p = opts.plan;

  p.abuser_fraction = reg.get_double("adversary-abusers");
  p.abuse_rate_per_s = reg.get_double("adversary-abuse-rate");
  p.abuse_start_s = reg.get_double("adversary-abuse-start");
  p.abuse_end_s = reg.get_double("adversary-abuse-end");
  p.validate();
  // Half-set abuse knobs would be a silent no-op: abusers_enabled() needs
  // both a fraction and a rate, and the window shapes only a spray.
  reg.require(p.abuser_fraction <= 0.0 || p.abuse_rate_per_s > 0.0,
              "--adversary-abuse-rate", {"adversary-abusers"});
  reg.require(p.abuser_fraction > 0.0, "--adversary-abusers",
              {"adversary-abuse-rate", "adversary-abuse-start",
               "adversary-abuse-end"});

  opts.check = reg.get_bool("adversary-check");
  return opts;
}

}  // namespace dsf::cli
