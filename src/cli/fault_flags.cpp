#include "cli/fault_flags.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "net/message.h"

namespace dsf::cli {

void register_fault_flags(FlagRegistry& reg) {
  reg.group("fault injection (all off by default)");
  reg.add_double("fault-drop", 0.0, "drop probability for every type")
      .add_double("fault-dup", 0.0, "duplication probability for every type")
      .add_double("fault-delay", 0.0, "extra-delay probability")
      .add_double("fault-delay-s", 1.0, "the extra delay itself, seconds")
      .add_double("fault-window-start", 0.0, "faults active from this time")
      .add_double("fault-window-end",
                  std::numeric_limits<double>::infinity(),
                  "... until this time (default: forever)")
      .add_double("fault-crash-rate", 0.0, "Poisson peer crashes per hour")
      .add_int("fault-crash-max", -1, "stop after N crashes (-1: unlimited)")
      .add_double("fault-crash-start", 0.0, "crash window start, seconds")
      .add_double("fault-crash-end", std::numeric_limits<double>::infinity(),
                  "crash window end (default: forever)")
      .add_bool("fault-check", false,
                "attach the invariant checker; exit 4 on violation");
  for (int i = 0; i < net::kNumMessageTypes; ++i) {
    const std::string name(
        net::to_string(static_cast<net::MessageType>(i)));
    for (const char* knob : {"fault-drop-", "fault-dup-", "fault-delay-"}) {
      const std::string flag = knob + name;
      reg.add_double(flag, -1.0, "").hide(flag);
    }
  }
  reg.note("--fault-{drop,dup,delay}-<type>: per-type overrides; <type> is");
  reg.note("the wire name (query, query-reply, ping, pong, explore-query,");
  reg.note("explore-reply, invitation, invitation-reply, eviction)");
}

FaultOptions fault_options_from(const FlagRegistry& reg) {
  FaultOptions opts;

  sim::FaultRule base;
  base.drop_prob = reg.get_double("fault-drop");
  base.duplicate_prob = reg.get_double("fault-dup");
  base.delay_prob = reg.get_double("fault-delay");
  base.extra_delay_s = reg.get_double("fault-delay-s");
  base.window_start_s = reg.get_double("fault-window-start");
  base.window_end_s = reg.get_double("fault-window-end");

  for (int i = 0; i < net::kNumMessageTypes; ++i) {
    const auto t = static_cast<net::MessageType>(i);
    const std::string name(net::to_string(t));
    sim::FaultRule r = base;
    if (reg.was_set("fault-drop-" + name))
      r.drop_prob = reg.get_double("fault-drop-" + name);
    if (reg.was_set("fault-dup-" + name))
      r.duplicate_prob = reg.get_double("fault-dup-" + name);
    if (reg.was_set("fault-delay-" + name))
      r.delay_prob = reg.get_double("fault-delay-" + name);
    // Every rule is validated, trivial ones included; set_rule keeps a
    // trivial rule out of the active mask, so it never draws.
    opts.plan.set_rule(t, r);
  }

  opts.crashes.rate_per_hour = reg.get_double("fault-crash-rate");
  const std::int64_t crash_max = reg.get_int("fault-crash-max");
  if (crash_max < -1)
    throw std::invalid_argument(
        "--fault-crash-max: must be >= 0, or -1 for unlimited");
  if (crash_max >= 0) opts.crashes.max_crashes = crash_max;
  opts.crashes.start_s = reg.get_double("fault-crash-start");
  opts.crashes.end_s = reg.get_double("fault-crash-end");
  if (opts.crashes.rate_per_hour < 0.0)
    throw std::invalid_argument("--fault-crash-rate: must be >= 0");
  if (opts.crashes.start_s < 0.0 ||
      opts.crashes.end_s <= opts.crashes.start_s)
    throw std::invalid_argument(
        "--fault-crash-start/--fault-crash-end: need 0 <= start < end");

  opts.check = reg.get_bool("fault-check");
  return opts;
}

}  // namespace dsf::cli
