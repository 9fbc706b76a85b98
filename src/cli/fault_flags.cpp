#include "cli/fault_flags.h"

#include <cstdio>
#include <limits>
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

namespace {

/// A flag value as a FlagError message quotes it.
std::string str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Reads a probability flag; outside [0, 1] is an error naming the flag.
double probability(const FlagRegistry& reg, const std::string& flag) {
  const double p = reg.get_double(flag);
  if (!(p >= 0.0 && p <= 1.0))
    throw FlagError("--" + flag + ": must be in [0, 1], got " + str(p));
  return p;
}

/// Reads a [start, end) window flag pair; needs 0 <= start < end.
void window(const FlagRegistry& reg, const std::string& start_flag,
            const std::string& end_flag, double& start, double& end) {
  start = reg.get_double(start_flag);
  end = reg.get_double(end_flag);
  if (!(start >= 0.0) || !(end > start))
    throw FlagError("--" + start_flag + "/--" + end_flag +
                    ": need 0 <= start < end, got " + str(start) + " and " +
                    str(end));
}

}  // namespace

FaultOptions fault_options_from(const FlagRegistry& reg) {
  FaultOptions opts;

  sim::FaultRule base;
  base.drop_prob = probability(reg, "fault-drop");
  base.duplicate_prob = probability(reg, "fault-dup");
  base.delay_prob = probability(reg, "fault-delay");
  base.extra_delay_s = reg.get_double("fault-delay-s");
  if (!(base.extra_delay_s >= 0.0))
    throw FlagError("--fault-delay-s: must be >= 0, got " +
                    str(base.extra_delay_s));
  window(reg, "fault-window-start", "fault-window-end", base.window_start_s,
         base.window_end_s);

  bool delays = false;  // some message type has a delay probability
  for (int i = 0; i < net::kNumMessageTypes; ++i) {
    const auto t = static_cast<net::MessageType>(i);
    const std::string name(net::to_string(t));
    sim::FaultRule r = base;
    // Each knob is read from its per-type override when one was given;
    // returns the flag the value came from.
    auto knob = [&](const std::string& flag, double& value) {
      const std::string own = flag + "-" + name;
      if (!reg.was_set(own)) return flag;
      value = probability(reg, own);
      return own;
    };
    const std::string drop = knob("fault-drop", r.drop_prob);
    const std::string dup = knob("fault-dup", r.duplicate_prob);
    const std::string delay = knob("fault-delay", r.delay_prob);
    const double sum = r.drop_prob + r.duplicate_prob + r.delay_prob;
    if (sum > 1.0)
      throw FlagError("--" + drop + " + --" + dup + " + --" + delay +
                      ": must not exceed 1, got " + str(sum));
    // Every rule is set, trivial ones included; set_rule keeps a trivial
    // rule out of the active mask, so it never draws.
    opts.plan.set_rule(t, r);
    delays = delays || r.delay_prob > 0.0;
  }

  opts.crashes.rate_per_hour = reg.get_double("fault-crash-rate");
  if (!(opts.crashes.rate_per_hour >= 0.0))
    throw FlagError("--fault-crash-rate: must be >= 0, got " +
                    str(opts.crashes.rate_per_hour));
  const std::int64_t crash_max = reg.get_int("fault-crash-max");
  if (crash_max < -1)
    throw FlagError("--fault-crash-max: must be >= 0, or -1 for unlimited, "
                    "got " + std::to_string(crash_max));
  if (crash_max >= 0) opts.crashes.max_crashes = crash_max;
  window(reg, "fault-crash-start", "fault-crash-end", opts.crashes.start_s,
         opts.crashes.end_s);

  // Every value is in range; a modifier of a fault that is off would run
  // as if it were absent.
  reg.require(delays, "--fault-delay or a --fault-delay-<type> override",
              {"fault-delay-s"});
  reg.require(!opts.plan.empty(),
              "a fault probability (--fault-drop, --fault-dup, --fault-delay "
              "or a per-type override)",
              {"fault-window-start", "fault-window-end"});
  reg.require(opts.crashes.rate_per_hour > 0.0, "--fault-crash-rate",
              {"fault-crash-max", "fault-crash-start", "fault-crash-end"});

  opts.check = reg.get_bool("fault-check");
  return opts;
}

}  // namespace dsf::cli
