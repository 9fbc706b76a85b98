#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "des/event_queue.h"

namespace dsf::des {

/// Single-threaded discrete-event simulator: a clock, an event queue and
/// the one handler every popped event is given to.
///
/// All model code runs inside the handler; the simulator guarantees that
/// events are handled in non-decreasing time order and that `now()` is
/// exact inside the handler.  Determinism follows from the deterministic
/// queue ordering and the splittable `Rng` streams — a fixed seed replays
/// the exact same trajectory.
class Simulator {
 public:
  using Handler = std::function<void(const Event&)>;

  explicit Simulator(Handler handler) : handler_(std::move(handler)) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  SimTime now() const noexcept { return now_; }

  /// Schedules `ev` after `delay` seconds and returns the time it is due.
  /// Negative delays are clamped to "immediately": time never flows
  /// backwards.  The returned time is the one now() reads when the event
  /// runs, so a model can recognise its latest record by it.
  SimTime schedule_in(SimTime delay, const Event& ev) {
    return schedule_at(delay > 0 ? now_ + delay : now_, ev);
  }

  /// Schedules `ev` at absolute time `t` and returns the time it is due:
  /// a `t` in the past is clamped to now() so the clock stays monotone.
  SimTime schedule_at(SimTime t, const Event& ev) {
    const SimTime due = t > now_ ? t : now_;
    queue_.schedule(due, ev);
    return due;
  }

  /// Runs events until the queue drains or the clock passes `end_time`.
  /// Events scheduled exactly at `end_time` are executed.  Returns the
  /// number of events executed by this call.
  std::uint64_t run_until(SimTime end_time);

  /// Runs until the queue drains.
  std::uint64_t run() {
    return run_until(std::numeric_limits<SimTime>::infinity());
  }

  /// Executes at most one event; returns false if none is pending.
  bool step();

  /// Requests that run_until return before popping the next event.
  void stop() noexcept { stop_requested_ = true; }

  /// Number of pending events.
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Total events executed over the simulator's lifetime.
  std::uint64_t executed() const noexcept { return executed_; }

  /// Checkpoint restore: sets the clock and the lifetime executed count
  /// as saved at the snapshot boundary.  Only valid before any events
  /// are scheduled into the fresh queue — the restore path re-schedules
  /// pending events (all strictly later than `now`) after this call, so
  /// schedule_at never sees a past time.
  void restore_clock(SimTime now, std::uint64_t executed) {
    if (pending() != 0 || now_ != 0.0)
      throw std::logic_error("restore_clock: simulator already in use");
    now_ = now;
    executed_ = executed;
  }

  /// Direct access for tests and advanced scheduling patterns.
  EventQueue& queue() noexcept { return queue_; }

 private:
  /// Pops the next event, advances the clock to it and handles it.
  void dispatch_next() {
    const auto [t, ev] = queue_.pop();
    now_ = t;
    handler_(ev);
    ++executed_;
  }

  Handler handler_;
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace dsf::des
