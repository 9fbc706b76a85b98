#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "des/event_queue.h"

namespace dsf::des {

/// Single-threaded discrete-event simulator: a clock plus an event queue.
///
/// All model code runs inside event callbacks; the simulator guarantees
/// that callbacks execute in non-decreasing time order and that `now()` is
/// exact inside a callback.  Determinism follows from the deterministic
/// queue ordering and the splittable `Rng` streams — a fixed seed replays
/// the exact same trajectory.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` after `delay` seconds.  Negative delays are clamped
  /// to "immediately": time never flows backwards.
  EventId schedule_in(SimTime delay, EventQueue::Callback cb) {
    return queue_.schedule(delay > 0 ? now_ + delay : now_, std::move(cb));
  }

  /// Schedules `cb` at absolute time `t`; a `t` in the past is clamped to
  /// now() so the clock stays monotone.
  EventId schedule_at(SimTime t, EventQueue::Callback cb) {
    return queue_.schedule(t > now_ ? t : now_, std::move(cb));
  }

  /// Batched absolute-time variant: `gen(i)` returns the (time, callback)
  /// pair for event `i`; past times are clamped to now() exactly as in
  /// schedule_at.
  template <typename Gen>
  void schedule_at_batch(std::size_t n, Gen&& gen) {
    queue_.schedule_batch(n, [&](std::size_t i) {
      auto p = gen(i);
      if (p.first < now_) p.first = now_;
      return p;
    });
  }

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

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

  /// Number of pending (live) events.
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
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace dsf::des
