#include "des/simulator.h"

namespace dsf::des {

std::uint64_t Simulator::run_until(SimTime end_time) {
  std::uint64_t count = 0;
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.next_time() > end_time) break;
    dispatch_next();
    ++count;
  }
  // Advance the clock to the horizon so back-to-back run_until calls see a
  // monotone clock even when the queue drained early.
  if (now_ < end_time && end_time < std::numeric_limits<SimTime>::infinity())
    now_ = end_time;
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch_next();
  return true;
}

}  // namespace dsf::des
