#pragma once

// TraceSink: where the overlay engine's flight-recorder records go.  The
// contract is built for a hot path that must cost nothing when tracing is
// off: the engine stores a plain pointer that is null unless a sink is
// attached, so the untraced path is one perfectly predicted branch and
// zero virtual calls.

#include "obs/record.h"

namespace dsf::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Consumes one record.  Must be cheap and must not throw: it runs at
  /// every traced transmission.
  virtual void record(const Record& r) noexcept = 0;
};

}  // namespace dsf::obs
