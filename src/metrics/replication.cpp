#include "metrics/replication.h"

namespace dsf::metrics {

ConfidenceInterval confidence_interval(const std::vector<double>& sample,
                                       double z) {
  ConfidenceInterval ci;
  ci.n = sample.size();
  if (sample.empty()) return ci;

  Summary s;
  for (double x : sample) s.add(x);
  ci.mean = s.mean();
  if (sample.size() > 1)
    ci.half_width = z * s.stddev() / std::sqrt(static_cast<double>(ci.n));
  return ci;
}

}  // namespace dsf::metrics
