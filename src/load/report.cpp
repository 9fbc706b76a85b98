#include "load/report.h"

namespace dsf::load {

void write_load_stats(metrics::JsonValue& out, const LoadStats& s,
                      double measure_s) {
  using metrics::JsonValue;
  out.set("offered", JsonValue::number(s.offered))
      .set("admitted", JsonValue::number(s.admitted))
      .set("rejected", JsonValue::number(s.rejected))
      .set("completed", JsonValue::number(s.completed))
      .set("shed", JsonValue::number(s.shed))
      .set("pending", JsonValue::number(s.pending))
      .set("hits", JsonValue::number(s.hits))
      .set("completed_after_warmup",
           JsonValue::number(s.completed_after_warmup))
      .set("hits_after_warmup", JsonValue::number(s.hits_after_warmup))
      .set("rejection_rate",
           JsonValue::number(s.offered ? static_cast<double>(s.rejected) /
                                             static_cast<double>(s.offered)
                                       : 0.0));
  if (measure_s > 0.0) {
    out.set("goodput_qps",
            JsonValue::number(static_cast<double>(s.completed_after_warmup) /
                              measure_s))
        .set("hit_qps", JsonValue::number(
                            static_cast<double>(s.hits_after_warmup) /
                            measure_s));
  }
  out.set("latency_p50_ms",
          JsonValue::number(s.sojourn_hist.quantile(0.50) * 1000.0))
      .set("latency_p95_ms",
           JsonValue::number(s.sojourn_hist.quantile(0.95) * 1000.0))
      .set("latency_p99_ms",
           JsonValue::number(s.sojourn_hist.quantile(0.99) * 1000.0))
      .set("latency_mean_ms", JsonValue::number(s.sojourn_s.mean() * 1000.0))
      .set("latency_max_ms", JsonValue::number(s.sojourn_s.max() * 1000.0))
      .set("queue_depth_mean", JsonValue::number(s.queue_depth.mean()))
      .set("queue_depth_peak", JsonValue::number(s.peak_queue_depth));
}

}  // namespace dsf::load
