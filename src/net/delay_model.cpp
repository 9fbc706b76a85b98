#include "net/delay_model.h"

#include <stdexcept>

namespace dsf::net {

namespace {

std::vector<des::TruncatedGaussian> build_dists(
    const DelayModel::Params& params) {
  std::vector<des::TruncatedGaussian> dists;
  dists.reserve(kNumBandwidthClasses);
  for (int c = 0; c < kNumBandwidthClasses; ++c) {
    const double mean = mean_one_way_delay_s(static_cast<BandwidthClass>(c));
    dists.emplace_back(mean, params.stddev_s, params.floor_s,
                       mean * params.ceil_mean_multiple);
  }
  return dists;
}

}  // namespace

DelayModel::DelayModel(std::size_t n, des::Rng& rng, const Params& params)
    : dists_(build_dists(params)) {
  classes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    classes_.push_back(
        static_cast<BandwidthClass>(rng.uniform_int(kNumBandwidthClasses)));
  }
}

DelayModel::DelayModel(std::vector<BandwidthClass> classes,
                       const Params& params)
    : classes_(std::move(classes)), dists_(build_dists(params)) {
  if (classes_.empty())
    throw std::invalid_argument("DelayModel: empty class assignment");
}

double DelayModel::mean_delay_s(NodeId from, NodeId to) const {
  return mean_one_way_delay_s(slower_of(node_class(from), node_class(to)));
}

}  // namespace dsf::net
