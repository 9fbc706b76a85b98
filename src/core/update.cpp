#include "core/update.h"

#include <algorithm>
#include <span>

namespace dsf::core {

namespace detail {

std::vector<Ranked>& rank_buffer() {
  thread_local std::vector<Ranked> buffer;
  return buffer;
}

UpdatePlan finish_plan(std::vector<Ranked>& ranked,
                       std::span<const net::NodeId> current_out,
                       std::size_t capacity) {
  const std::size_t keep = std::min(capacity, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const Ranked& a, const Ranked& b) {
                      if (a.benefit != b.benefit) return a.benefit > b.benefit;
                      if (a.is_current != b.is_current) return a.is_current;
                      return a.node < b.node;
                    });

  UpdatePlan plan;
  plan.new_out.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) plan.new_out.push_back(ranked[i].node);
  for (net::NodeId n : plan.new_out)
    if (!contains(current_out, n)) plan.additions.push_back(n);
  for (net::NodeId n : current_out)
    if (!contains(plan.new_out, n)) plan.evictions.push_back(n);
  return plan;
}

}  // namespace detail

net::NodeId least_beneficial(const StatsStore& stats,
                             std::span<const net::NodeId> list) {
  net::NodeId worst = net::kInvalidNode;
  double worst_benefit = 0.0;
  for (net::NodeId n : list) {
    const double b = stats.benefit_of(n);
    if (worst == net::kInvalidNode || b < worst_benefit ||
        (b == worst_benefit && n > worst)) {
      worst = n;
      worst_benefit = b;
    }
  }
  return worst;
}

InvitationDecision decide_invitation(const StatsStore& stats,
                                     net::NodeId inviter,
                                     std::span<const net::NodeId> in_list,
                                     std::size_t capacity,
                                     InvitationPolicy policy) {
  InvitationDecision d;
  // Already a neighbor: reject.
  if (detail::contains(in_list, inviter)) return d;
  if (in_list.size() < capacity) {
    d.accept = true;
    return d;
  }
  const net::NodeId worst = least_beneficial(stats, in_list);
  switch (policy) {
    case InvitationPolicy::kAlwaysAccept:
    case InvitationPolicy::kTrialPeriod:  // provisional accept; the trial
                                          // evaluation is the scenario's job
      d.accept = true;
      d.evict = worst;
      break;
    case InvitationPolicy::kBenefitGated:
    case InvitationPolicy::kSummaryGated:  // no digest here: stats fallback
      if (stats.benefit_of(inviter) > stats.benefit_of(worst)) {
        d.accept = true;
        d.evict = worst;
      }
      break;
  }
  return d;
}

}  // namespace dsf::core
