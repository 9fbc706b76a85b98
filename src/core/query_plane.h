#pragma once

// The typed query plane: what a search asks for (QuerySpec) and what it
// runs against (SearchContext), replacing the positional flood plumbing
// that used to thread ten arguments through every call site.
//
//   * QuerySpec — the query's class (exact-match | top-k ranked) plus the
//     class-specific knob (k) and the propagation parameters shared by
//     every class.
//   * SearchContext — the bindings a search runs over: initiator, overlay
//     (neighbors), content predicate, scoring, delay model, transport
//     policy, dedup stamps and scratch buffers.  Built once per call site
//     through make_ranked_context; an exact-match site may bind rank to
//     NoRank, which its schemes never read.
//
// The flood-family schemes read only the exact-match subset of the
// context; the ranked scheme (ranked_search.h) adds `rank`.
// sim::dispatch_search picks the algorithm from the strategy kind and
// hands it the right slices.

#include <cstdint>

#include "core/flood_search.h"
#include "core/stats_store.h"
#include "core/visit_stamp.h"
#include "net/node_id.h"

namespace dsf::core {

/// What kind of answer the query wants (the two query classes of the
/// ranked query plane).
enum class QueryClass : std::uint8_t {
  kExactMatch,  ///< any holder of the requested item (the historical class)
  kTopKRanked,  ///< the k best-scored results, pruned by score floor
};

constexpr const char* to_string(QueryClass c) noexcept {
  switch (c) {
    case QueryClass::kExactMatch: return "exact-match";
    case QueryClass::kTopKRanked: return "top-k";
  }
  return "?";
}

/// One query, fully typed: class, class-specific knob, and the shared
/// propagation parameters.  Construct through the factories so every call
/// site states its class explicitly.
struct QuerySpec {
  QueryClass query_class = QueryClass::kExactMatch;
  SearchParams params;
  /// kTopKRanked: how many results the initiator wants (>= 1).
  std::uint32_t k = 1;

  static QuerySpec exact(const SearchParams& params) {
    QuerySpec s;
    s.query_class = QueryClass::kExactMatch;
    s.params = params;
    return s;
  }
  static QuerySpec top_k(const SearchParams& params, std::uint32_t k) {
    QuerySpec s;
    s.query_class = QueryClass::kTopKRanked;
    s.params = params;
    s.k = k;
    return s;
  }
};

/// Rank binding for exact-match contexts: nothing scores.
struct NoRank {
  constexpr double operator()(net::NodeId) const noexcept { return 0.0; }
};

/// Everything one search runs against, bound once at the call site:
///
///   `neighbors(n)`   -> NeighborView : outgoing list of n
///   `has_content(n)` -> bool : does n hold the requested item
///   `rank(n)`        -> double : n's best local score for this query
///                       (> 0 iff n can contribute a ranked result)
///   `delay(a, b)`    -> double : one-way delay seconds per transmission
///   `transmit(...)`  -> TransmitResult : transport verdict per copy
///
/// `stats` feeds directed-BFT subset selection; stamps/scratch are the
/// engine-owned dedup and reuse buffers.  The struct is an aggregate so a
/// site can adjust a binding after construction (e.g. ctx.stats).
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn, typename RankFn = NoRank>
struct SearchContext {
  net::NodeId initiator = net::kInvalidNode;
  NeighborsFn neighbors;
  HasContentFn has_content;
  DelayFn delay;
  TransmitFn transmit;
  RankFn rank{};
  const StatsStore* stats = nullptr;  ///< directed BFT only
  VisitStamp* stamps = nullptr;
  VisitStamp* hit_stamps = nullptr;  ///< local indices only
  SearchScratch* scratch = nullptr;
};

/// Builds a search context.  `transmit` is core::ReliableTransmit{} or the
/// engine's search_transmit(); `rank` is read only by the ranked scheme.
template <typename NeighborsFn, typename HasContentFn, typename DelayFn,
          typename TransmitFn, typename RankFn>
auto make_ranked_context(net::NodeId initiator, NeighborsFn neighbors,
                         HasContentFn has_content, RankFn rank, DelayFn delay,
                         TransmitFn transmit, VisitStamp& stamps,
                         VisitStamp& hit_stamps, SearchScratch& scratch) {
  SearchContext<NeighborsFn, HasContentFn, DelayFn, TransmitFn, RankFn> ctx{
      initiator, neighbors, has_content, delay, transmit, rank};
  ctx.stamps = &stamps;
  ctx.hit_stamps = &hit_stamps;
  ctx.scratch = &scratch;
  return ctx;
}

}  // namespace dsf::core
