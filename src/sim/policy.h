#pragma once

// Query propagation as a plug-in: the search strategies the paper treats
// as orthogonal to reconfiguration (§2), one enum and one dispatch switch
// a scenario calls instead of re-implementing its own.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/flood_search.h"
#include "core/ranked_search.h"
#include "core/search_strategies.h"
#include "core/stats_store.h"
#include "core/unreachable.h"
#include "core/visit_stamp.h"
#include "net/node_id.h"

namespace dsf::sim {

/// Query-propagation technique (§2: the Yang & Garcia-Molina methods are
/// orthogonal to reconfiguration and compose with any overlay; the ranked
/// scheme extends the same plug-in point with queries that carry scores).
enum class SearchStrategyKind : std::uint8_t {
  kFlood,               ///< plain BFS flood (the case study's default)
  kIterativeDeepening,  ///< growing-depth cycles until satisfied
  kDirectedBft,         ///< initiator forwards to a beneficial subset only
  kLocalIndices,        ///< nodes answer for peers within radius 1
  kTopK,                ///< FD top-k: scored replies, threshold propagation
};

constexpr const char* to_string(SearchStrategyKind k) noexcept {
  switch (k) {
    case SearchStrategyKind::kFlood: return "flood";
    case SearchStrategyKind::kIterativeDeepening: return "iterative";
    case SearchStrategyKind::kDirectedBft: return "directed";
    case SearchStrategyKind::kLocalIndices: return "local-indices";
    case SearchStrategyKind::kTopK: return "top-k";
  }
  return "?";
}

/// Parses a --search-scheme value; throws std::invalid_argument naming the
/// flag for an unknown spelling (drivers map it to the usage exit).
inline SearchStrategyKind parse_search_strategy(const std::string& s) {
  if (s == "flood") return SearchStrategyKind::kFlood;
  if (s == "iterative") return SearchStrategyKind::kIterativeDeepening;
  if (s == "directed") return SearchStrategyKind::kDirectedBft;
  if (s == "local-indices") return SearchStrategyKind::kLocalIndices;
  if (s == "top-k") return SearchStrategyKind::kTopK;
  throw std::invalid_argument("--search-scheme: unknown value: " + s);
}

/// Everything one search runs over.  OverlayEngine::search binds it from
/// the engine's overlay, delay lane, transport and buffers; tests bind
/// fake graphs directly.
///
///   `neighbors(n)`   -> NeighborView : outgoing list of n
///   `has_content(n)` -> bool : does n hold the requested item
///   `rank(n)`        -> double : n's best local score for this query
///                       (> 0 iff n can contribute a ranked result)
///   `delay(a, b)`    -> double : one-way delay seconds per transmission;
///                       the engine binds net::DelayLane, whose skip(a, b)
///                       lets the flood skip draws it never reads
///   `transmit(...)`  -> TransmitResult : transport verdict per copy
///
/// `stats` feeds directed-BFT subset selection and `hit_stamps` the local
/// indices' holder dedup; `stamps` and `scratch` are reused across
/// searches.
template <typename NeighborsFn, typename HasContentFn, typename RankFn,
          typename DelayFn, typename TransmitFn>
struct SearchContext {
  net::NodeId initiator;
  NeighborsFn neighbors;
  HasContentFn has_content;
  RankFn rank;
  DelayFn delay;
  TransmitFn transmit;
  const core::StatsStore* stats;
  core::VisitStamp* stamps;
  core::VisitStamp* hit_stamps;
  core::SearchScratch* scratch;
};

/// Dispatches one query through the configured strategy over the bound
/// SearchContext.  The flood family reads neighbors/has_content/delay/
/// transmit/stamps/scratch, plus ctx.stats and `directed_fanout` for
/// directed BFT and hit_stamps for local indices; kTopK reads ctx.rank and
/// `k` instead of has_content.  Iterative deepening is folded into a
/// plain SearchOutcome (message cost summed over every cycle, final
/// cycle's hits) so every metrics path sees one result type.
template <typename Ctx>
core::SearchOutcome dispatch_search(SearchStrategyKind kind,
                                    const core::SearchParams& params,
                                    std::uint32_t k,
                                    std::uint32_t directed_fanout, Ctx& ctx) {
  switch (kind) {
    case SearchStrategyKind::kFlood:
      return core::flood_search(ctx.initiator, params, ctx.neighbors,
                                ctx.has_content, ctx.delay, ctx.transmit,
                                *ctx.stamps, *ctx.scratch);
    case SearchStrategyKind::kIterativeDeepening: {
      auto it = core::iterative_deepening_search(
          ctx.initiator, params, core::default_depth_ladder(params.max_hops),
          ctx.neighbors, ctx.has_content, ctx.delay, ctx.transmit,
          *ctx.stamps, *ctx.scratch);
      core::SearchOutcome out = std::move(it.last);
      out.query_messages = it.total_messages;
      out.reply_messages = it.total_replies;
      return out;
    }
    case SearchStrategyKind::kDirectedBft: {
      const auto subset = core::select_directed_subset(
          *ctx.stats, ctx.neighbors(ctx.initiator), directed_fanout);
      return core::directed_flood_search(ctx.initiator, params, subset,
                                         ctx.neighbors, ctx.has_content,
                                         ctx.delay, ctx.transmit, *ctx.stamps,
                                         *ctx.scratch);
    }
    case SearchStrategyKind::kLocalIndices:
      return core::indexed_flood_search(ctx.initiator, params, ctx.neighbors,
                                        ctx.has_content, ctx.delay,
                                        ctx.transmit, *ctx.stamps,
                                        *ctx.hit_stamps, *ctx.scratch);
    case SearchStrategyKind::kTopK:
      return core::ranked_topk_search(ctx.initiator, params, k, ctx.neighbors,
                                      ctx.rank, ctx.delay, ctx.transmit,
                                      *ctx.stamps, *ctx.scratch);
  }
  core::unreachable_enum("sim::SearchStrategyKind");
}

}  // namespace dsf::sim
