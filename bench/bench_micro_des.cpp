// google-benchmark microbenchmarks of the hot substrate paths: event-queue
// throughput, distribution sampling, delay-model sampling, and the query
// flood expansion itself.  These bound how much simulated time per wall
// second the figure benches can achieve.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/flood_search.h"
#include "des/distributions.h"
#include "des/event_queue.h"
#include "des/rng.h"
#include "net/delay_model.h"

namespace {

using namespace dsf;

/// Hold-model throughput: a standing population of events, each popped
/// one handled (folded into a sink, as Simulator's handler would read
/// it) and replaced by one at a random later time.
void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  des::EventQueue q;
  des::Rng rng(1);
  const int population = static_cast<int>(state.range(0));
  std::uint64_t acc = 0;
  double now = 0.0;
  for (int i = 0; i < population; ++i)
    q.schedule(rng.uniform(0.0, 100.0),
               des::Event{1, static_cast<std::uint64_t>(i), 0});
  for (auto _ : state) {
    const auto [t, ev] = q.pop();
    acc += ev.a;
    now = t;
    q.schedule(now + rng.uniform(0.0, 100.0), des::Event{1, acc & 0xffff, 0});
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384)->Arg(262144);

/// Neighbor fan-out scheduled back to back, then drained: the shape of
/// core::event_flood's per-hop dispatch.
void BM_EventQueueScheduleBatch(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  des::EventQueue q;
  des::Rng rng(11);
  std::uint64_t acc = 0;
  double now = 0.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < fanout; ++i)
      q.schedule(now + rng.uniform(0.0, 100.0), des::Event{1, i, 0});
    for (std::size_t i = 0; i < fanout; ++i) {
      const auto [t, ev] = q.pop();
      acc += ev.a;
      now = t;
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_EventQueueScheduleBatch)->Arg(4)->Arg(16)->Arg(64);

void BM_RngNext(benchmark::State& state) {
  des::Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  des::Rng rng(3);
  des::Zipf z(static_cast<std::size_t>(state.range(0)), 0.9);
  for (auto _ : state) benchmark::DoNotOptimize(z.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(50)->Arg(4000);

void BM_AliasSample(benchmark::State& state) {
  des::Rng rng(4);
  des::Zipf z(4000, 0.9);
  std::vector<double> w(4000);
  for (std::size_t k = 0; k < w.size(); ++k) w[k] = z.pmf(k);
  des::AliasTable t(w);
  for (auto _ : state) benchmark::DoNotOptimize(t.sample(rng));
}
BENCHMARK(BM_AliasSample);

void BM_TruncatedGaussianSample(benchmark::State& state) {
  des::Rng rng(5);
  des::TruncatedGaussian g(0.300, 0.020, 0.010, 0.600);
  for (auto _ : state) benchmark::DoNotOptimize(g.sample(rng));
}
BENCHMARK(BM_TruncatedGaussianSample);

void BM_DelayModelSample(benchmark::State& state) {
  des::Rng seed_rng(6);
  net::DelayModel m(2000, seed_rng);
  des::Rng rng(7);
  net::NodeId a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.sample_delay_s(a, (a + 7) % 2000, rng));
    a = (a + 13) % 2000;
  }
}
BENCHMARK(BM_DelayModelSample);

/// Flood over a random 4-regular-ish overlay of 2000 nodes — the exact
/// inner loop of the Gnutella figure benches.
void BM_FloodSearch(benchmark::State& state) {
  const std::size_t n = 2000;
  des::Rng rng(8);
  std::vector<std::vector<net::NodeId>> adj(n);
  for (net::NodeId u = 0; u < n; ++u) {
    while (adj[u].size() < 4) {
      const auto v = static_cast<net::NodeId>(rng.uniform_int(n));
      if (v != u && adj[v].size() < 6) {
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
    }
  }
  std::vector<bool> holder(n);
  for (std::size_t i = 0; i < n; ++i) holder[i] = rng.bernoulli(0.05);

  core::VisitStamp stamps(n);
  core::SearchScratch scratch;
  core::SearchParams params;
  params.max_hops = static_cast<int>(state.range(0));
  des::Rng delay_rng(9);

  net::NodeId initiator = 0;
  for (auto _ : state) {
    const auto out = core::flood_search(
        initiator, params,
        [&](net::NodeId x) -> const std::vector<net::NodeId>& {
          return adj[x];
        },
        [&](net::NodeId x) { return static_cast<bool>(holder[x]); },
        [&](net::NodeId, net::NodeId) { return delay_rng.uniform(); },
        stamps, scratch);
    benchmark::DoNotOptimize(out.query_messages);
    initiator = (initiator + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FloodSearch)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
