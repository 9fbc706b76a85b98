#pragma once

// Shared (de)serializers for the container types that appear in scenario
// snapshot sections.  Conventions:
//
//  - unordered containers are sorted by key at write time, so identical
//    state always produces identical bytes (the save-twice test);
//  - restore targets are freshly constructed objects with the original
//    geometry — helpers replay content, constructors supply shape;
//  - metrics restore exactly (raw Welford state, trailing zero buckets),
//    because the resume-equals-straight-through contract is byte-level.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stats_store.h"
#include "metrics/time_series.h"
#include "net/bloom.h"
#include "snap/snapshot.h"

namespace dsf::snap {

inline void put_summary(Writer::Out& out, const metrics::Summary& s) {
  const metrics::Summary::Raw r = s.raw();
  out.u64(r.n);
  out.f64(r.mean);
  out.f64(r.m2);
  out.f64(r.min);
  out.f64(r.max);
}

inline void get_summary(Reader::In& in, metrics::Summary& s) {
  metrics::Summary::Raw r;
  r.n = in.u64();
  r.mean = in.f64();
  r.m2 = in.f64();
  r.min = in.f64();
  r.max = in.f64();
  s.restore(r);
}

inline void put_time_series(Writer::Out& out, const metrics::TimeSeries& t) {
  out.u64(t.buckets().size());
  for (std::uint64_t b : t.buckets()) out.u64(b);
}

inline void get_time_series(Reader::In& in, metrics::TimeSeries& t) {
  std::vector<std::uint64_t> buckets(in.count(8));
  for (std::uint64_t& b : buckets) b = in.u64();
  t.restore(std::move(buckets));
}

inline void put_histogram(Writer::Out& out, const metrics::Histogram& h) {
  out.u64(h.bins().size());
  for (std::uint64_t b : h.bins()) out.u64(b);
  out.u64(h.count());
  out.u64(h.underflow());
  out.u64(h.overflow());
}

inline void get_histogram(Reader::In& in, metrics::Histogram& h) {
  std::vector<std::uint64_t> bins(in.count(8));
  for (std::uint64_t& b : bins) b = in.u64();
  const std::uint64_t count = in.u64();
  const std::uint64_t underflow = in.u64();
  const std::uint64_t overflow = in.u64();
  try {
    h.restore(std::move(bins), count, underflow, overflow);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(e.what());
  }
}

/// Benefit entries sorted by peer id.  Restore replays through add(), so
/// the rebuilt store holds its entries in id order rather than the saved
/// store's; the one order-dependent consumer, plan_update, ranks by a
/// total order with an id tie-break, so that order is behavior-neutral.
inline void put_stats_store(Writer::Out& out, const core::StatsStore& s) {
  std::vector<core::StatsEntry> entries(s.entries().begin(),
                                        s.entries().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.peer < b.peer; });
  out.u64(entries.size());
  for (const core::StatsEntry& e : entries) {
    out.u32(e.peer);
    out.f64(e.benefit);
  }
}

/// Every peer id must be below `num_nodes`, the population the store's
/// owner indexes by it, and every benefit finite: a NaN or infinite one
/// would rank above or below every real one in each later update.
inline void get_stats_store(Reader::In& in, core::StatsStore& s,
                            std::size_t num_nodes) {
  s.clear();
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const net::NodeId peer = in.u32();
    if (peer >= num_nodes)
      throw SnapshotError("stats-store peer id " + std::to_string(peer) +
                          " out of range (population " +
                          std::to_string(num_nodes) + ")");
    const double benefit = in.f64();
    if (!std::isfinite(benefit))
      throw SnapshotError("stats-store benefit of peer " +
                          std::to_string(peer) + " is not finite");
    s.add(peer, benefit);
  }
}

/// LRU cache content in recency order (MRU first, matching order()).
template <typename Cache>
void put_lru(Writer::Out& out, const Cache& c) {
  out.u64(c.order().size());
  for (const auto& key : c.order()) out.u64(key);
}

/// Restore by inserting LRU-to-MRU into a fresh same-capacity cache: the
/// saved population never exceeds capacity, so no insert evicts, and the
/// final recency order equals the saved one.
template <typename Cache>
void get_lru(Reader::In& in, Cache& c) {
  std::vector<std::uint64_t> keys(in.count(8));
  for (std::uint64_t& k : keys) k = in.u64();
  for (std::size_t i = keys.size(); i-- > 0;) c.insert(keys[i]);
}

inline void put_bloom(Writer::Out& out, const net::BloomFilter& f) {
  out.u64(f.words().size());
  for (std::uint64_t w : f.words()) out.u64(w);
}

inline void get_bloom(Reader::In& in, net::BloomFilter& f) {
  std::vector<std::uint64_t> words(in.count(8));
  for (std::uint64_t& w : words) w = in.u64();
  try {
    f.restore_words(words);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(e.what());
  }
}

}  // namespace dsf::snap
