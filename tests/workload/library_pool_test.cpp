// LibraryPool against a std::set oracle.  The pool answers `contains`
// through a per-user 1024-bit prefilter and a branchless binary search of
// the sorted slice, then the growth spill list; the oracle is one
// std::set per user.  Seeded populations cover empty, one-song and
// 400-song slices; every owned song is probed, and so is a set of absent
// songs chosen to share a prefilter bit with an owned one (the probes that
// get past the filter and must be refused by the search).  Growth through
// add() includes songs already in the base, and a pool rebuilt by
// replaying the spill lists through add() — the snapshot restore path —
// must answer exactly like the original.

#include "workload/library_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "des/rng.h"
#include "workload/library.h"

namespace dsf::workload {
namespace {

constexpr SongId kSongs = 200'000;  // the default catalog's size

/// A song not in `owned` that shares a prefilter bit with `s`.
SongId filter_twin(SongId s, const std::set<SongId>& owned) {
  for (SongId t = s + 1;; ++t) {
    if (LibraryPool::filter_bit(t) == LibraryPool::filter_bit(s) &&
        owned.count(t) == 0)
      return t;
  }
}

class PoolHarness {
 public:
  explicit PoolHarness(std::uint64_t seed) : rng_(seed) {
    // Fixed edge slices first, then random sizes up to the generator's
    // 400-song ceiling.
    const std::size_t fixed[] = {0, 1, 400, 0, 1, 2, 3};
    for (std::size_t n : fixed) add_user(n);
    for (int u = 0; u < 40; ++u) add_user(rng_.uniform_int(401));
  }

  void add_user(std::size_t n) {
    std::vector<SongId> songs;
    // Half the users draw from one narrow band, like a favourite
    // category's popular ranks; the others from the whole catalog.
    const bool banded = rng_.bernoulli(0.5);
    const SongId lo = static_cast<SongId>(rng_.uniform_int(kSongs - 4000));
    while (songs.size() < n) {
      songs.push_back(banded ? lo + static_cast<SongId>(rng_.uniform_int(4000))
                             : static_cast<SongId>(rng_.uniform_int(kSongs)));
      std::sort(songs.begin(), songs.end());
      songs.erase(std::unique(songs.begin(), songs.end()), songs.end());
    }
    libraries_.emplace_back(songs);
    pool_.append(libraries_.back());
    oracle_.emplace_back(songs.begin(), songs.end());
  }

  /// Random growth: songs the user already owns in the base, already
  /// downloaded, or new.
  void grow(std::size_t downloads) {
    for (std::size_t k = 0; k < downloads; ++k) {
      const auto u = static_cast<std::uint32_t>(rng_.uniform_int(users()));
      SongId s = static_cast<SongId>(rng_.uniform_int(kSongs));
      const auto& base = libraries_[u].songs();
      if (!base.empty() && rng_.bernoulli(0.3))
        s = base[rng_.uniform_int(base.size())];
      pool_.add(u, s);
      oracle_[u].insert(s);
    }
  }

  void check(const LibraryPool& pool) {
    ASSERT_EQ(pool.num_users(), users());
    for (std::uint32_t u = 0; u < users(); ++u) {
      const std::set<SongId>& owned = oracle_[u];
      ASSERT_EQ(pool.size(u), owned.size()) << "user " << u;
      // The base slice never changes after construction.
      ASSERT_TRUE(std::equal(pool.base(u).begin(), pool.base(u).end(),
                             libraries_[u].songs().begin(),
                             libraries_[u].songs().end()))
          << "user " << u;
      for (SongId s : owned) {
        ASSERT_TRUE(pool.contains(u, s)) << "user " << u << " song " << s;
        const SongId twin = filter_twin(s, owned);
        ASSERT_FALSE(pool.contains(u, twin))
            << "user " << u << " twin " << twin;
      }
      // Range ends and random probes.
      std::vector<SongId> probes = {0, 1, kSongs - 1, kSongs,
                                    std::numeric_limits<SongId>::max()};
      if (!owned.empty()) {
        probes.push_back(*owned.begin() - 1);
        probes.push_back(*owned.rbegin() + 1);
      }
      for (int k = 0; k < 200; ++k)
        probes.push_back(static_cast<SongId>(rng_.uniform_int(kSongs)));
      for (SongId s : probes)
        ASSERT_EQ(pool.contains(u, s), owned.count(s) == 1)
            << "user " << u << " probe " << s;
    }
  }

  /// A fresh pool over the same base libraries with this pool's spill
  /// lists replayed through add(), in user-id order as a snapshot restore
  /// replays them.
  LibraryPool rebuilt() const {
    LibraryPool copy;
    copy.reserve(users(), 0);
    for (const Library& lib : libraries_) copy.append(lib);
    std::vector<std::uint32_t> spill_users;
    for (const auto& [u, songs] : pool_.spill()) spill_users.push_back(u);
    std::sort(spill_users.begin(), spill_users.end());
    for (std::uint32_t u : spill_users)
      for (SongId s : pool_.spill().at(u)) copy.add(u, s);
    return copy;
  }

  std::uint32_t users() const {
    return static_cast<std::uint32_t>(libraries_.size());
  }
  const LibraryPool& pool() const { return pool_; }

 private:
  des::Rng rng_;
  std::vector<Library> libraries_;
  LibraryPool pool_;
  std::vector<std::set<SongId>> oracle_;
};

TEST(LibraryPoolDifferential, MatchesSetOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    PoolHarness h(seed);
    h.check(h.pool());
    if (HasFatalFailure()) return;
    h.grow(300);
    h.check(h.pool());
    if (HasFatalFailure()) return;
    h.grow(600);
    h.check(h.pool());
    if (HasFatalFailure()) return;
  }
}

TEST(LibraryPoolDifferential, ReplayedSpillsAnswerLikeTheOriginal) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    PoolHarness h(seed);
    h.grow(800);
    const LibraryPool copy = h.rebuilt();
    h.check(copy);
    if (HasFatalFailure()) return;
    EXPECT_EQ(copy.spill(), h.pool().spill());
    for (std::uint32_t u = 0; u < h.users(); ++u)
      for (SongId s = 0; s < kSongs; s += 7)
        ASSERT_EQ(copy.contains(u, s), h.pool().contains(u, s))
            << "user " << u << " song " << s;
  }
}

TEST(LibraryPool, AddOfABaseSongIsANoOp) {
  LibraryPool pool;
  pool.append(Library({10, 20, 30}));
  pool.add(0, 20);
  EXPECT_TRUE(pool.spill().empty());
  EXPECT_EQ(pool.size(0), 3u);
  pool.add(0, 25);
  pool.add(0, 25);
  EXPECT_EQ(pool.size(0), 4u);
  EXPECT_TRUE(pool.contains(0, 25));
  EXPECT_EQ(pool.spill().at(0), (std::vector<SongId>{25}));
}

TEST(LibraryPool, EmptySliceOwnsNothing) {
  LibraryPool pool;
  pool.append(Library());
  pool.append(Library({7}));
  EXPECT_EQ(pool.size(0), 0u);
  EXPECT_FALSE(pool.contains(0, 7));
  EXPECT_TRUE(pool.contains(1, 7));
  pool.add(0, 7);
  EXPECT_TRUE(pool.contains(0, 7));
  EXPECT_EQ(pool.size(0), 1u);
}

TEST(LibraryPool, MemoryBytesCountsThePrefilters) {
  LibraryPool pool;
  for (int u = 0; u < 10; ++u) pool.append(Library({1, 2, 3}));
  EXPECT_GE(pool.memory_bytes(), 10 * (LibraryPool::kFilterBits / 8));
}

}  // namespace
}  // namespace dsf::workload
