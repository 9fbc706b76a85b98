#pragma once

// Pooled library storage for million-peer populations.
//
// workload::Library owns a std::vector per user — a heap block, a 24-byte
// header and malloc slack each, which at a million peers is a million
// allocations before the overlay exists.  LibraryPool keeps every user's
// songs in ONE sorted-slices arena: user u's library is the half-open
// range [start_[u], start_[u+1]) of songs_, laid down once at population
// build time in user-id order.
//
// `contains` is the innermost operation of every simulated flood, and
// about 95% of its probes miss (a reached peer rarely holds the one song
// asked for).  Each user therefore also has a fixed 1024-bit prefilter
// (128 bytes) with one bit per owned song: a clear bit answers "no" with
// one load, inline, and only a set bit pays for the out-of-line search, a
// branchless binary search of the sorted slice.  The prefilter is derived
// state: it is rebuilt from the songs, never saved, and memory_bytes()
// counts it.
//
// The library_growth ablation (users download what they find) is the one
// writer after construction.  Grown songs go to a per-user spill list,
// allocated lazily only for users that actually download — the arena
// slices never move.  A grown song sets its prefilter bit like a base
// song; the search checks base then spill; both are sorted and mutually
// deduplicated, so base ∪ spill is byte-for-byte the set the old
// insert-in-place Library would have held.

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "workload/catalog.h"
#include "workload/library.h"

namespace dsf::workload {

class LibraryPool {
 public:
  LibraryPool() = default;

  /// Pre-sizes the arena (`expected_songs` may be an estimate).
  void reserve(std::size_t num_users, std::size_t expected_songs);

  /// Appends the next user's library; users must be appended in id order.
  /// The Library's songs are already sorted and duplicate-free.
  void append(const Library& lib);

  std::size_t num_users() const noexcept {
    return start_.empty() ? 0 : start_.size() - 1;
  }

  /// The user's construction-time songs, sorted ascending (what digest
  /// builders iterate; growth spills are intentionally not included, same
  /// as the digests-stay-as-built rule in the gnutella scenario).
  std::span<const SongId> base(std::uint32_t u) const {
    return {songs_.data() + start_[u], start_[u + 1] - start_[u]};
  }

  bool contains(std::uint32_t u, SongId s) const noexcept {
    return filter_has(u, s) && search(u, s);
  }

  /// Library size including grown songs.
  std::size_t size(std::uint32_t u) const;

  /// Adds a downloaded song to the user's library (no-op if owned).
  void add(std::uint32_t u, SongId s);

  /// Bytes owned by the pool (arena + slice table + prefilters + spill
  /// lists) — what the scale tests pin per-peer budgets against.
  std::size_t memory_bytes() const noexcept;

  /// Growth-spill lists, for checkpointing.  The map is unordered: the
  /// snapshot writer sorts by user id so identical state always produces
  /// identical bytes.  Restore replays each entry through add(), which
  /// re-establishes the sorted/disjoint invariant and the prefilter bits.
  const std::unordered_map<std::uint32_t, std::vector<SongId>>& spill()
      const noexcept {
    return spill_;
  }

  /// Bits in each user's prefilter.
  static constexpr std::uint32_t kFilterBits = 1024;

  /// The prefilter bit song `s` sets: the top 10 bits of the id's
  /// Fibonacci hash, which spreads a category's contiguous popular ranks
  /// over all the words.
  static constexpr std::uint32_t filter_bit(SongId s) noexcept {
    return (s * 0x9E3779B1u) >> 22;
  }

 private:
  using Filter = std::array<std::uint64_t, kFilterBits / 64>;
  static_assert(sizeof(Filter) == 128);

  static void mark(Filter& f, SongId s) noexcept {
    const std::uint32_t bit = filter_bit(s);
    f[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  bool filter_has(std::uint32_t u, SongId s) const noexcept {
    const std::uint32_t bit = filter_bit(s);
    return (filters_[u][bit / 64] >> (bit % 64)) & 1;
  }
  /// The exact lookup behind a prefilter hit: base slice, then spill.
  bool search(std::uint32_t u, SongId s) const noexcept;

  std::vector<SongId> songs_;        ///< all users' songs, concatenated
  std::vector<std::uint64_t> start_; ///< slice bounds; size num_users()+1
  std::vector<Filter> filters_;      ///< one per user: base and spill songs
  /// Growth spills, keyed by user; absent for the (typical) non-growing
  /// population.  Each list is kept sorted and disjoint from the base.
  std::unordered_map<std::uint32_t, std::vector<SongId>> spill_;
};

}  // namespace dsf::workload
