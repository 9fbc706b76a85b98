#pragma once

// Pooled library storage for million-peer populations.
//
// workload::Library owns a std::vector per user — a heap block, a 24-byte
// header and malloc slack each, which at a million peers is a million
// allocations before the overlay exists.  LibraryPool keeps every user's
// songs in ONE arena: user u's library is the half-open range
// [start_[u], start_[u+1]) of songs_, laid down once at population build
// time in user-id order.
//
// `contains` is the innermost operation of every simulated flood, and
// about 95% of its probes miss (a reached peer rarely holds the one song
// asked for).  Each user therefore also has a fixed 1024-bit prefilter
// (128 bytes, sixteen 64-bit words) with one bit per owned song: a clear
// bit answers "no" with one load, inline, and only a set bit pays for the
// exact lookup.  The slice is stored in 16 groups, one per prefilter word
// and ascending within a group, with the groups' cumulative ends in 16
// uint16_t beside it; a set bit scans only its word's group (~12 songs at
// the default library size) and stops at the first song not below the
// key.  The prefilter is derived state: it is rebuilt from the songs,
// never saved, and memory_bytes() counts it.
//
// The library_growth ablation (users download what they find) is the one
// writer after construction.  Grown songs go to a per-user spill list,
// allocated lazily only for users that actually download — the arena
// slices never move.  A grown song sets its prefilter bit like a base
// song; the search checks base then spill; the spill is sorted and both
// are mutually deduplicated, so base ∪ spill is exactly the set the old
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

  /// Bits in each user's prefilter, and its 64-bit words (one group each).
  static constexpr std::uint32_t kFilterBits = 1024;
  static constexpr std::uint32_t kFilterWords = kFilterBits / 64;

  /// The prefilter bit song `s` sets: the top 10 bits of the id's
  /// Fibonacci hash, which spreads a category's contiguous popular ranks
  /// over all the words.
  static constexpr std::uint32_t filter_bit(SongId s) noexcept {
    return (s * 0x9E3779B1u) >> 22;
  }
  /// The word of that bit, which is also the song's group in base().
  static constexpr std::uint32_t filter_word(SongId s) noexcept {
    return filter_bit(s) / 64;
  }

  /// Cumulative ends of one user's groups within its base slice.
  using GroupEnds = std::array<std::uint16_t, kFilterWords>;

  /// Pre-sizes the arena (`expected_songs` may be an estimate).
  void reserve(std::size_t num_users, std::size_t expected_songs);

  /// Appends the next user's library; users must be appended in id order.
  /// The Library's songs are already sorted and duplicate-free.  Throws
  /// std::length_error, leaving the pool unchanged, for a library of more
  /// than 65,535 songs, whose group ends would not fit a uint16_t.
  void append(const Library& lib);

  std::size_t num_users() const noexcept {
    return start_.empty() ? 0 : start_.size() - 1;
  }

  /// The user's construction-time songs, grouped by prefilter word and
  /// ascending within a group (what digest builders iterate, as a set;
  /// growth spills are intentionally not included, same as the
  /// digests-stay-as-built rule in the gnutella scenario).
  std::span<const SongId> base(std::uint32_t u) const {
    return {songs_.data() + start_[u], start_[u + 1] - start_[u]};
  }

  /// Cumulative ends of the user's groups within base(u): group w is
  /// [w == 0 ? 0 : ends[w - 1], ends[w]), and ends[kFilterWords - 1] is
  /// base(u).size().
  const GroupEnds& group_ends(std::uint32_t u) const { return ends_[u]; }

  bool contains(std::uint32_t u, SongId s) const noexcept {
    return filter_has(u, s) &&
           (base_has(u, s) || (!spill_.empty() && spill_has(u, s)));
  }

  /// Library size including grown songs.
  std::size_t size(std::uint32_t u) const;

  /// Adds a downloaded song to the user's library (no-op if owned).
  void add(std::uint32_t u, SongId s);

  /// Bytes owned by the pool (arena + slice table + prefilters + group
  /// ends + spill lists) — what the scale tests pin per-peer budgets
  /// against.
  std::size_t memory_bytes() const noexcept;

  /// Growth-spill lists, for checkpointing.  The map is unordered: the
  /// snapshot writer sorts by user id so identical state always produces
  /// identical bytes.  Restore replays each entry through add(), which
  /// re-establishes the sorted/disjoint invariant and the prefilter bits.
  const std::unordered_map<std::uint32_t, std::vector<SongId>>& spill()
      const noexcept {
    return spill_;
  }

 private:
  using Filter = std::array<std::uint64_t, kFilterWords>;
  static_assert(sizeof(Filter) == 128);

  static void mark(Filter& f, SongId s) noexcept {
    const std::uint32_t bit = filter_bit(s);
    f[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  bool filter_has(std::uint32_t u, SongId s) const noexcept {
    const std::uint32_t bit = filter_bit(s);
    return (filters_[u][bit / 64] >> (bit % 64)) & 1;
  }
  /// Membership in the base slice: a scan of `s`'s group, which is
  /// ascending, up to the first song not below `s`.
  bool base_has(std::uint32_t u, SongId s) const noexcept {
    const std::uint32_t w = filter_word(s);
    const GroupEnds& ends = ends_[u];
    const SongId* slice = songs_.data() + start_[u];
    const SongId* end = slice + ends[w];
    for (const SongId* p = w == 0 ? slice : slice + ends[w - 1]; p != end;
         ++p)
      if (*p >= s) return *p == s;
    return false;
  }
  /// Membership in the user's growth spill (callers check that some user
  /// has one first).
  bool spill_has(std::uint32_t u, SongId s) const noexcept;

  std::vector<SongId> songs_;        ///< all users' songs, concatenated
  std::vector<std::uint64_t> start_; ///< slice bounds; size num_users()+1
  std::vector<Filter> filters_;      ///< one per user: base and spill songs
  std::vector<GroupEnds> ends_;      ///< one per user: base group ends
  /// Growth spills, keyed by user; absent for the (typical) non-growing
  /// population.  Each list is kept sorted and disjoint from the base.
  std::unordered_map<std::uint32_t, std::vector<SongId>> spill_;
};

}  // namespace dsf::workload
