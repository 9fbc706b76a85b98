#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "des/distributions.h"
#include "des/rng.h"
#include "workload/catalog.h"
#include "workload/user_profile.h"

namespace dsf::workload {

/// A user's local content: a sorted, duplicate-free set of songs.  Lookup
/// (`contains`) is the innermost operation of every simulated query flood,
/// so the representation is a sorted flat vector — ~200 entries fit in a
/// few cache lines and binary search beats hashing at this size.
class Library {
 public:
  Library() = default;
  explicit Library(std::vector<SongId> songs);

  bool contains(SongId s) const noexcept {
    return std::binary_search(songs_.begin(), songs_.end(), s);
  }

  std::size_t size() const noexcept { return songs_.size(); }
  bool empty() const noexcept { return songs_.empty(); }
  const std::vector<SongId>& songs() const noexcept { return songs_; }

 private:
  std::vector<SongId> songs_;
};

/// Builds user libraries per §4.2: library size ~ Gaussian(μ=200, σ=50)
/// truncated to stay positive; 50% of the songs drawn from the favourite
/// category and 10% from each of the 5 side categories; song selection
/// within a category follows the catalog's Zipf popularity (popular songs
/// end up in many libraries, unpopular ones in few).
struct LibraryParams {
  double mean_size = 200.0;
  double stddev_size = 50.0;
  double min_size = 10.0;   ///< truncation floor (must stay positive)
  double max_size = 400.0;  ///< truncation ceiling (2·mean)
};

class LibraryGenerator {
 public:
  using Params = LibraryParams;

  LibraryGenerator(const Catalog& catalog, const Params& params = Params());

  Library generate(const UserProfile& profile, des::Rng& rng) const;

 private:
  /// Draws `count` distinct songs from `category` by popularity.
  void draw_from_category(CategoryId category, std::size_t count,
                          des::Rng& rng, std::vector<SongId>& out) const;

  const Catalog* catalog_;
  Params params_;
  des::TruncatedGaussian size_dist_;
};

}  // namespace dsf::workload
