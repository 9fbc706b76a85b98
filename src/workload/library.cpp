#include "workload/library.h"

#include <unordered_set>

namespace dsf::workload {

Library::Library(std::vector<SongId> songs) : songs_(std::move(songs)) {
  std::sort(songs_.begin(), songs_.end());
  songs_.erase(std::unique(songs_.begin(), songs_.end()), songs_.end());
}

LibraryGenerator::LibraryGenerator(const Catalog& catalog,
                                   const Params& params)
    : catalog_(&catalog), params_(params),
      size_dist_(params.mean_size, params.stddev_size, params.min_size,
                 params.max_size) {}

void LibraryGenerator::draw_from_category(CategoryId category,
                                          std::size_t count, des::Rng& rng,
                                          std::vector<SongId>& out) const {
  // Rejection on duplicates.  With Zipf(0.9) over 4000 ranks and ~100 draws
  // the duplicate rate is modest, and the cap below bounds the worst case
  // (tiny test catalogs where `count` approaches the category size).
  count = std::min<std::size_t>(count, catalog_->songs_per_category());
  std::unordered_set<SongId> seen;
  seen.reserve(count * 2);
  std::size_t attempts = 0;
  const std::size_t max_attempts = 50 * count + 100;
  while (seen.size() < count && attempts < max_attempts) {
    seen.insert(catalog_->sample_song(category, rng));
    ++attempts;
  }
  // If popularity skew starved us (possible only for near-full categories),
  // top up with the most popular unseen ranks — deterministic and cheap.
  for (std::uint32_t r = 0;
       seen.size() < count && r < catalog_->songs_per_category(); ++r) {
    seen.insert(catalog_->song_at(category, r));
  }
  out.insert(out.end(), seen.begin(), seen.end());
}

Library LibraryGenerator::generate(const UserProfile& profile,
                                   des::Rng& rng) const {
  const auto total = static_cast<std::size_t>(size_dist_.sample(rng));
  const std::size_t favorite_count = total / 2;
  const std::size_t per_side =
      (total - favorite_count) / UserProfile::kNumSideCategories;

  std::vector<SongId> songs;
  songs.reserve(total);
  draw_from_category(profile.favorite, favorite_count, rng, songs);
  for (CategoryId c : profile.side) draw_from_category(c, per_side, rng, songs);
  return Library(std::move(songs));
}

}  // namespace dsf::workload
