#include "workload/library.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace dsf::workload {
namespace {

TEST(Library, ContainsAndSize) {
  Library lib({5, 1, 3});
  EXPECT_EQ(lib.size(), 3u);
  EXPECT_TRUE(lib.contains(1));
  EXPECT_TRUE(lib.contains(3));
  EXPECT_TRUE(lib.contains(5));
  EXPECT_FALSE(lib.contains(2));
}

TEST(Library, ConstructorDeduplicatesAndSorts) {
  Library lib({4, 2, 4, 2, 9});
  EXPECT_EQ(lib.size(), 3u);
  EXPECT_EQ(lib.songs(), (std::vector<SongId>{2, 4, 9}));
}

TEST(Library, EmptyLibrary) {
  Library lib;
  EXPECT_TRUE(lib.empty());
  EXPECT_FALSE(lib.contains(0));
}

class LibraryGeneratorTest : public ::testing::Test {
 protected:
  Catalog catalog_;  // paper defaults: 200k songs, 50 categories
  UserProfile profile_{.favorite = 3, .side = {7, 11, 19, 23, 42}};
};

TEST_F(LibraryGeneratorTest, SizeWithinTruncation) {
  LibraryGenerator gen(catalog_);
  des::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Library lib = gen.generate(profile_, rng);
    EXPECT_GE(lib.size(), 8u);    // floor 10 minus integer split losses
    EXPECT_LE(lib.size(), 400u);  // ceiling
  }
}

TEST_F(LibraryGeneratorTest, MeanSizeNear200) {
  LibraryGenerator gen(catalog_);
  des::Rng rng(2);
  double sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) sum += gen.generate(profile_, rng).size();
  EXPECT_NEAR(sum / n, 200.0, 12.0);
}

TEST_F(LibraryGeneratorTest, HalfFromFavoriteCategory) {
  LibraryGenerator gen(catalog_);
  des::Rng rng(3);
  const Library lib = gen.generate(profile_, rng);
  std::map<CategoryId, int> per_category;
  for (SongId s : lib.songs()) ++per_category[catalog_.category_of(s)];
  const double favorite_share =
      static_cast<double>(per_category[profile_.favorite]) / lib.size();
  EXPECT_NEAR(favorite_share, 0.5, 0.05);
  // All songs must come from the profile's categories.
  std::set<CategoryId> allowed{profile_.favorite};
  allowed.insert(profile_.side.begin(), profile_.side.end());
  for (const auto& [cat, count] : per_category)
    EXPECT_EQ(allowed.count(cat), 1u) << "song outside profile categories";
}

TEST_F(LibraryGeneratorTest, SideCategoriesGetEqualShares) {
  LibraryGenerator gen(catalog_);
  des::Rng rng(4);
  std::map<CategoryId, int> per_category;
  std::size_t total = 0;
  for (int i = 0; i < 50; ++i) {
    const Library lib = gen.generate(profile_, rng);
    total += lib.size();
    for (SongId s : lib.songs()) ++per_category[catalog_.category_of(s)];
  }
  for (CategoryId c : profile_.side) {
    const double share = static_cast<double>(per_category[c]) / total;
    EXPECT_NEAR(share, 0.1, 0.02);
  }
}

TEST_F(LibraryGeneratorTest, PopularSongsAppearInMoreLibraries) {
  LibraryGenerator gen(catalog_);
  des::Rng rng(5);
  int top_rank_hits = 0, deep_rank_hits = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const Library lib = gen.generate(profile_, rng);
    // rank 0 (most popular) vs rank 2000 (unpopular) of the favourite.
    if (lib.contains(catalog_.song_at(profile_.favorite, 0))) ++top_rank_hits;
    if (lib.contains(catalog_.song_at(profile_.favorite, 2000)))
      ++deep_rank_hits;
  }
  EXPECT_GT(top_rank_hits, n / 2);
  EXPECT_LT(deep_rank_hits, n / 10);
}

TEST(LibraryGeneratorSmall, NearFullCategoryTopsUpDeterministically) {
  Catalog::Params p;
  p.num_songs = 60;  // tiny catalog: 10 per category
  p.num_categories = 6;
  Catalog catalog(p);
  LibraryGenerator::Params lp;
  lp.mean_size = 40.0;
  lp.stddev_size = 1.0;
  lp.min_size = 39.0;
  lp.max_size = 41.0;
  LibraryGenerator gen(catalog, lp);
  UserProfile profile{.favorite = 0, .side = {1, 2, 3, 4, 5}};
  des::Rng rng(6);
  const Library lib = gen.generate(profile, rng);
  // Favourite wants ~20 of 10 available: capped to the category size.
  std::size_t favorite_count = 0;
  for (SongId s : lib.songs())
    if (catalog.category_of(s) == 0) ++favorite_count;
  EXPECT_EQ(favorite_count, 10u);
}

}  // namespace
}  // namespace dsf::workload
