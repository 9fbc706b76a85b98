#include "webcache/lru_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace dsf::webcache {
namespace {

template <typename Key>
std::vector<Key> order_of(const LruCache<Key>& c) {
  const auto order = c.order();
  return {order.begin(), order.end()};
}

TEST(LruCache, RejectsZeroCapacity) {
  EXPECT_THROW(LruCache<int>(0), std::invalid_argument);
}

TEST(LruCache, InsertAndContains) {
  LruCache<int> c(3);
  c.insert(1);
  c.insert(2);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(3));
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> c(2);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(order_of(c), (std::vector<int>{3, 2}));
}

TEST(LruCache, TouchPromotes) {
  LruCache<int> c(2);
  c.insert(1);
  c.insert(2);
  EXPECT_TRUE(c.touch(1));  // 1 becomes MRU
  c.insert(3);
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(order_of(c), (std::vector<int>{3, 1}));
}

TEST(LruCache, TouchMissReturnsFalse) {
  LruCache<int> c(2);
  EXPECT_FALSE(c.touch(5));
}

TEST(LruCache, ReinsertPromotesWithoutGrowth) {
  LruCache<int> c(2);
  c.insert(1);
  c.insert(2);
  c.insert(1);  // promote, not duplicate
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(order_of(c), (std::vector<int>{1, 2}));
  c.insert(3);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, OrderIsMruFirst) {
  LruCache<int> c(3);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.touch(1);
  const auto order = c.order();
  auto it = order.begin();
  EXPECT_EQ(*it++, 1);
  EXPECT_EQ(*it++, 3);
  EXPECT_EQ(*it++, 2);
  EXPECT_EQ(it, order.end());
}

TEST(LruCache, StressKeepsSizeBounded) {
  LruCache<int> c(10);
  for (int i = 0; i < 1000; ++i) c.insert(i % 37);
  EXPECT_LE(c.size(), 10u);
}

/// The node-based LRU the flat cache replaced: a std::list in MRU-first
/// order and a hash map from key to list position.  It is the oracle for
/// size, membership and recency order.
class ListLru {
 public:
  explicit ListLru(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const { return index_.size(); }
  bool contains(std::uint32_t k) const { return index_.count(k) != 0; }

  bool touch(std::uint32_t k) {
    const auto it = index_.find(k);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void insert(std::uint32_t k) {
    if (touch(k)) return;
    if (index_.size() >= capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(k);
    index_[k] = order_.begin();
  }

  std::vector<std::uint32_t> order() const {
    return {order_.begin(), order_.end()};
  }

 private:
  std::size_t capacity_;
  std::list<std::uint32_t> order_;
  std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator>
      index_;
};

TEST(LruCacheDifferential, MatchesListLruStepByStep) {
  // Random touch/insert/contains traffic over 3x the capacity's keys plus
  // one, so evictions, re-inserts of evicted keys and promotions of the
  // MRU and LRU entries all occur.  Each capacity runs twice: over the
  // consecutive ids 0..3c, the shape of a topic's pages or a query's
  // chunk span, and over random 32-bit ids (the largest among them),
  // whose homes collide in the index as often as uniform hashing does, so
  // long probe runs and wrapping backward-shift deletions occur too.
  std::mt19937_64 gen(20240611);
  for (std::size_t capacity = 1; capacity <= 64; ++capacity) {
    for (const bool consecutive : {true, false}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) +
                   (consecutive ? ", consecutive ids" : ", random ids"));
      std::vector<std::uint32_t> keys(3 * capacity + 1);
      for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = consecutive ? static_cast<std::uint32_t>(i)
                              : static_cast<std::uint32_t>(gen());
      if (!consecutive) keys[0] = 0xFFFFFFFFu;
      LruCache<std::uint32_t> flat(capacity);
      ListLru oracle(capacity);
      for (int step = 0; step < 600; ++step) {
        const std::uint32_t k = keys[gen() % keys.size()];
        switch (gen() % 3) {
          case 0:
            ASSERT_EQ(flat.touch(k), oracle.touch(k)) << "step " << step;
            break;
          case 1:
            flat.insert(k);
            oracle.insert(k);
            break;
          default:
            ASSERT_EQ(flat.contains(k), oracle.contains(k)) << "step " << step;
        }
        ASSERT_EQ(flat.size(), oracle.size()) << "step " << step;
        for (const std::uint32_t key : keys)
          ASSERT_EQ(flat.contains(key), oracle.contains(key))
              << "step " << step << ", key " << key;
        ASSERT_EQ(order_of(flat), oracle.order()) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace dsf::webcache
