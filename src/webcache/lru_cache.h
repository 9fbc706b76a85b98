#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace dsf::webcache {

/// Fixed-capacity LRU set of item ids — the content store of a proxy (web
/// pages) or an OLAP peer (chunks).  `touch` promotes on hit; `insert`
/// evicts the least-recently-used item when full.
///
/// Flat layout, sized once by the constructor so that no operation
/// allocates: `capacity` slots, each a key with uint32 prev/next links
/// that chain the slots MRU-first, and an open-addressed index of slot
/// numbers (a power of two at least twice the capacity, linear probing,
/// backward-shift deletion on eviction) that finds a key's slot.
template <typename Key>
class LruCache {
  static_assert(std::is_integral_v<Key>, "LruCache keys are integer ids");
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    Key key;
    std::uint32_t prev;
    std::uint32_t next;
  };

 public:
  /// Forward range over the keys, most-recently-used first.
  class Order {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Key;
      using difference_type = std::ptrdiff_t;
      using pointer = const Key*;
      using reference = const Key&;

      iterator() = default;
      reference operator*() const { return slots_[at_].key; }
      iterator& operator++() {
        at_ = slots_[at_].next;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& o) const { return at_ == o.at_; }
      bool operator!=(const iterator& o) const { return at_ != o.at_; }

     private:
      friend class Order;
      iterator(const Slot* slots, std::uint32_t at) : slots_(slots), at_(at) {}
      const Slot* slots_ = nullptr;
      std::uint32_t at_ = kNil;
    };

    iterator begin() const { return {slots_, head_}; }
    iterator end() const { return {slots_, kNil}; }

   private:
    friend class LruCache;
    Order(const Slot* slots, std::uint32_t head) : slots_(slots), head_(head) {}
    const Slot* slots_;
    std::uint32_t head_;
  };

  explicit LruCache(std::size_t capacity) {
    if (capacity == 0 || capacity > kNil / 4)
      throw std::invalid_argument("LruCache: capacity must be in [1, 2^30)");
    slots_.resize(capacity);
    std::size_t table = 2;
    while (table < 2 * capacity) table *= 2;
    index_.assign(table, kNil);
    mask_ = table - 1;
    while ((std::size_t{1} << shift_bits_) < table) ++shift_bits_;
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t size() const noexcept { return size_; }

  bool contains(Key k) const { return index_[find(k)] != kNil; }

  /// Hit path: returns true and promotes `k` to most-recently-used.
  bool touch(Key k) {
    const std::uint32_t s = index_[find(k)];
    if (s == kNil) return false;
    promote(s);
    return true;
  }

  /// Inserts (or promotes) `k`; when full, the least-recently-used key is
  /// evicted to make room.
  void insert(Key k) {
    std::size_t pos = find(k);
    if (index_[pos] != kNil) {
      promote(index_[pos]);
      return;
    }
    std::uint32_t s;
    if (size_ < slots_.size()) {
      s = static_cast<std::uint32_t>(size_++);
    } else {
      s = tail_;
      unlink(s);
      erase_at(find(slots_[s].key));
      pos = find(k);  // the backward shift may have opened an earlier hole
    }
    slots_[s].key = k;
    index_[pos] = s;
    push_front(s);
  }

  /// Most-recently-used first.
  Order order() const noexcept { return {slots_.data(), head_}; }

 private:
  std::size_t home(Key k) const noexcept {
    // Fibonacci hashing: the top bits of the product spread consecutive
    // ids (a topic's popular pages, a query's chunk span) over the table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull) >>
        (64 - shift_bits_));
  }

  /// The index position holding `k`, or the empty position where its probe
  /// sequence ends.
  std::size_t find(Key k) const noexcept {
    std::size_t pos = home(k);
    while (index_[pos] != kNil && slots_[index_[pos]].key != k)
      pos = (pos + 1) & mask_;
    return pos;
  }

  /// Backward-shift deletion: later entries of the probe run move into the
  /// hole whenever their home does not lie cyclically inside (hole, pos],
  /// so every remaining key stays reachable without tombstones.
  void erase_at(std::size_t hole) noexcept {
    std::size_t pos = hole;
    for (;;) {
      pos = (pos + 1) & mask_;
      const std::uint32_t s = index_[pos];
      if (s == kNil) break;
      const std::size_t h = home(slots_[s].key);
      if (((pos - h) & mask_) >= ((pos - hole) & mask_)) {
        index_[hole] = s;
        hole = pos;
      }
    }
    index_[hole] = kNil;
  }

  void promote(std::uint32_t s) noexcept {
    if (s == head_) return;
    unlink(s);
    push_front(s);
  }

  void unlink(std::uint32_t s) noexcept {
    const Slot& slot = slots_[s];
    if (slot.prev != kNil) slots_[slot.prev].next = slot.next;
    else head_ = slot.next;
    if (slot.next != kNil) slots_[slot.next].prev = slot.prev;
    else tail_ = slot.prev;
  }

  void push_front(std::uint32_t s) noexcept {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    else tail_ = s;
    head_ = s;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;
  std::size_t mask_ = 0;
  int shift_bits_ = 0;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
};

}  // namespace dsf::webcache
