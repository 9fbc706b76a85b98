#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace dsf::des {

/// Simulation time in seconds.
using SimTime = double;

/// One scheduled event as plain data: a kind plus two integer payloads.
/// The queue never interprets them; the simulator hands each popped event
/// to its one handler, which switches on `kind` (DESIGN.md §1.5).  Being
/// data, a pending event can be written to a snapshot and read back as it
/// is.
struct Event {
  std::uint32_t kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Priority queue of timestamped event records with stable FIFO ordering
/// for equal timestamps.  Event times must be finite.  The queue only
/// schedules and pops: a model that supersedes a pending event records
/// the due time it now expects and lets the stale record pop and do
/// nothing (DESIGN.md §1.5).
///
/// The queue is the hot core of the simulator: one 4-ary implicit
/// min-heap, O(log n) per schedule and pop whatever the spread of event
/// delays (the simulators mix second-scale message hops with hour-scale
/// session and query timers in one queue).  Event records live in a
/// recycled slab, two to a cache line; heap nodes carry the full ordering
/// key (an order-preserving integer image of the time, plus the sequence
/// number) so comparisons never dereference the slab.
///
/// Pop order is the strict total order (time, seq); the heap's shape is
/// not observable, which is what lets a snapshot re-schedule the pending
/// records into a fresh queue without changing any replayed trajectory.
class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `ev` at absolute time `t` (finite).  Events with equal
  /// `t` fire in insertion order.
  void schedule(SimTime t, const Event& ev) {
    assert(std::isfinite(t) && "event time must be finite");
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{ev});
    } else {
      slot = free_.back();
      free_.pop_back();
      entries_[slot].ev = ev;
    }
    heap_.push_back(HeapNode{time_key(t), next_seq_++, slot});
    sift_up(heap_.size() - 1);
  }

  /// True if no events are pending.
  bool empty() const noexcept { return heap_.empty(); }

  /// Timestamp of the next event.  Precondition: !empty().
  SimTime next_time() const {
    assert(!heap_.empty() && "next_time() on empty queue");
    return time_from_key(heap_.front().time_key);
  }

  /// Pops and returns the next event.  Precondition: !empty().
  std::pair<SimTime, Event> pop() {
    assert(!heap_.empty() && "pop() on empty queue");
    const std::uint64_t key = heap_.front().time_key;
    const std::uint32_t slot = heap_.front().slot;
    // The slab entry is cold at large populations; start the line
    // toward L1 so the fetch overlaps the sift-down's own misses.
    prefetch(&entries_[slot]);
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_root();
    free_.push_back(slot);
    return {time_from_key(key), entries_[slot].ev};
  }

  /// Number of pending events.
  std::size_t size() const noexcept { return heap_.size(); }

  /// Visits every pending event as (time, seq, event) in unspecified
  /// order — the checkpoint layer enumerates pending events through this
  /// and re-sorts by (time, seq) itself.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (const HeapNode& node : heap_)
      fn(time_from_key(node.time_key), node.seq, entries_[node.slot].ev);
  }

  /// Total events scheduled over the queue's lifetime.
  std::uint64_t total_scheduled() const noexcept { return next_seq_; }

 private:
  /// One slab record, padded to 32 bytes so an entry never straddles a
  /// cache line and every schedule writes and every pop reads a single
  /// line.  The timestamp is not stored: nodes carry it as the order key,
  /// and time_from_key inverts that mapping exactly.
  struct alignas(32) Entry {
    Event ev;
  };
  static_assert(sizeof(Entry) == 32, "slab entry must tile a cache line");

  /// Heap node carrying the complete ordering key; comparisons never
  /// dereference the slab.  Time is stored as its order-preserving
  /// integer bit pattern (see time_key) so node_less compiles to flag
  /// arithmetic and conditional moves instead of data-dependent branches
  /// — with random keys those branches are coin flips, and their
  /// mispredictions, not arithmetic, dominate comparison cost.
  struct HeapNode {
    std::uint64_t time_key;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Monotone map from double to uint64: for any two non-NaN times
  /// a < b  <=>  time_key(a) < time_key(b).  The sign-fold is the
  /// standard IEEE-754 total-order trick; adding +0.0 first collapses
  /// -0.0 onto +0.0 so the two stay tied (FIFO by seq) as they were
  /// under double comparison.
  static std::uint64_t time_key(SimTime t) noexcept {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(t + 0.0);
    return b ^ ((b >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63);
  }

  /// Exact inverse of time_key (modulo the -0.0 -> +0.0 collapse, which
  /// is invisible to arithmetic).
  static SimTime time_from_key(std::uint64_t k) noexcept {
    const std::uint64_t b =
        (k >> 63) != 0 ? (k ^ (std::uint64_t{1} << 63)) : ~k;
    return std::bit_cast<SimTime>(b);
  }

  static bool key_less(std::uint64_t ka, std::uint64_t sa, std::uint64_t kb,
                       std::uint64_t sb) noexcept {
    // Bitwise, not short-circuit: keeps the comparison branch-free.
    return (ka < kb) | ((ka == kb) & (sa < sb));
  }

  static bool node_less(const HeapNode& a, const HeapNode& b) noexcept {
    return key_less(a.time_key, a.seq, b.time_key, b.seq);
  }

  static void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  /// Heap arity.  4-ary rather than binary: half the tree depth means
  /// half the *serialized* cache misses on a descent (each level's
  /// address depends on the previous comparison), which is what bounds
  /// pop throughput once the population outgrows L2.
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) noexcept {
    const HeapNode v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!node_less(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  /// Index of the smallest child of `i`, or `n` when `i` is a leaf.
  /// Full-arity nodes take a pairwise tournament on register-resident
  /// keys: two independent compare chains merged once, all conditional
  /// moves — no data-dependent branches and no serial
  /// reload-through-index chain.
  std::size_t min_child(std::size_t i, std::size_t n) const noexcept {
    static_assert(kArity == 4, "tournament below assumes arity 4");
    const std::size_t first = kArity * i + 1;
    if (first + kArity <= n) {
      const HeapNode* c = &heap_[first];
      const std::uint64_t k0 = c[0].time_key, s0 = c[0].seq;
      const std::uint64_t k1 = c[1].time_key, s1 = c[1].seq;
      const std::uint64_t k2 = c[2].time_key, s2 = c[2].seq;
      const std::uint64_t k3 = c[3].time_key, s3 = c[3].seq;
      const bool b01 = key_less(k1, s1, k0, s0);
      const std::uint64_t k01 = b01 ? k1 : k0, s01 = b01 ? s1 : s0;
      const bool b23 = key_less(k3, s3, k2, s2);
      const std::uint64_t k23 = b23 ? k3 : k2, s23 = b23 ? s3 : s2;
      const std::size_t i01 = first + (b01 ? 1u : 0u);
      const std::size_t i23 = first + (b23 ? 3u : 2u);
      return key_less(k23, s23, k01, s01) ? i23 : i01;
    }
    if (first >= n) return n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c)
      best = node_less(heap_[c], heap_[best]) ? c : best;  // cmov, no branch
    return best;
  }

  /// Bottom-up sift-down (Wegener) of the root: promote the min-child
  /// chain all the way to a leaf without comparing against the root's
  /// node, then float that node back up.  It is the old bottom of the
  /// heap, so it almost always belongs near the leaves again — the
  /// float-up is O(1) expected, and the descent does one chain per level
  /// instead of the classic compare-then-swap pair.
  void sift_down_root() noexcept {
    const std::size_t n = heap_.size();
    const HeapNode v = heap_[0];
    std::size_t i = 0;
    std::size_t child = min_child(i, n);
    while (child < n) {
      heap_[i] = heap_[child];
      i = child;
      child = min_child(i, n);
    }
    heap_[i] = v;
    sift_up(i);
  }

  std::vector<Entry> entries_;       // slab of event records
  std::vector<std::uint32_t> free_;  // recycled slots in entries_
  std::vector<HeapNode> heap_;       // one node per pending event
  std::uint64_t next_seq_ = 0;
};

}  // namespace dsf::des
