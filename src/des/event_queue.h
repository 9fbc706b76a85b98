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

/// Handle to a scheduled event, usable for cancellation.  A handle is a
/// (slot, generation) pair: slots are recycled, generations are not, so a
/// stale handle can never cancel a later event that happens to reuse the
/// same slot.
struct EventId {
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;
  friend bool operator==(EventId a, EventId b) {
    return a.slot == b.slot && a.seq == b.seq;
  }
};

/// Priority queue of timestamped events with stable FIFO ordering for
/// equal timestamps and O(1) lazy cancellation.  Event times must be
/// finite.
///
/// The queue is the hot core of the simulator: one 4-ary implicit
/// min-heap, O(log n) per schedule and pop whatever the spread of event
/// delays (the simulators mix second-scale message hops with hour-scale
/// session and query timers in one queue).
///
///  - event records (a 24-byte Event plus its sequence number) live in a
///    recycled slab, two to a cache line; heap nodes carry the full
///    ordering key (an order-preserving integer image of the time, plus
///    the sequence number) so comparisons never dereference the slab;
///  - cancellation is lazy: a dense 1-bit-per-slot tombstone set checked
///    when a node surfaces.  Cancelling costs O(1); when tombstones
///    outnumber live events one filter-and-heapify pass compacts the
///    heap, so cancel-heavy workloads (every satisfied Gnutella query
///    cancels its timeout) stay amortized O(1) with bounded memory.
///
/// Pop order is the strict total order (time, seq); the heap's shape is
/// not observable, which is what lets schedule_batch() insert a fan-out
/// and compaction rebuild the heap without changing any replayed
/// trajectory.
class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `ev` at absolute time `t` (finite).  Events with equal
  /// `t` fire in insertion order.
  EventId schedule(SimTime t, const Event& ev) {
    assert(std::isfinite(t) && "event time must be finite");
    // Start the cold lines this insert will touch — the recycled slab
    // entry and its tombstone word — toward L1 now, so at large
    // populations their misses overlap instead of serializing.
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      prefetch(&entries_[s]);
      prefetch(&dead_bits_[s >> 6]);
    }
    const std::uint32_t slot = acquire_slot(ev);
    const std::uint64_t seq = entries_[slot].seq;
    push_node(HeapNode{time_key(t), seq, slot});
    return EventId{slot, seq};
  }

  /// Bulk insertion for neighbor fan-out: schedules `n` events produced
  /// by `gen(i) -> std::pair<SimTime, Event>` in index order.
  /// Equivalent to n calls to schedule() — same sequence numbers, same
  /// pop order; no handles are returned because fan-out deliveries are
  /// never cancelled individually.
  template <typename Gen>
  void schedule_batch(std::size_t n, Gen&& gen) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto [t, ev] = gen(i);
      assert(std::isfinite(t) && "event time must be finite");
      const std::uint32_t slot = acquire_slot(ev);
      push_node(HeapNode{time_key(t), entries_[slot].seq, slot});
    }
  }

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was already cancelled, or was never scheduled.
  bool cancel(EventId id) {
    if (id.slot >= entries_.size()) return false;
    Entry& e = entries_[id.slot];
    if (is_dead(id.slot) || e.seq != id.seq) return false;
    mark_dead(id.slot);
    --live_;
    // Lazy deletion alone lets tombstones pile up until their timestamp
    // surfaces — a workload that cancels most of what it schedules would
    // grow the heap without bound.  Compact when dead nodes outnumber
    // live ones: each pass at least halves the heap, so cancels stay
    // amortized O(1).
    const std::size_t dead = heap_.size() - live_;
    if (dead > live_ && dead > 32) compact();
    return true;
  }

  /// True if no live events remain.
  bool empty() const noexcept { return live_ == 0; }

  /// Timestamp of the next live event.  Precondition: !empty().
  SimTime next_time() {
    drop_dead_top();
    assert(!heap_.empty() && "next_time() on empty queue");
    return time_from_key(heap_.front().time_key);
  }

  /// Pops and returns the next live event.  Precondition: !empty().
  std::pair<SimTime, Event> pop() {
    drop_dead_top();
    assert(!heap_.empty() && "pop() on empty queue");
    const std::uint64_t key = heap_.front().time_key;
    const std::uint32_t slot = heap_.front().slot;
    // The slab entry is cold at large populations; start the line
    // toward L1 so the fetch overlaps the sift-down's own misses.
    prefetch(&entries_[slot]);
    pop_heap_root();
    const std::pair<SimTime, Event> result{time_from_key(key),
                                           entries_[slot].ev};
    mark_dead(slot);  // a stale handle must not cancel this fired event
    free_.push_back(slot);
    --live_;
    return result;
  }

  /// Number of live (non-cancelled) events.
  std::size_t size() const noexcept { return live_; }

  /// Visits every live event as (time, seq, event) in unspecified order —
  /// the checkpoint layer enumerates pending events through this and
  /// re-sorts by (time, seq) itself.  Cancelled/fired slots are skipped.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (const HeapNode& node : heap_) {
      if (!is_dead(node.slot))
        fn(time_from_key(node.time_key), node.seq, entries_[node.slot].ev);
    }
  }

  /// Total events scheduled over the queue's lifetime.
  std::uint64_t total_scheduled() const noexcept { return next_seq_; }

 private:
  /// One slab record: the event plus the generation that validates
  /// handles.  32 bytes, so an entry never straddles a cache line and
  /// every schedule writes and every pop reads a single line.  The
  /// timestamp is not stored: nodes carry it as the order key, and
  /// time_from_key inverts that mapping exactly.
  struct Entry {
    Event ev;
    std::uint64_t seq = 0;
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

  /// Liveness sits in a dense side bitset rather than a flag in Entry:
  /// drop-dead checks touch one L1-resident word instead of faulting in
  /// a cold slab entry just to read one bool.  A set bit covers both
  /// "cancelled" and "already fired" (freed slots stay marked until
  /// reuse), which is exactly the set a handle may not cancel.
  bool is_dead(std::uint32_t slot) const noexcept {
    return ((dead_bits_[slot >> 6] >> (slot & 63)) & 1u) != 0;
  }
  void mark_dead(std::uint32_t slot) noexcept {
    dead_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }

  static void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  std::uint32_t acquire_slot(const Event& ev) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      dead_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    } else {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
      if ((slot & 63) == 0) dead_bits_.push_back(0);
    }
    Entry& e = entries_[slot];
    e.seq = next_seq_++;
    e.ev = ev;
    return slot;
  }

  void push_node(const HeapNode& node) {
    heap_.push_back(node);
    sift_up(heap_.size() - 1);
    ++live_;
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

  /// Bottom-up sift-down (Wegener): promote the min-child chain all the
  /// way to a leaf without comparing against `v`, then float `v` back
  /// up.  The displaced node is the old bottom of the heap, so it almost
  /// always belongs near the leaves again — the float-up is O(1)
  /// expected, and the descent does one chain per level instead of the
  /// classic compare-then-swap pair.
  void sift_down(std::size_t i) noexcept {
    const std::size_t n = heap_.size();
    const HeapNode v = heap_[i];
    const std::size_t start = i;
    std::size_t child = min_child(i, n);
    while (child < n) {
      heap_[i] = heap_[child];
      i = child;
      child = min_child(i, n);
    }
    // Float v up from the leaf position, but never above `start`.
    while (i > start) {
      const std::size_t parent = (i - 1) / kArity;
      if (!node_less(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  void pop_heap_root() noexcept {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  void drop_dead_top() {
    while (!heap_.empty() && is_dead(heap_.front().slot)) {
      free_.push_back(heap_.front().slot);
      pop_heap_root();
    }
  }

  /// Drops every tombstone in one pass and rebuilds the heap with Floyd's
  /// O(n) construction.
  void compact() {
    std::size_t w = 0;
    for (const HeapNode& node : heap_) {
      if (is_dead(node.slot)) {
        free_.push_back(node.slot);
      } else {
        heap_[w++] = node;
      }
    }
    heap_.resize(w);
    if (w > 1)
      for (std::size_t i = (w - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }

  std::vector<Entry> entries_;       // slab of event records
  std::vector<std::uint32_t> free_;  // recycled slots in entries_
  std::vector<std::uint64_t> dead_bits_;  // 1 bit/slot: cancelled or fired
  std::vector<HeapNode> heap_;       // live nodes plus uncompacted tombstones
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace dsf::des
