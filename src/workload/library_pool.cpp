#include "workload/library_pool.h"

#include <algorithm>

namespace dsf::workload {

namespace {

/// Membership in a sorted, duplicate-free run.  Each step halves the
/// window with a conditional move instead of a branch, so a lookup costs
/// log2(n) dependent loads and no mispredictions; the window always keeps
/// the last element not above `s`.
bool sorted_contains(std::span<const SongId> run, SongId s) noexcept {
  if (run.empty()) return false;
  const SongId* first = run.data();
  std::size_t n = run.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    first = first[half] <= s ? first + half : first;
    n -= half;
  }
  return *first == s;
}

}  // namespace

void LibraryPool::reserve(std::size_t num_users, std::size_t expected_songs) {
  start_.reserve(num_users + 1);
  filters_.reserve(num_users);
  songs_.reserve(expected_songs);
  if (start_.empty()) start_.push_back(0);
}

void LibraryPool::append(const Library& lib) {
  if (start_.empty()) start_.push_back(0);
  songs_.insert(songs_.end(), lib.songs().begin(), lib.songs().end());
  start_.push_back(songs_.size());
  Filter& f = filters_.emplace_back();
  for (SongId s : lib.songs()) mark(f, s);
}

bool LibraryPool::search(std::uint32_t u, SongId s) const noexcept {
  if (sorted_contains(base(u), s)) return true;
  if (spill_.empty()) return false;
  const auto it = spill_.find(u);
  return it != spill_.end() && sorted_contains(it->second, s);
}

std::size_t LibraryPool::size(std::uint32_t u) const {
  std::size_t n = base(u).size();
  if (!spill_.empty()) {
    const auto it = spill_.find(u);
    if (it != spill_.end()) n += it->second.size();
  }
  return n;
}

void LibraryPool::add(std::uint32_t u, SongId s) {
  if (sorted_contains(base(u), s)) return;
  auto& spill = spill_[u];
  const auto it = std::lower_bound(spill.begin(), spill.end(), s);
  if (it == spill.end() || *it != s) spill.insert(it, s);
  mark(filters_[u], s);
}

std::size_t LibraryPool::memory_bytes() const noexcept {
  std::size_t bytes = songs_.capacity() * sizeof(SongId) +
                      start_.capacity() * sizeof(std::uint64_t) +
                      filters_.capacity() * sizeof(Filter);
  for (const auto& [u, spill] : spill_) {
    (void)u;
    bytes += sizeof(spill) + spill.capacity() * sizeof(SongId) +
             64;  // rough per-entry hash-table overhead
  }
  return bytes;
}

}  // namespace dsf::workload
