#include "workload/library_pool.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace dsf::workload {

void LibraryPool::reserve(std::size_t num_users, std::size_t expected_songs) {
  start_.reserve(num_users + 1);
  filters_.reserve(num_users);
  ends_.reserve(num_users);
  songs_.reserve(expected_songs);
  if (start_.empty()) start_.push_back(0);
}

void LibraryPool::append(const Library& lib) {
  const std::vector<SongId>& songs = lib.songs();
  if (songs.size() > std::numeric_limits<std::uint16_t>::max())
    throw std::length_error(
        "LibraryPool: a library of " + std::to_string(songs.size()) +
        " songs exceeds the 65535 its uint16_t group ends can index");
  if (start_.empty()) start_.push_back(0);

  // One counting pass: group sizes, then cumulative ends.  The songs
  // arrive ascending, so placing them in order at their group's cursor
  // keeps every group ascending without a sort.
  Filter filter{};
  GroupEnds ends{};
  for (SongId s : songs) {
    mark(filter, s);
    ++ends[filter_word(s)];
  }
  for (std::uint32_t w = 1; w < kFilterWords; ++w) ends[w] += ends[w - 1];

  const std::size_t slice = songs_.size();
  songs_.resize(slice + songs.size());
  GroupEnds cursor{};
  std::copy(ends.begin(), ends.end() - 1, cursor.begin() + 1);
  for (SongId s : songs) songs_[slice + cursor[filter_word(s)]++] = s;

  start_.push_back(songs_.size());
  filters_.push_back(filter);
  ends_.push_back(ends);
}

bool LibraryPool::spill_has(std::uint32_t u, SongId s) const noexcept {
  const auto it = spill_.find(u);
  return it != spill_.end() &&
         std::binary_search(it->second.begin(), it->second.end(), s);
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
  if (base_has(u, s)) return;
  auto& spill = spill_[u];
  const auto it = std::lower_bound(spill.begin(), spill.end(), s);
  if (it == spill.end() || *it != s) spill.insert(it, s);
  mark(filters_[u], s);
}

std::size_t LibraryPool::memory_bytes() const noexcept {
  std::size_t bytes = songs_.capacity() * sizeof(SongId) +
                      start_.capacity() * sizeof(std::uint64_t) +
                      filters_.capacity() * sizeof(Filter) +
                      ends_.capacity() * sizeof(GroupEnds);
  for (const auto& [u, spill] : spill_) {
    (void)u;
    bytes += sizeof(spill) + spill.capacity() * sizeof(SongId) +
             64;  // rough per-entry hash-table overhead
  }
  return bytes;
}

}  // namespace dsf::workload
