#include "des/rng.h"

namespace dsf::des {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t s = seed;
  std::uint64_t a = splitmix64(s);
  s ^= stream * 0xda942042e4dd58b5ULL;
  std::uint64_t b = splitmix64(s);
  return a ^ detail::rotl(b, 23);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : s_) word = splitmix64(s);
}

Rng Rng::split() noexcept {
  std::uint64_t s = next() ^ detail::rotl(next(), 31);
  Rng child(0);
  for (auto& word : child.s_) word = splitmix64(s);
  return child;
}

}  // namespace dsf::des
