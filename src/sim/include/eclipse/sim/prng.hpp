#pragma once

#include <cstdint>

namespace eclipse::sim {

/// One splitmix64 step: advances `state` and returns its next output. The
/// seeding idiom for every wall-clock-free hash and jitter stream here.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic, seedable pseudo-random generator (xoshiro256++).
///
/// The simulator never uses std::random_device or wall-clock entropy: every
/// experiment must be reproducible bit-for-bit from its seed. The generator
/// satisfies the std uniform_random_bit_generator concept so it can be used
/// with <random> distributions when convenient.
class Prng {
 public:
  using result_type = std::uint64_t;

  explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialises state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed) {
    for (auto& s : state_) s = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return (*this)() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace eclipse::sim
