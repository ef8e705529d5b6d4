#ifndef EVA_COMMON_RNG_H_
#define EVA_COMMON_RNG_H_

#include <cstdint>

namespace eva {

/// Deterministic 64-bit PRNG (splitmix64). Every synthetic dataset and
/// simulated model in this repo derives its randomness from seeded Rng
/// instances so that all experiments are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n) { return NextU64() % n; }

  /// Bernoulli(p).
  bool NextBool(double p) { return NextDouble() < p; }

  /// Poisson(lambda) via inversion (suitable for the small lambdas used by
  /// the synthetic video generator).
  int NextPoisson(double lambda);

  /// Mixes `salt` into a fresh seed; used to derive per-frame/per-model
  /// deterministic sub-streams.
  static uint64_t MixSeed(uint64_t seed, uint64_t salt) {
    uint64_t z = seed ^ (salt + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                         (seed >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

}  // namespace eva

#endif  // EVA_COMMON_RNG_H_
