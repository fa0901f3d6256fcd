// Deterministic, seedable PRNG used throughout the simulator so every experiment is
// reproducible from a seed. xoshiro256** core seeded via SplitMix64; satisfies
// UniformRandomBitGenerator so <random> distributions can be layered on top.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <mutex>
#include <random>

#include "src/common/check.h"

namespace detector {

// SplitMix64 step; also used standalone as a cheap stateless hash (e.g. ECMP).
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Mixes several values into one hash (order-sensitive).
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x = SplitMix64(x);
      word = x;
      // SplitMix64 output of distinct inputs is never all-zero across four words in practice,
      // but guard the degenerate all-zero state anyway.
    }
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
      state_[0] = 1;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // xoshiro256** next().
  result_type operator()() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    DCHECK(bound > 0);
    // Rejection-free Lemire reduction is overkill here; modulo bias is negligible for our bounds.
    return (*this)() % bound;
  }

  int NextInt(int lo, int hi_exclusive) {
    DCHECK(lo < hi_exclusive);
    return lo + static_cast<int>(NextBounded(static_cast<uint64_t>(hi_exclusive - lo)));
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  bool NextBernoulli(double p) { return NextDouble() < p; }

  // Binomial(n, p) sample, drawn by std::binomial_distribution (see BinomialUsesLgamma).
  int64_t NextBinomial(int64_t n, double p);

  // Log-uniform double in [lo, hi]; both must be positive.
  double NextLogUniform(double lo, double hi);

  // Fisher-Yates shuffle of a span-like container.
  template <typename Container>
  void Shuffle(Container& c) {
    for (size_t i = c.size(); i > 1; --i) {
      const size_t j = NextBounded(i);
      std::swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // Held while building and drawing a binomial for which BinomialUsesLgamma holds.
  static std::mutex& LgammaMutex() {
    static std::mutex mutex;
    return mutex;
  }

  uint64_t state_[4];
};

// libstdc++'s std::binomial_distribution switches from its waiting-time sampler to a
// rejection method once n * min(p, 1 - p) >= 8, and that method's set-up and draw call
// lgamma, which writes libm's process-wide signgam — the only lgamma caller in src/. Such
// binomials are built and drawn under one process-wide lock, so concurrent probe shards do not
// race on signgam; the draws themselves are unchanged.
inline bool BinomialUsesLgamma(int64_t n, double p) {
  return static_cast<double>(n) * (p <= 0.5 ? p : 1.0 - p) >= 8.0;
}

inline int64_t Rng::NextBinomial(int64_t n, double p) {
  DCHECK(n >= 0);
  if (n == 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  // std::binomial_distribution handles both regimes with acceptable speed and full accuracy.
  if (BinomialUsesLgamma(n, p)) {
    const std::lock_guard<std::mutex> lock(LgammaMutex());
    std::binomial_distribution<int64_t> dist(n, p);
    return dist(*this);
  }
  std::binomial_distribution<int64_t> dist(n, p);
  return dist(*this);
}

inline double Rng::NextLogUniform(double lo, double hi) {
  DCHECK(lo > 0 && hi >= lo);
  const double u = NextDouble();
  const double log_lo = std::log(lo);
  const double log_hi = std::log(hi);
  return std::exp(log_lo + u * (log_hi - log_lo));
}

}  // namespace detector

#endif  // SRC_COMMON_RNG_H_
