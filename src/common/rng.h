// Deterministic, seedable PRNG used throughout the simulator so every experiment is
// reproducible from a seed. xoshiro256** core seeded via SplitMix64; satisfies
// UniformRandomBitGenerator so <random> distributions can be layered on top.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cmath>
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

// std::binomial_distribution<int64_t>(n, p) where libstdc++ runs its waiting-time sampler
// (0 < p < 1 and !BinomialUsesLgamma(n, p)), drawn from the same raw values to the same
// result. That sampler sums -log(1 - U_i) / (n - i) over uniforms U_0, U_1, ... until the sum
// exceeds q = -log(1 - min(p, 1 - p)), and returns the number of uniforms before the last one,
// flipped to n minus it when p > 0.5. Whether it stops at U_0 is monotone in U_0's raw value,
// so the constructor finds the largest raw value that does not stop there (zero_above); a draw
// above it — nearly every draw when n * min(p, 1 - p) is small — costs one raw output and one
// compare, and only a draw at or below it runs the loop.
class WaitingBinomial {
 public:
  WaitingBinomial(int64_t n, double p);

  template <typename Urng>
  int64_t operator()(Urng& urng) const {
    const uint64_t first = urng();
    const int64_t waited = first > zero_above_ ? 0 : Wait(first, urng);
    return flip_ ? n_ - waited : waited;
  }

  // The largest first raw value after which the sampler does not return 0 (n when p > 0.5).
  uint64_t zero_above() const { return zero_above_; }

 private:
  // libstdc++'s std::generate_canonical<double, 53> over one raw output of a 64-bit generator
  // such as Rng — the uniform each of its distributions takes per draw: the raw value rounded
  // to double, scaled by 2^-64 and held below 1.
  static double CanonicalDouble(uint64_t raw) {
    const double u = static_cast<double>(raw) * 0x1p-64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
  }

  // The sampler's test after its first uniform: true when it returns 0 there.
  bool StopsAtFirst(uint64_t raw) const {
    double sum = 0.0;
    sum += -std::log(1.0 - CanonicalDouble(raw)) / static_cast<double>(n_);
    return !(sum <= q_);
  }

  // libstdc++'s _M_waiting, its first raw value already drawn.
  template <typename Urng>
  int64_t Wait(uint64_t first, Urng& urng) const {
    double sum = 0.0;
    sum += -std::log(1.0 - CanonicalDouble(first)) / static_cast<double>(n_);
    int64_t x = 1;
    while (sum <= q_) {
      if (x == n_) {
        return x;
      }
      sum += -std::log(1.0 - CanonicalDouble(urng())) / static_cast<double>(n_ - x);
      ++x;
    }
    return x - 1;
  }

  int64_t n_;
  double q_;
  uint64_t zero_above_;
  bool flip_;
};

inline WaitingBinomial::WaitingBinomial(int64_t n, double p) : n_(n) {
  CHECK(n > 0 && p > 0.0 && p < 1.0 && !BinomialUsesLgamma(n, p));
  // binomial_distribution::param_type's set-up, in its arithmetic.
  const double p12 = p <= 0.5 ? p : 1.0 - p;
  q_ = -std::log(1 - p12);
  flip_ = p12 != p;
  // Bisection keeps !StopsAtFirst(lo) and StopsAtFirst(hi); a zero raw value never stops
  // (its uniform is 0), and the largest one stops unless q is out of any uniform's reach.
  uint64_t lo = 0;
  uint64_t hi = ~0ULL;
  if (!StopsAtFirst(hi)) {
    zero_above_ = hi;
    return;
  }
  // The sampler stops at U_0 once U_0 > 1 - e^(-n q). Rounding 1 - U_0 to a double, 2^-53
  // apart, moves the exact threshold about 2^11 raw values off that estimate, so a bracket of
  // 2^14 plus 2^-40 of the estimate holds it and the search takes 15 to 25 steps instead of
  // 64. Should the estimate ever miss, the search runs over the whole range.
  const double estimate = -std::expm1(-static_cast<double>(n) * q_) * 0x1p64;
  if (estimate < 0x1p64) {
    const uint64_t center = static_cast<uint64_t>(estimate);
    const uint64_t margin = (center >> 40) + (uint64_t{1} << 14);
    if (center > margin && !StopsAtFirst(center - margin)) {
      lo = center - margin;
    }
    if (center < hi - margin && StopsAtFirst(center + margin)) {
      hi = center + margin;
    }
  }
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (StopsAtFirst(mid) ? hi : lo) = mid;
  }
  zero_above_ = lo;
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
