// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (samplers, data generators) take
// an explicit `Rng&` so that experiments are reproducible from a seed.
// The generator is xoshiro256++ (Blackman & Vigna), seeded via splitmix64.
#ifndef PFCI_UTIL_RANDOM_H_
#define PFCI_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace pfci {

/// xoshiro256++ pseudo-random generator with convenience distributions.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can also be
/// plugged into <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value.
  result_type operator()() { return Next64(); }

  /// Uniform in [0, 1).
  double NextDouble() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) for bound >= 1 (unbiased via rejection).
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  /// Consumes one value only when 0 < p < 1.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Poisson-distributed count (Knuth's method for small mean, normal
  /// approximation with rounding for large mean).
  int NextPoisson(double mean);

  /// Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t NextWeighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Complete generator state, exposed so a suspended run can serialize
  /// its single shared stream (the top-k miner) and resume bit-identical.
  /// `gaussian_spare` is part of the state: NextGaussian generates pairs
  /// and banks one, so dropping it would shift every later draw.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool has_gaussian_spare = false;
    double gaussian_spare = 0.0;
  };

  State SaveState() const {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.has_gaussian_spare = has_spare_gaussian_;
    st.gaussian_spare = spare_gaussian_;
    return st;
  }

  void RestoreState(const State& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    has_spare_gaussian_ = st.has_gaussian_spare;
    spare_gaussian_ = st.gaussian_spare;
  }

 private:
  static std::uint64_t RotL(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // Inline: the samplers draw one value per variable per sample.
  std::uint64_t Next64() {
    const std::uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  std::uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Derives an independent-stream seed from a base seed and a stream index
/// (splitmix64-style avalanche). The parallel miners seed one Rng per
/// subtree / sample batch with DeriveSeed(params.seed, stream) so that the
/// random stream of each unit of work is a pure function of the seed —
/// never of the thread count or scheduling order (see DESIGN.md §7).
std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t stream);

}  // namespace pfci

#endif  // PFCI_UTIL_RANDOM_H_
