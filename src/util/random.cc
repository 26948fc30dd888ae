#include "src/util/random.h"

#include <cmath>

#include "src/util/check.h"

namespace pfci {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  PFCI_CHECK(bound >= 1);
  // Rejection sampling over the largest multiple of `bound`.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = Next64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  PFCI_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  has_spare_gaussian_ = true;
  return u * factor;
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

int Rng::NextPoisson(double mean) {
  PFCI_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    int k = 0;
    double product = NextDouble();
    while (product > limit) {
      ++k;
      product *= NextDouble();
    }
    return k;
  }
  // Normal approximation, adequate for data generation at large means.
  const double value = NextGaussian(mean, std::sqrt(mean));
  return value < 0.0 ? 0 : static_cast<int>(value + 0.5);
}

double Rng::NextExponential(double rate) {
  PFCI_CHECK(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t stream) {
  // Distinct golden-ratio multiples keep nearby (base, stream) pairs far
  // apart before the splitmix64 finalizer scrambles them.
  std::uint64_t x = base ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t Rng::NextWeighted(const std::vector<double>& weights) {
  PFCI_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PFCI_CHECK(w >= 0.0);
    total += w;
  }
  PFCI_CHECK(total > 0.0);
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Numerical fallback.
}

}  // namespace pfci
