#include "src/prob/karp_luby.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace pfci {

std::uint64_t KarpLubyRequiredSamples(std::size_t k, double epsilon,
                                      double delta) {
  PFCI_CHECK(epsilon > 0.0);
  PFCI_CHECK(delta > 0.0 && delta < 1.0);
  if (k == 0) return 0;
  const double n = std::ceil(4.0 * static_cast<double>(k) *
                             std::log(2.0 / delta) / (epsilon * epsilon));
  // Converting a double at or beyond 2^64 (or +inf) is undefined.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!(n < kTwoTo64)) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(n);
}

KarpLubyResult KarpLubyUnionEstimate(
    const std::vector<double>& event_probs, std::uint64_t num_samples,
    Rng& rng,
    const std::function<bool(std::size_t, Rng&)>& sample_is_canonical) {
  KarpLubyResult result;

  // Prefix sums over the positive-probability events for index sampling.
  std::vector<double> cumulative;
  std::vector<std::size_t> index_of;
  cumulative.reserve(event_probs.size());
  index_of.reserve(event_probs.size());
  double z = 0.0;
  for (std::size_t i = 0; i < event_probs.size(); ++i) {
    PFCI_CHECK(event_probs[i] >= 0.0);
    if (event_probs[i] > 0.0) {
      z += event_probs[i];
      cumulative.push_back(z);
      index_of.push_back(i);
    }
  }
  if (z == 0.0 || num_samples == 0) return result;  // Union is empty.

  for (std::uint64_t s = 0; s < num_samples; ++s) {
    const double target = rng.NextDouble() * z;
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), target);
    const std::size_t slot =
        std::min<std::size_t>(it - cumulative.begin(), cumulative.size() - 1);
    const std::size_t event = index_of[slot];
    if (sample_is_canonical(event, rng)) ++result.successes;
  }
  result.samples = num_samples;
  result.estimate = z * static_cast<double>(result.successes) /
                    static_cast<double>(num_samples);
  return result;
}

}  // namespace pfci
