// Unit tests for the Karp-Luby-Madras coverage estimator.
#include "src/prob/karp_luby.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace pfci {
namespace {

TEST(KarpLubySamples, FormulaMatchesPaper) {
  // N = ceil(4 k ln(2/delta) / eps^2).
  EXPECT_EQ(KarpLubyRequiredSamples(1, 0.1, 0.1),
            static_cast<std::uint64_t>(
                std::ceil(4.0 * std::log(20.0) / 0.01)));
  EXPECT_EQ(KarpLubyRequiredSamples(0, 0.1, 0.1), 0u);
  // Linear in k.
  EXPECT_EQ(KarpLubyRequiredSamples(10, 0.1, 0.1),
            static_cast<std::uint64_t>(
                std::ceil(40.0 * std::log(20.0) / 0.01)));
}

TEST(KarpLubySamples, SaturatesInsteadOfOverflowing) {
  // 4 * 10 * ln(20) / 1e-20 ~ 1.2e22 does not fit in 64 bits, and
  // epsilon = 1e-200 squares to 0, making the count +inf: both saturate
  // rather than casting an out-of-range double.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(KarpLubyRequiredSamples(10, 1e-10, 0.1), kMax);
  EXPECT_EQ(KarpLubyRequiredSamples(1, 1e-10, 0.1), kMax);
  EXPECT_EQ(KarpLubyRequiredSamples(10, 1e-200, 0.1), kMax);
  // The largest counts that fit stay exact.
  EXPECT_LT(KarpLubyRequiredSamples(1, 1e-8, 0.1), kMax);
}

TEST(KarpLubyEstimate, EmptyUnion) {
  Rng rng(1);
  const KarpLubyResult result = KarpLubyUnionEstimate(
      {0.0, 0.0}, 100, rng, [](std::size_t, Rng&) { return true; });
  EXPECT_DOUBLE_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.samples, 0u);
}

TEST(KarpLubyEstimate, DisjointEventsExact) {
  // Disjoint events: every sample is canonical, the estimate equals the
  // sum of the event probabilities exactly.
  Rng rng(2);
  const std::vector<double> probs = {0.1, 0.2, 0.15};
  const KarpLubyResult result = KarpLubyUnionEstimate(
      probs, 5000, rng, [](std::size_t, Rng&) { return true; });
  EXPECT_EQ(result.successes, result.samples);
  EXPECT_NEAR(result.estimate, 0.45, 1e-12);
}

TEST(KarpLubyEstimate, NestedEventsConvergeToLargest) {
  // Events C_0 ⊇ C_1 ⊇ C_2 realized on the uniform unit interval as
  // prefixes [0, p_i): union = p_0. A sample from C_i is canonical iff
  // i == 0 ... but the estimator only sees "is any earlier event covering
  // the sample", which for i > 0 is always true (C_{i} ⊆ C_0).
  Rng rng(3);
  const std::vector<double> probs = {0.5, 0.25, 0.125};
  const KarpLubyResult result = KarpLubyUnionEstimate(
      probs, 40000, rng, [&probs](std::size_t i, Rng& r) {
        // Draw a point uniform in the event [0, probs[i]) and report
        // whether no earlier event contains it; earlier events are
        // supersets here, so only i == 0 can be canonical.
        (void)r;
        return i == 0;
      });
  // successes/N is binomial around p_0/Z, so the check is statistical.
  EXPECT_NEAR(result.estimate, 0.5, 0.02);
}

TEST(KarpLubyEstimate, IndependentEventsStatisticallyAccurate) {
  // Two independent events over a 4-point space; the membership oracle
  // actually samples.
  // C_0 = {00, 01} with p 0.5; C_1 = {00, 10} with p 0.5;
  // union = {00, 01, 10} = 0.75 under the uniform measure.
  Rng rng(4);
  const std::vector<double> probs = {0.5, 0.5};
  const KarpLubyResult result = KarpLubyUnionEstimate(
      probs, 100000, rng, [](std::size_t i, Rng& r) {
        // Sample a point of C_i uniformly; the two points of each event
        // are equally likely.
        const bool second_point = r.NextBernoulli(0.5);
        if (i == 0) return true;  // No earlier event.
        // For C_1: points are 00 (in C_0) and 10 (not in C_0).
        return second_point;  // Canonical iff the point is 10.
      });
  EXPECT_NEAR(result.estimate, 0.75, 0.01);
}

TEST(KarpLubyEstimate, SkipsZeroProbabilityEvents) {
  Rng rng(5);
  const std::vector<double> probs = {0.0, 0.3, 0.0};
  const KarpLubyResult result = KarpLubyUnionEstimate(
      probs, 1000, rng, [](std::size_t i, Rng&) {
        EXPECT_EQ(i, 1u);  // Only the positive event may be drawn.
        return true;
      });
  EXPECT_NEAR(result.estimate, 0.3, 1e-12);
}

}  // namespace
}  // namespace pfci
