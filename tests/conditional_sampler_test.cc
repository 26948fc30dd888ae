// Unit tests for the conditional Bernoulli-vector sampler (the world
// sampler inside ApproxFCP).
#include "src/prob/conditional_sampler.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/prob/poisson_binomial.h"

namespace pfci {
namespace {

TEST(ConditionalSampler, ConditionProbabilityMatchesTail) {
  const std::vector<double> probs = {0.9, 0.6, 0.7, 0.9};
  for (std::size_t s = 0; s <= 5; ++s) {
    const ConditionalBernoulliSampler sampler(probs, s);
    EXPECT_NEAR(sampler.condition_probability(),
                PoissonBinomialTailAtLeast(probs, s), 1e-12)
        << "s=" << s;
  }
}

TEST(ConditionalSampler, InfeasibleCondition) {
  const ConditionalBernoulliSampler sampler({0.5, 0.5}, 3);
  EXPECT_FALSE(sampler.Feasible());
  EXPECT_DOUBLE_EQ(sampler.condition_probability(), 0.0);
}

TEST(ConditionalSampler, UnconditionalWhenMinSumZero) {
  const ConditionalBernoulliSampler sampler({0.25, 0.75}, 0);
  EXPECT_TRUE(sampler.Feasible());
  EXPECT_DOUBLE_EQ(sampler.condition_probability(), 1.0);
}

TEST(ConditionalSampler, SamplesAlwaysSatisfyCondition) {
  const std::vector<double> probs = {0.2, 0.3, 0.4, 0.5, 0.6};
  const ConditionalBernoulliSampler sampler(probs, 3);
  ASSERT_TRUE(sampler.Feasible());
  Rng rng(5);
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 2000; ++i) {
    sampler.Sample(rng, &out);
    ASSERT_EQ(out.size(), probs.size());
    int sum = 0;
    for (std::uint8_t bit : out) sum += bit;
    EXPECT_GE(sum, 3);
  }
}

TEST(ConditionalSampler, DeterministicEntriesRespected) {
  // p = 1 entries must always be present; p = 0 entries never.
  const std::vector<double> probs = {1.0, 0.0, 0.5};
  const ConditionalBernoulliSampler sampler(probs, 1);
  Rng rng(9);
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 200; ++i) {
    sampler.Sample(rng, &out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 0);
  }
}

TEST(ConditionalSampler, EmpiricalDistributionMatchesConditional) {
  // Exhaustive check on a 3-variable instance: empirical pattern
  // frequencies converge to Pr(pattern | sum >= 2).
  const std::vector<double> probs = {0.3, 0.6, 0.8};
  const std::size_t min_sum = 2;
  const ConditionalBernoulliSampler sampler(probs, min_sum);

  // Exact conditional distribution.
  std::map<int, double> expected;  // Key: bitmask.
  double z = 0.0;
  for (int mask = 0; mask < 8; ++mask) {
    int sum = 0;
    double p = 1.0;
    for (int i = 0; i < 3; ++i) {
      const bool on = (mask >> i) & 1;
      sum += on ? 1 : 0;
      p *= on ? probs[i] : 1.0 - probs[i];
    }
    if (sum >= static_cast<int>(min_sum)) {
      expected[mask] = p;
      z += p;
    }
  }
  for (auto& [mask, p] : expected) p /= z;

  Rng rng(123);
  std::map<int, int> counts;
  const int kSamples = 200000;
  std::vector<std::uint8_t> out;
  for (int s = 0; s < kSamples; ++s) {
    sampler.Sample(rng, &out);
    int mask = 0;
    for (int i = 0; i < 3; ++i) mask |= out[i] << i;
    ++counts[mask];
  }
  for (const auto& [mask, p] : expected) {
    const double freq = static_cast<double>(counts[mask]) / kSamples;
    EXPECT_NEAR(freq, p, 0.01) << "mask=" << mask;
  }
  // No out-of-condition pattern was ever produced.
  for (const auto& [mask, count] : counts) {
    EXPECT_TRUE(expected.count(mask)) << "mask=" << mask;
  }
}

/// A random instance of the SamplerFeasibility sweep: 1..20 variables, a
/// threshold in [0, n + 1] (so some instances are infeasible).
struct Instance {
  std::vector<double> probs;
  std::size_t min_sum = 0;
};

Instance RandomInstance(Rng& rng) {
  Instance instance;
  const std::size_t n = 1 + rng.NextBelow(20);
  instance.probs.resize(n);
  for (double& p : instance.probs) p = rng.NextDouble();
  instance.min_sum = rng.NextBelow(n + 2);
  return instance;
}

/// Reference draw straight from the definition: the full tail table and
/// one division per variable per draw. The pr_one table must reproduce it
/// bit for bit, consuming the same rng values.
void ReferenceSample(const std::vector<double>& probs, std::size_t min_sum,
                     Rng& rng, std::vector<std::uint8_t>* out) {
  const std::size_t n = probs.size();
  const std::size_t stride = min_sum + 1;
  std::vector<double> tail((n + 1) * stride, 0.0);
  tail[n * stride] = 1.0;
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t d = 0; d <= min_sum; ++d) {
      const std::size_t d_minus = d > 0 ? d - 1 : 0;
      tail[i * stride + d] = probs[i] * tail[(i + 1) * stride + d_minus] +
                             (1.0 - probs[i]) * tail[(i + 1) * stride + d];
    }
  }
  out->assign(n, 0);
  std::size_t deficit = min_sum;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d_minus = deficit > 0 ? deficit - 1 : 0;
    const double pr_one = probs[i] * tail[(i + 1) * stride + d_minus] /
                          tail[i * stride + deficit];
    if (rng.NextBernoulli(pr_one)) {
      (*out)[i] = 1;
      deficit = d_minus;
    }
  }
}

TEST(ConditionalSampler, SampleEachMatchesSample) {
  std::vector<Instance> instances;
  for (int param = 0; param < 30; ++param) {
    Rng rng(param + 31);
    instances.push_back(RandomInstance(rng));
  }
  // Degenerate probabilities (no rng draw at all) and the extreme
  // thresholds: unconditional, and every variable forced present.
  instances.push_back({{0.0, 1.0, 0.5, 1.0, 0.0, 0.25}, 2});
  instances.push_back({{1.0, 1.0, 1.0}, 3});
  instances.push_back({{0.3, 0.6, 0.9, 0.1}, 0});
  instances.push_back({{0.3, 0.6, 0.9, 0.1}, 4});
  instances.push_back({{0.0, 0.7, 1.0, 0.2}, 0});
  // Several 64-row build tiles, with a narrow and a wide deficit band.
  Rng wide_rng(77);
  for (std::size_t min_sum : {150, 5}) {
    Instance instance;
    instance.probs.resize(200);
    for (double& p : instance.probs) p = 0.5 + 0.5 * wide_rng.NextDouble();
    instance.min_sum = min_sum;
    instances.push_back(instance);
  }

  int feasible = 0;
  for (std::size_t k = 0; k < instances.size(); ++k) {
    const Instance& instance = instances[k];
    const ConditionalBernoulliSampler sampler(instance.probs,
                                              instance.min_sum);
    if (!sampler.Feasible()) continue;
    ++feasible;
    Rng fused_rng(1000 + k);
    Rng sample_rng(1000 + k);
    Rng reference_rng(1000 + k);
    std::vector<std::uint8_t> fused;
    std::vector<std::uint8_t> sampled;
    std::vector<std::uint8_t> reference;
    for (int draw = 0; draw < 50; ++draw) {
      fused.assign(instance.probs.size(), 0);
      std::size_t last = 0;
      bool first = true;
      sampler.SampleEach(fused_rng, [&](std::size_t i) {
        EXPECT_TRUE(first || i > last) << "out of order: " << i;
        first = false;
        last = i;
        fused[i] = 1;
      });
      sampler.Sample(sample_rng, &sampled);
      ReferenceSample(instance.probs, instance.min_sum, reference_rng,
                      &reference);
      ASSERT_EQ(fused, sampled) << "instance " << k << " draw " << draw;
      ASSERT_EQ(fused, reference) << "instance " << k << " draw " << draw;
    }
    const Rng::State a = fused_rng.SaveState();
    const Rng::State b = sample_rng.SaveState();
    const Rng::State c = reference_rng.SaveState();
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(a.s[w], b.s[w]) << "instance " << k;
      EXPECT_EQ(a.s[w], c.s[w]) << "instance " << k;
    }
  }
  EXPECT_GT(feasible, 20);
}

class SamplerFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(SamplerFeasibility, TailTableConsistentAcrossSizes) {
  Rng rng(GetParam() + 31);
  const Instance instance = RandomInstance(rng);
  const std::vector<double>& probs = instance.probs;
  const std::size_t min_sum = instance.min_sum;
  const ConditionalBernoulliSampler sampler(probs, min_sum);
  EXPECT_NEAR(sampler.condition_probability(),
              PoissonBinomialTailAtLeast(probs, min_sum), 1e-12);
  if (sampler.Feasible()) {
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 50; ++i) {
      sampler.Sample(rng, &out);
      std::size_t sum = 0;
      for (std::uint8_t bit : out) sum += bit;
      EXPECT_GE(sum, min_sum);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SamplerFeasibility,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace pfci
