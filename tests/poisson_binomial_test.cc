// Unit tests for the Poisson-binomial distribution primitives.
#include "src/prob/poisson_binomial.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace pfci {
namespace {

TEST(PoissonBinomialPmf, EmptyInput) {
  const std::vector<double> pmf = PoissonBinomialPmf({});
  ASSERT_EQ(pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf[0], 1.0);
}

TEST(PoissonBinomialPmf, SingleBernoulli) {
  const std::vector<double> pmf = PoissonBinomialPmf({0.3});
  ASSERT_EQ(pmf.size(), 2u);
  EXPECT_DOUBLE_EQ(pmf[0], 0.7);
  EXPECT_DOUBLE_EQ(pmf[1], 0.3);
}

TEST(PoissonBinomialPmf, MatchesBinomialForEqualProbs) {
  // n=6, p=0.5: pmf[k] = C(6,k)/64.
  const std::vector<double> pmf =
      PoissonBinomialPmf(std::vector<double>(6, 0.5));
  const double kBinomial[] = {1, 6, 15, 20, 15, 6, 1};
  ASSERT_EQ(pmf.size(), 7u);
  for (int k = 0; k <= 6; ++k) {
    EXPECT_NEAR(pmf[k], kBinomial[k] / 64.0, 1e-12) << k;
  }
}

TEST(PoissonBinomialPmf, SumsToOne) {
  const std::vector<double> probs = {0.9, 0.6, 0.7, 0.9, 0.05, 1.0, 0.33};
  double total = 0.0;
  for (double mass : PoissonBinomialPmf(probs)) total += mass;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PoissonBinomialPmf, DeterministicEntries) {
  // With p = 1 entries the sum shifts deterministically.
  const std::vector<double> pmf = PoissonBinomialPmf({1.0, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(pmf[0], 0.0);
  EXPECT_DOUBLE_EQ(pmf[1], 0.0);
  EXPECT_DOUBLE_EQ(pmf[2], 0.5);
  EXPECT_DOUBLE_EQ(pmf[3], 0.5);
}

TEST(PoissonBinomialTail, ThresholdZeroIsOne) {
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({}, 0), 1.0);
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({0.2, 0.4}, 0), 1.0);
}

TEST(PoissonBinomialTail, ThresholdAboveNIsZero) {
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({0.9, 0.9}, 3), 0.0);
  EXPECT_DOUBLE_EQ(PoissonBinomialTailAtLeast({}, 1), 0.0);
}

TEST(PoissonBinomialTail, PaperExampleValue) {
  // Pr{S >= 2} over (.9,.6,.7,.9) = 0.9726 (paper Example 1.2 support
  // distribution of {abc}).
  EXPECT_NEAR(PoissonBinomialTailAtLeast({0.9, 0.6, 0.7, 0.9}, 2), 0.9726,
              1e-12);
}

class TailVsPmf : public ::testing::TestWithParam<int> {};

TEST_P(TailVsPmf, TruncatedDpMatchesFullPmf) {
  // Property: for random prob vectors, the truncated tail DP agrees with
  // the full pmf's suffix sums at every threshold.
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.NextBelow(12);
  std::vector<double> probs(n);
  for (double& p : probs) p = rng.NextDouble();
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  for (std::size_t s = 0; s <= n + 1; ++s) {
    double suffix = 0.0;
    for (std::size_t k = s; k <= n; ++k) suffix += pmf[k];
    EXPECT_NEAR(PoissonBinomialTailAtLeast(probs, s), suffix, 1e-12)
        << "n=" << n << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, TailVsPmf, ::testing::Range(0, 40));

TEST(PoissonBinomialMoments, MeanAndVariance) {
  const std::vector<double> probs = {0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(PoissonBinomialMean(probs), 1.5);
  EXPECT_NEAR(PoissonBinomialVariance(probs), 0.09 + 0.25 + 0.09, 1e-12);
}

TEST(PoissonBinomialTail, MonotoneInThreshold) {
  const std::vector<double> probs = {0.3, 0.8, 0.5, 0.6, 0.2};
  double previous = 1.0;
  for (std::size_t s = 0; s <= probs.size(); ++s) {
    const double tail = PoissonBinomialTailAtLeast(probs, s);
    EXPECT_LE(tail, previous + 1e-15);
    previous = tail;
  }
}

TEST(PoissonBinomialTail, MonotoneInProbabilities) {
  // Increasing any p_i cannot decrease the tail.
  const std::vector<double> base = {0.3, 0.4, 0.5, 0.6};
  const double before = PoissonBinomialTailAtLeast(base, 2);
  std::vector<double> bumped = base;
  bumped[0] = 0.9;
  EXPECT_GE(PoissonBinomialTailAtLeast(bumped, 2), before);
}

/// ---- The DP kernels are bit-identical on every ISA variant ----

void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " [" << i << "]: " << want[i] << " vs " << got[i];
  }
}

/// Every entry point of `kernels` equals the baseline's bits on `probs`
/// at each threshold in `thresholds`.
void ExpectVariantMatchesBaseline(
    const internal::PoissonBinomialKernels& kernels,
    const std::vector<double>& probs,
    const std::vector<std::size_t>& thresholds, const std::string& label) {
  const internal::PoissonBinomialKernels& baseline =
      internal::RunnablePoissonBinomialKernels().back();
  const std::string what =
      std::string(kernels.isa) + " " + label + " n=" +
      std::to_string(probs.size());
  std::vector<double> want;
  std::vector<double> got;
  std::vector<double> dp;
  baseline.pmf(probs.data(), probs.size(), &want);
  kernels.pmf(probs.data(), probs.size(), &got);
  ExpectSameBits(want, got, what + " pmf");
  for (std::size_t t : thresholds) {
    const std::string at = what + " t=" + std::to_string(t);
    ExpectSameBits(
        {baseline.tail_at_least(probs.data(), probs.size(), t, &dp)},
        {kernels.tail_at_least(probs.data(), probs.size(), t, &dp)},
        at + " tail");
    baseline.tail_table(probs.data(), probs.size(), t, &dp, &want);
    kernels.tail_table(probs.data(), probs.size(), t, &dp, &got);
    ExpectSameBits(want, got, at + " table");
  }
}

TEST(PoissonBinomial, KernelsAgreeBitwiseOnEveryIsa) {
  const auto variants = internal::RunnablePoissonBinomialKernels();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(std::string(variants.back().isa), "baseline");

  std::vector<std::pair<std::string, std::vector<double>>> cases;
  // Gaussian probabilities (clamped to [0, 1]) up to n = 4096, and many
  // small instances.
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.NextBelow(seed <= 6 ? 4096 : 300);
    const double mean = rng.NextDouble();
    std::vector<double> probs(n);
    for (double& p : probs) {
      p = std::clamp(rng.NextGaussian(mean, 0.25), 0.0, 1.0);
    }
    cases.emplace_back("gaussian seed=" + std::to_string(seed), probs);
  }
  // Certain and impossible transactions mixed with ordinary ones.
  {
    Rng rng(71);
    std::vector<double> probs(257);
    for (double& p : probs) {
      const double u = rng.NextDouble();
      p = u < 0.3 ? 0.0 : u < 0.6 ? 1.0 : rng.NextDouble();
    }
    cases.emplace_back("zeros and ones", probs);
    cases.emplace_back("all ones", std::vector<double>(100, 1.0));
    cases.emplace_back("all zeros", std::vector<double>(100, 0.0));
  }
  // Subnormal probabilities down to the smallest positive double.
  {
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> probs = {tiny, 0.5, 1e-310, 0.25, tiny * 3,
                                 0.9, 2.2e-308, 0.75, 1e-320};
    for (int i = 0; i < 40; ++i) probs.push_back(i % 2 ? tiny : 0.5);
    cases.emplace_back("subnormal", probs);
  }
  // Low cells that underflow to exact zero: 1 - p = 2^-53 drives the
  // bottom states below the subnormal range within ~21 items, so the
  // kernels run with a growing lower band of exact zeros.
  {
    const double near_one = 1.0 - std::ldexp(1.0, -53);
    std::vector<double> probs(120, near_one);
    cases.emplace_back("underflow", probs);
    for (std::size_t i = 0; i < probs.size(); i += 7) probs[i] = 0.5;
    cases.emplace_back("underflow mixed", probs);
    std::vector<double> ones_first(60, 1.0);
    ones_first.resize(200, 0.3);
    cases.emplace_back("ones then 0.3", ones_first);
  }

  for (const auto& [label, probs] : cases) {
    const std::size_t n = probs.size();
    Rng rng(n);
    std::vector<std::size_t> thresholds = {0, 1, n, n + 1};
    for (int k = 0; k < 3; ++k) thresholds.push_back(1 + rng.NextBelow(n));
    for (const internal::PoissonBinomialKernels& kernels : variants) {
      ExpectVariantMatchesBaseline(kernels, probs, thresholds, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (n > 128) continue;
    // The table replays each direct run: table[t] == TailAtLeast(t).
    for (const internal::PoissonBinomialKernels& kernels : variants) {
      std::vector<double> dp;
      std::vector<double> table;
      kernels.tail_table(probs.data(), n, n + 1, &dp, &table);
      for (std::size_t t = 0; t <= n + 1; ++t) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(table[t]),
                  std::bit_cast<std::uint64_t>(
                      kernels.tail_at_least(probs.data(), n, t, &dp)))
            << kernels.isa << " " << label << " t=" << t;
      }
    }
  }
}

TEST(PoissonBinomial, TailIsPinned) {
  // Values captured on the scalar DP before the ISA variants existed.
  // Fusing the DP's multiply-add into an FMA changes every one of them,
  // so this fails if poisson_binomial.cc loses -ffp-contract=off.
  struct Pinned {
    std::uint64_t seed;  // n in [1, 400], threshold in [1, n], uniform p
    std::size_t n;
    std::size_t threshold;
    double tail;        // PoissonBinomialTailAtLeast(probs, threshold)
    double half_table;  // PoissonBinomialTailTable(...)[threshold / 2]
    double pmf;         // PoissonBinomialPmf(probs)[threshold]
  };
  const Pinned kPinned[] = {
      {1, 188, 50, 0x1.fffffffffef79p-1, 0x1.ffffffffffffep-1,
       0x1.6f401256232bdp-40},
      {20, 225, 112, 0x1.b9664272ad7f3p-2, 0x1.0000000000003p+0,
       0x1.02d8c97491338p-4},
      {22, 272, 16, 0x1.ffffffffffffcp-1, 0x1p+0, 0x1.b6f2a81f74b35p-262},
      {25, 361, 337, 0x1.ce7e38f566ae5p-348, 0x1.e4cbe46be47e8p-1,
       0x1.c3f6f9487b607p-348},
  };
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE("seed " + std::to_string(pinned.seed));
    Rng rng(pinned.seed);
    const std::size_t n = 1 + rng.NextBelow(400);
    const std::size_t threshold = 1 + rng.NextBelow(n);
    ASSERT_EQ(n, pinned.n);
    ASSERT_EQ(threshold, pinned.threshold);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.NextDouble();
    const std::vector<double> table =
        PoissonBinomialTailTable(probs, threshold);
    ExpectSameBits({pinned.tail, pinned.half_table, pinned.tail, pinned.pmf},
                   {PoissonBinomialTailAtLeast(probs, threshold),
                    table[threshold / 2], table[threshold],
                    PoissonBinomialPmf(probs)[threshold]},
                   "pinned");
  }
  // Thirty near-certain items underflow the bottom states to exact zero
  // (the lower band the kernels skip) with subnormal mass right above it.
  std::vector<double> probs(30, 1.0 - std::ldexp(1.0, -40));
  probs.resize(60, 0.5);
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  ExpectSameBits({0.0, 0x0.000000006b0dp-1022, 0x1.1655000000d56p-1013,
                  0x1.fffffff7fffffp-1, 0x1.fffffff7fffffp-1},
                 {pmf[3], pmf[4], pmf[5], PoissonBinomialTailAtLeast(probs, 31),
                  PoissonBinomialTailTable(probs, 45)[31]},
                 "lower band");
}

/// Every value of the band t_lo..t_hi from `kernels` equals a direct run
/// at its threshold, on this variant and on the baseline.
void ExpectBandReplaysDirectRuns(
    const internal::PoissonBinomialKernels& kernels,
    const std::vector<double>& probs, std::size_t t_lo, std::size_t t_hi,
    const std::string& label) {
  const internal::PoissonBinomialKernels& baseline =
      internal::RunnablePoissonBinomialKernels().back();
  const std::size_t n = probs.size();
  std::vector<double> dp;
  std::vector<double> band;
  kernels.tail_band(probs.data(), n, t_lo, t_hi, &dp, &band);
  ASSERT_EQ(band.size(), t_hi - t_lo + 1);
  std::vector<double> want;
  for (std::size_t t = t_lo; t <= t_hi; ++t) {
    want.push_back(kernels.tail_at_least(probs.data(), n, t, &dp));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want.back()),
              std::bit_cast<std::uint64_t>(
                  baseline.tail_at_least(probs.data(), n, t, &dp)))
        << kernels.isa << " " << label << " direct t=" << t;
  }
  ExpectSameBits(want, band,
                 std::string(kernels.isa) + " " + label + " band " +
                     std::to_string(t_lo) + ".." + std::to_string(t_hi));
}

TEST(PoissonBinomial, BandsReplayDirectRunsOnEveryIsa) {
  std::vector<std::pair<std::string, std::vector<double>>> cases;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.NextBelow(300);
    const double mean = rng.NextDouble();
    std::vector<double> probs(n);
    for (double& p : probs) {
      p = std::clamp(rng.NextGaussian(mean, 0.25), 0.0, 1.0);
    }
    cases.emplace_back("gaussian seed=" + std::to_string(seed), probs);
  }
  cases.emplace_back("all ones", std::vector<double>(100, 1.0));
  {
    // Bottom states underflow to exact zero while the cut raises the
    // band from below: both lower limits act on one row.
    std::vector<double> probs(120, 1.0 - std::ldexp(1.0, -53));
    for (std::size_t i = 0; i < probs.size(); i += 7) probs[i] = 0.5;
    cases.emplace_back("underflow", probs);
  }
  for (const auto& [label, probs] : cases) {
    const std::size_t n = probs.size();
    Rng rng(n);
    const std::size_t a = 1 + rng.NextBelow(n);
    const std::size_t b = 1 + rng.NextBelow(n);
    const std::vector<std::pair<std::size_t, std::size_t>> bands = {
        {1, 1},          {n / 2, n / 2},         {n - 1, n - 1},
        {n, n},          {n + 1, n + 1},         {1, n},
        {0, n + 1},      {n - 1, n},             {n + 1, n + 3},
        {n * 8 / 10, n * 9 / 10}, {std::min(a, b), std::max(a, b)},
    };
    for (const internal::PoissonBinomialKernels& kernels :
         internal::RunnablePoissonBinomialKernels()) {
      for (const auto& [t_lo, t_hi] : bands) {
        ExpectBandReplaysDirectRuns(kernels, probs, t_lo, t_hi, label);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // The band 1..T is the old table 1..T.
      std::vector<double> dp;
      std::vector<double> table;
      std::vector<double> band;
      kernels.tail_table(probs.data(), n, n, &dp, &table);
      kernels.tail_band(probs.data(), n, 1, n, &dp, &band);
      ExpectSameBits(std::vector<double>(table.begin() + 1, table.end()),
                     band, std::string(kernels.isa) + " " + label + " 1..n");
    }
  }
}

TEST(PoissonBinomial, CutTailIsPinned) {
  // Direct tails at thresholds near n, where the dead-state cut skips
  // most of the DP. Values captured before the cut existed.
  struct Pinned {
    std::uint64_t seed;  // n in [1, 400], p uniform in [0.5, 1)
    std::size_t n;
    double at_nine_tenths;  // PoissonBinomialTailAtLeast(probs, 9n/10)
    double at_n_minus_1;
    double at_n;
  };
  const Pinned kPinned[] = {
      {3, 138, 0x1.0154bf0482cap-21, 0x1.3236155d70088p-60,
       0x1.4ccff21fc243dp-66},
      {5, 159, 0x1.3eaf5acbe1258p-20, 0x1.1a21d983a859p-63,
       0x1.2643da5f2c859p-69},
      {8, 347, 0x1.0e662a0a71596p-45, 0x1.bae39d919f7ecp-151,
       0x1.98d2be5773d07p-158},
      {13, 88, 0x1.39b935b106935p-11, 0x1.3b9009261fd8ep-32,
       0x1.33f2fb0ef10d7p-37},
  };
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE("seed " + std::to_string(pinned.seed));
    Rng rng(pinned.seed);
    const std::size_t n = 1 + rng.NextBelow(400);
    ASSERT_EQ(n, pinned.n);
    std::vector<double> probs(n);
    for (double& p : probs) p = 0.5 + 0.5 * rng.NextDouble();
    ExpectSameBits({pinned.at_nine_tenths, pinned.at_n_minus_1, pinned.at_n},
                   {PoissonBinomialTailAtLeast(probs, n * 9 / 10),
                    PoissonBinomialTailAtLeast(probs, n - 1),
                    PoissonBinomialTailAtLeast(probs, n)},
                   "cut");
  }
  // The lower-band instance of TailIsPinned near n: the underflowing
  // bottom states and the cut both bound the band.
  std::vector<double> probs(30, 1.0 - std::ldexp(1.0, -40));
  probs.resize(60, 0.5);
  ExpectSameBits({0x1.54b27fffdf621p-13, 0x1.efffffffc7cp-26,
                  0x1.ffffffffc4p-31},
                 {PoissonBinomialTailAtLeast(probs, 55),
                  PoissonBinomialTailAtLeast(probs, 59),
                  PoissonBinomialTailAtLeast(probs, 60)},
                 "cut lower band");
  const std::vector<double> ones(100, 1.0);
  ExpectSameBits({1.0, 1.0},
                 {PoissonBinomialTailAtLeast(ones, 99),
                  PoissonBinomialTailAtLeast(ones, 100)},
                 "all ones");
}

}  // namespace
}  // namespace pfci
