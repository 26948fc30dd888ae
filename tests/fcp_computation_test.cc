// Tests for the three frequent-closed-probability computations: Lemma 4.4
// bounds, exact inclusion-exclusion, and the ApproxFCP sampler — all
// cross-checked against possible-world ground truth and each other.
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/fcp_bounds.h"
#include "src/core/fcp_engine.h"
#include "src/core/fcp_exact.h"
#include "src/core/fcp_sampler.h"
#include "src/harness/dataset_factory.h"
#include "src/util/random.h"

namespace pfci {
namespace {

UncertainDatabase RandomDb(Rng& rng, std::size_t n, std::size_t items,
                           double density) {
  UncertainDatabase db;
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<Item> row;
    for (Item i = 0; i < items; ++i) {
      if (rng.NextBernoulli(density)) row.push_back(i);
    }
    if (row.empty()) row.push_back(static_cast<Item>(rng.NextBelow(items)));
    db.Add(Itemset(std::move(row)), 0.05 + 0.95 * rng.NextDouble());
  }
  return db;
}

TEST(FcpExact, PaperExampleValues) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  {
    const Itemset abc{0, 1, 2};
    const TidSet tids = index.TidsOf(abc);
    const ExtensionEventSet events(index, freq, abc, tids);
    EXPECT_NEAR(ExactFrequentNonClosedProbability(events), 0.0972, 1e-12);
    EXPECT_NEAR(ExactFcpByInclusionExclusion(0.9726, events), 0.8754, 1e-12);
  }
  {
    const Itemset abcd{0, 1, 2, 3};
    const TidSet tids = index.TidsOf(abcd);
    const ExtensionEventSet events(index, freq, abcd, tids);
    EXPECT_EQ(events.size(), 0u);  // Maximal: no extensions.
    EXPECT_DOUBLE_EQ(ExactFrequentNonClosedProbability(events), 0.0);
  }
}

TEST(FcpBounds, NoEventsCollapseToPrF) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  const Itemset abcd{0, 1, 2, 3};
  const TidSet tids = index.TidsOf(abcd);
  const ExtensionEventSet events(index, freq, abcd, tids);
  const FcpBounds bounds = ComputeFcpBounds(0.81, events);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.81);
  EXPECT_DOUBLE_EQ(bounds.upper, 0.81);
}

class FcpCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(FcpCrossCheck, BoundsBracketExactWhichMatchesBruteForce) {
  Rng rng(GetParam() * 7919 + 13);
  const UncertainDatabase db = RandomDb(rng, 7 + rng.NextBelow(4), 5, 0.55);
  const std::size_t min_sup = 1 + rng.NextBelow(3);
  const VerticalIndex index(db);
  const FrequentProbability freq(index, min_sup);

  for (Item a = 0; a < 5; ++a) {
    const Itemset x{a};
    const TidSet tids = index.TidsOf(x);
    if (tids.size() < min_sup) continue;
    const double pr_f = freq.PrF(tids);
    const ExtensionEventSet events(index, freq, x, tids);

    const WorldProbabilities truth =
        BruteForceItemsetProbabilities(db, x, min_sup);
    const double exact = ExactFcpByInclusionExclusion(pr_f, events);
    EXPECT_NEAR(exact, truth.pr_fc, 1e-9) << x.ToString();

    const FcpBounds bounds = ComputeFcpBounds(pr_f, events);
    EXPECT_LE(bounds.lower, truth.pr_fc + 1e-9) << x.ToString();
    EXPECT_GE(bounds.upper, truth.pr_fc - 1e-9) << x.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, FcpCrossCheck,
                         ::testing::Range(0, 30));

TEST(FcpSampler, NoEventsReturnsPrF) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  const Itemset abcd{0, 1, 2, 3};
  const TidSet tids = index.TidsOf(abcd);
  const ExtensionEventSet events(index, freq, abcd, tids);
  Rng rng(1);
  const ApproxFcpResult result = ApproxFcp(0.81, events, 0.1, 0.1, rng);
  EXPECT_DOUBLE_EQ(result.fcp, 0.81);
  EXPECT_EQ(result.samples, 0u);
}

// X = {0} over 200 transactions: Tids(X) spans four 64-bit mask words.
// Item i in 1..5 is missing from the five transactions t with t % 40 == i,
// which are unlikely (p = 0.15), so the five extension events overlap and
// the canonical test both accepts and rejects samples.
UncertainDatabase MultiWordDb() {
  Rng rng(2024);
  UncertainDatabase db;
  for (int t = 0; t < 200; ++t) {
    std::vector<Item> row = {0};
    for (Item i = 1; i <= 5; ++i) {
      if (t % 40 != static_cast<int>(i)) row.push_back(i);
    }
    const double p = t % 40 <= 5 ? 0.15 : 0.5 + 0.4 * rng.NextDouble();
    db.Add(Itemset(std::move(row)), p);
  }
  return db;
}

TEST(FcpSampler, EstimateIsPinned) {
  // The sampled estimate is a pure function of the seed: these literals
  // fix the draw sequence (which rng value decides which indicator, and
  // which double it is compared with) in every tid-set representation.
  const UncertainDatabase db = MultiWordDb();
  for (TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    TidSetPolicy policy;
    policy.mode = mode;
    const VerticalIndex index(db, policy);
    const FrequentProbability freq(index, 100);
    const Itemset x{0};
    const TidSet tids = index.TidsOf(x);
    ASSERT_EQ(tids.size(), 200u);
    const ExtensionEventSet events(index, freq, x, tids);
    ASSERT_EQ(events.size(), 5u);
    Rng rng(7);
    const ApproxFcpResult result =
        ApproxFcp(freq.PrF(tids), events, 0.2, 0.1, rng);
    EXPECT_EQ(result.fnc, 0x1.d61b3deaee67cp-1) << TidSetModeName(mode);
    EXPECT_EQ(result.fcp, 0x1.4f08032610c78p-4) << TidSetModeName(mode);
    EXPECT_EQ(result.samples, 1498u) << TidSetModeName(mode);
    EXPECT_EQ(result.successes, 620u) << TidSetModeName(mode);
  }
}

TEST(FcpSampler, ConvergesToExactOnPaperExample) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  const Itemset abc{0, 1, 2};
  const TidSet tids = index.TidsOf(abc);
  const ExtensionEventSet events(index, freq, abc, tids);
  Rng rng(42);
  // Tight epsilon/delta: estimate must be very close to 0.8754.
  const ApproxFcpResult result = ApproxFcp(0.9726, events, 0.02, 0.02, rng);
  EXPECT_NEAR(result.fcp, 0.8754, 0.01);
  EXPECT_NEAR(result.fnc, 0.0972, 0.01);
  EXPECT_GT(result.samples, 1000u);
}

TEST_P(FcpCrossCheck, SamplerWithinToleranceOfExact) {
  Rng rng(GetParam() * 104729 + 7);
  const UncertainDatabase db = RandomDb(rng, 8, 5, 0.6);
  const std::size_t min_sup = 1 + rng.NextBelow(2);
  const VerticalIndex index(db);
  const FrequentProbability freq(index, min_sup);

  const Itemset x{0};
  const TidSet tids = index.TidsOf(x);
  if (tids.size() < min_sup) GTEST_SKIP();
  const double pr_f = freq.PrF(tids);
  const ExtensionEventSet events(index, freq, x, tids);
  const double exact_fnc = ExactFrequentNonClosedProbability(events);

  Rng sample_rng(GetParam());
  const ApproxFcpResult result = ApproxFcp(pr_f, events, 0.05, 0.05, sample_rng);
  // FPRAS guarantee is relative error on the union; allow 3x slack for the
  // (0.05) delta across the parameterized sweep.
  EXPECT_NEAR(result.fnc, exact_fnc,
              std::max(0.15 * exact_fnc, 0.01))
      << "events=" << events.size();
}

TEST(FcpEngine, MethodSelection) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.8;
  Rng rng(3);
  {
    // On {abc} there is a single extension event, so the Lemma 4.4 bounds
    // collapse to the exact value and decide by themselves.
    const FcpEngine engine(index, freq, params);
    const FcpComputation comp = engine.ComputeFcp(Itemset{0, 1, 2}, rng);
    EXPECT_EQ(comp.method, FcpMethod::kBoundsDecided);
    EXPECT_NEAR(comp.fcp, 0.8754, 1e-9);
  }
  {
    // With bounds off, the small event count routes to inclusion-exclusion.
    MiningParams no_bounds = params;
    no_bounds.pruning.fcp_bounds = false;
    const FcpEngine engine(index, freq, no_bounds);
    const FcpComputation comp = engine.ComputeFcp(Itemset{0, 1, 2}, rng);
    EXPECT_EQ(comp.method, FcpMethod::kExact);
    EXPECT_NEAR(comp.fcp, 0.8754, 1e-12);
  }
  {
    // force_sampling (and bounds off) -> sampled.
    MiningParams sampling = params;
    sampling.force_sampling = true;
    sampling.pruning.fcp_bounds = false;
    const FcpEngine engine(index, freq, sampling);
    const FcpComputation comp = engine.ComputeFcp(Itemset{0, 1, 2}, rng);
    EXPECT_EQ(comp.method, FcpMethod::kSampled);
    EXPECT_NEAR(comp.fcp, 0.8754, 0.05);
  }
  {
    // Same-count superset -> zero-by-count, no sampling at all.
    const FcpEngine engine(index, freq, params);
    const FcpComputation comp = engine.ComputeFcp(Itemset{0, 1}, rng);
    EXPECT_EQ(comp.method, FcpMethod::kZeroByCount);
    EXPECT_DOUBLE_EQ(comp.fcp, 0.0);
    EXPECT_FALSE(comp.is_pfci);
  }
}

TEST(FcpEngine, EvaluateRespectsPfct) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.8;
  const FcpEngine engine(index, freq, params);
  Rng rng(5);
  MiningStats stats;
  // An itemset whose PrF is below pfct is rejected without any event work.
  const Itemset d{3};
  const TidSet d_tids = index.TidsOf(d);
  const FcpComputation comp =
      engine.Evaluate(d, d_tids, /*pr_f=*/0.5, rng, &stats);
  EXPECT_FALSE(comp.is_pfci);
  EXPECT_EQ(comp.method, FcpMethod::kUndecided);
  EXPECT_EQ(stats.exact_fcp_computations, 0u);
}

TEST(FcpEngine, SampledEstimateClampedIntoBounds) {
  // With bounds on and forced sampling, the reported fcp must lie inside
  // [lower, upper].
  Rng rng(404);
  const UncertainDatabase db = RandomDb(rng, 10, 5, 0.6);
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.0;
  params.force_sampling = true;
  params.epsilon = 0.3;  // Deliberately sloppy sampling.
  params.delta = 0.3;
  const FcpEngine engine(index, freq, params);
  for (Item a = 0; a < 5; ++a) {
    Rng item_rng(a);
    const FcpComputation comp = engine.ComputeFcp(Itemset{a}, item_rng);
    if (comp.bounds_computed && comp.method == FcpMethod::kSampled) {
      EXPECT_GE(comp.fcp, comp.bounds.lower);
      EXPECT_LE(comp.fcp, comp.bounds.upper);
    }
  }
}

}  // namespace
}  // namespace pfci
