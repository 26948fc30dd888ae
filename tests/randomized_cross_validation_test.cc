// Randomized property suite: on many random uncertain databases, every
// miner variant must return exactly the brute-force (possible-world
// enumeration) answer, and the per-itemset probabilities must match the
// exact world-sum definitions. This is the strongest correctness guard of
// the repository: any unsound pruning rule, any error in the DNF
// factorization or the DP would surface here.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/fcp_engine.h"
#include "src/core/frequent_probability.h"
#include "src/core/mine.h"
#include "src/data/vertical_index.h"
#include "src/harness/variants.h"
#include "src/util/random.h"

namespace pfci {
namespace {

/// Builds a small random uncertain database: n transactions over
/// `num_items` items, each item kept with probability `density`,
/// transaction probabilities uniform in (0.05, 1].
UncertainDatabase RandomDb(Rng& rng, std::size_t n, std::size_t num_items,
                           double density) {
  UncertainDatabase db;
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<Item> items;
    for (Item i = 0; i < num_items; ++i) {
      if (rng.NextBernoulli(density)) items.push_back(i);
    }
    if (items.empty()) items.push_back(static_cast<Item>(rng.NextBelow(num_items)));
    // Occasionally force a certain transaction (p == 1), an edge case for
    // the event machinery.
    const double prob =
        rng.NextBernoulli(0.1) ? 1.0 : 0.05 + 0.95 * rng.NextDouble();
    db.Add(Itemset(std::move(items)), prob);
  }
  return db;
}

struct TrialConfig {
  std::uint64_t seed;
  std::size_t n;
  std::size_t num_items;
  double density;
  std::size_t min_sup;
  double pfct;
};

class RandomizedTrial : public ::testing::TestWithParam<TrialConfig> {};

TEST_P(RandomizedTrial, AllVariantsMatchBruteForce) {
  const TrialConfig& config = GetParam();
  Rng rng(config.seed);
  const UncertainDatabase db =
      RandomDb(rng, config.n, config.num_items, config.density);

  const std::vector<FcpGroundTruth> truth =
      internal::BruteForceMinePfci(db, config.min_sup, config.pfct);

  MiningParams params;
  params.min_sup = config.min_sup;
  params.pfct = config.pfct;
  // Small instances: the exact inclusion-exclusion path is always taken,
  // so the comparison is noise-free.
  params.exact_event_limit = 25;

  for (AlgorithmVariant variant :
       {AlgorithmVariant::kMpfci, AlgorithmVariant::kNoCh,
        AlgorithmVariant::kNoSuper, AlgorithmVariant::kNoSub,
        AlgorithmVariant::kNoBound, AlgorithmVariant::kBfs}) {
    const MiningResult result = RunVariant(variant, db, params);
    ASSERT_EQ(result.itemsets.size(), truth.size())
        << VariantName(variant) << " seed=" << config.seed << "\n"
        << result.ToString();
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(result.itemsets[i].items, truth[i].items)
          << VariantName(variant) << " seed=" << config.seed;
      EXPECT_NEAR(result.itemsets[i].fcp, truth[i].fcp, 1e-9)
          << VariantName(variant) << " seed=" << config.seed;
    }
  }
}

TEST_P(RandomizedTrial, EngineMatchesPerItemsetGroundTruth) {
  const TrialConfig& config = GetParam();
  Rng rng(config.seed + 77);
  const UncertainDatabase db =
      RandomDb(rng, config.n, config.num_items, config.density);

  MiningParams params;
  params.min_sup = config.min_sup;
  params.pfct = config.pfct;
  params.exact_event_limit = 25;
  const VerticalIndex index(db);
  const FrequentProbability freq(index, params.min_sup);
  const FcpEngine engine(index, freq, params);
  Rng engine_rng(1);

  // Validate PrF and PrFC of every subset of a few random itemsets.
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Item> items;
    for (Item i = 0; i < config.num_items; ++i) {
      if (rng.NextBernoulli(0.4)) items.push_back(i);
    }
    if (items.empty()) items.push_back(0);
    const Itemset x(items);
    const WorldProbabilities truth =
        BruteForceItemsetProbabilities(db, x, config.min_sup);

    const TidSet tids = index.TidsOf(x);
    EXPECT_NEAR(freq.PrF(tids), truth.pr_f, 1e-9) << x.ToString();

    const FcpComputation comp = engine.ComputeFcp(x, engine_rng);
    EXPECT_NEAR(comp.fcp, truth.pr_fc, 1e-9) << x.ToString();
    if (comp.bounds_computed) {
      EXPECT_LE(comp.bounds.lower, truth.pr_fc + 1e-9) << x.ToString();
      EXPECT_GE(comp.bounds.upper, truth.pr_fc - 1e-9) << x.ToString();
    }
  }
}

TEST_P(RandomizedTrial, PfiMinerMatchesBruteForcePrF) {
  const TrialConfig& config = GetParam();
  Rng rng(config.seed + 991);
  const UncertainDatabase db =
      RandomDb(rng, config.n, config.num_items, config.density);

  MiningRequest request;
  request.algorithm = Algorithm::kPfi;
  request.params.min_sup = config.min_sup;
  request.params.pfct = config.pfct;
  const std::vector<PfciEntry> pfis = Mine(db, request).itemsets;
  // Every returned itemset's PrF matches brute force and exceeds pft.
  for (const PfciEntry& entry : pfis) {
    const WorldProbabilities truth =
        BruteForceItemsetProbabilities(db, entry.items, config.min_sup);
    EXPECT_NEAR(entry.pr_f, truth.pr_f, 1e-9);
    EXPECT_GT(truth.pr_f, config.pfct);
  }
  // And the PFCI set (brute force) is contained in the PFI set.
  const std::vector<FcpGroundTruth> pfcis =
      internal::BruteForceMinePfci(db, config.min_sup, config.pfct);
  for (const FcpGroundTruth& pfci : pfcis) {
    bool found = false;
    for (const PfciEntry& entry : pfis) {
      if (entry.items == pfci.items) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << pfci.items.ToString();
  }
}

std::vector<TrialConfig> MakeTrials() {
  std::vector<TrialConfig> trials;
  std::uint64_t seed = 1000;
  for (std::size_t n : {4, 6, 8, 10}) {
    for (double density : {0.35, 0.6, 0.85}) {
      for (std::size_t min_sup : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}}) {
        for (double pfct : {0.3, 0.6}) {
          TrialConfig config;
          config.seed = seed++;
          config.n = n;
          config.num_items = 5;
          config.density = density;
          config.min_sup = min_sup;
          config.pfct = pfct;
          trials.push_back(config);
        }
      }
    }
  }
  return trials;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedTrial,
                         ::testing::ValuesIn(MakeTrials()));

}  // namespace
}  // namespace pfci
