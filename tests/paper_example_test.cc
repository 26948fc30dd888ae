// End-to-end validation against the paper's running example (Tables I-III,
// Examples 1.2 and 4.3): the uncertain database {T1 abcd .9, T2 abc .6,
// T3 abc .7, T4 abcd .9} with min_sup = 2 and pfct = 0.8 must yield exactly
// {abc} (PrFC = 0.8754) and {abcd} (PrFC = 0.81).
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/core/probabilistic_support.h"
#include "src/harness/dataset_factory.h"
#include "src/harness/variants.h"

namespace pfci {
namespace {

const Itemset kAbc{0, 1, 2};
const Itemset kAbcd{0, 1, 2, 3};

MiningParams PaperParams() {
  MiningParams params;
  params.min_sup = 2;
  params.pfct = 0.8;
  return params;
}

// Paper-example runs go through the Mine() front door.
MiningResult MineWith(Algorithm algorithm, const UncertainDatabase& db,
                      const MiningParams& params) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params = params;
  return Mine(db, request);
}

TEST(PaperExample, BruteForceFrequentClosedProbabilities) {
  const UncertainDatabase db = MakePaperExampleDb();
  const WorldProbabilities abc =
      BruteForceItemsetProbabilities(db, kAbc, 2);
  // PrF(abc) = 1 - Pr{S=0} - Pr{S=1} over (.9,.6,.7,.9) = 0.9726.
  EXPECT_NEAR(abc.pr_f, 0.9726, 1e-12);
  // PrFC(abc) = PrF - Pr{T2,T3 absent} * Pr{T1,T4 present} = 0.9726 - .12*.81.
  EXPECT_NEAR(abc.pr_fc, 0.8754, 1e-12);

  const WorldProbabilities abcd =
      BruteForceItemsetProbabilities(db, kAbcd, 2);
  EXPECT_NEAR(abcd.pr_f, 0.81, 1e-12);
  // abcd is maximal, so frequent implies closed.
  EXPECT_NEAR(abcd.pr_fc, 0.81, 1e-12);
}

TEST(PaperExample, AllOtherItemsetsHaveZeroFcp) {
  const UncertainDatabase db = MakePaperExampleDb();
  const std::vector<FcpGroundTruth> all = BruteForceAllFcp(db, 2);
  // Only {abc} and {abcd} are ever frequent closed in any world.
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].items, kAbc);
  EXPECT_NEAR(all[0].fcp, 0.8754, 1e-12);
  EXPECT_EQ(all[1].items, kAbcd);
  EXPECT_NEAR(all[1].fcp, 0.81, 1e-12);
}

TEST(PaperExample, MpfciFindsExactlyTheTwoItemsets) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningResult result = MineWith(Algorithm::kMpfci, db, PaperParams());
  ASSERT_EQ(result.itemsets.size(), 2u);
  EXPECT_EQ(result.itemsets[0].items, kAbc);
  EXPECT_NEAR(result.itemsets[0].fcp, 0.8754, 1e-9);
  EXPECT_EQ(result.itemsets[1].items, kAbcd);
  EXPECT_NEAR(result.itemsets[1].fcp, 0.81, 1e-9);
}

TEST(PaperExample, EveryVariantReturnsTheSameItemsets) {
  const UncertainDatabase db = MakePaperExampleDb();
  const MiningParams params = PaperParams();
  const MiningResult reference = MineWith(Algorithm::kMpfci, db, params);
  for (AlgorithmVariant variant :
       {AlgorithmVariant::kNoCh, AlgorithmVariant::kNoSuper,
        AlgorithmVariant::kNoSub, AlgorithmVariant::kNoBound,
        AlgorithmVariant::kBfs, AlgorithmVariant::kNaive}) {
    const MiningResult result = RunVariant(variant, db, params);
    ASSERT_EQ(result.itemsets.size(), reference.itemsets.size())
        << VariantName(variant);
    for (std::size_t i = 0; i < result.itemsets.size(); ++i) {
      EXPECT_EQ(result.itemsets[i].items, reference.itemsets[i].items)
          << VariantName(variant);
      EXPECT_NEAR(result.itemsets[i].fcp, reference.itemsets[i].fcp, 0.05)
          << VariantName(variant);
    }
  }
}

TEST(PaperExample, ResultStableAcrossPfct) {
  // Sec. II: "no matter how the probabilistic frequent threshold changes,
  // our approach always returns {abc} and {abcd}" (on Table IV's database,
  // for pfct in {0.8, 0.9} with min_sup = 2... the returned sets' FCPs are
  // threshold-independent quantities).
  const UncertainDatabase db = MakeTable4Db();
  for (double pfct : {0.8, 0.75, 0.7}) {
    MiningParams params = PaperParams();
    params.pfct = pfct;
    const MiningResult result = MineWith(Algorithm::kMpfci, db, params);
    for (const PfciEntry& entry : result.itemsets) {
      const WorldProbabilities truth =
          BruteForceItemsetProbabilities(db, entry.items, 2);
      EXPECT_NEAR(entry.fcp, truth.pr_fc, 1e-9) << entry.items.ToString(true);
      EXPECT_GT(truth.pr_fc, pfct);
    }
    // The result must be exactly the brute-force answer.
    const std::vector<FcpGroundTruth> truth_set =
        internal::BruteForceMinePfci(db, 2, pfct);
    ASSERT_EQ(result.itemsets.size(), truth_set.size()) << "pfct=" << pfct;
    for (std::size_t i = 0; i < truth_set.size(); ++i) {
      EXPECT_EQ(result.itemsets[i].items, truth_set[i].items);
    }
  }
}

TEST(PaperExample, Table4SemanticContrastWithPsup) {
  // Under [34]'s probabilistic-support semantics the answer *changes* with
  // pft on Table IV's database — the instability the paper criticizes.
  // Under ours, {a} and {ab} are never in the answer (their FCP is small).
  const UncertainDatabase db = MakeTable4Db();
  const WorldProbabilities a =
      BruteForceItemsetProbabilities(db, Itemset{0}, 2);
  const WorldProbabilities ab =
      BruteForceItemsetProbabilities(db, Itemset{0, 1}, 2);
  EXPECT_LT(a.pr_fc, 0.5);
  EXPECT_LT(ab.pr_fc, 0.5);

  const std::vector<PsupEntry> high = MinePsupClosed(db, 2, 0.9);
  const std::vector<PsupEntry> low = MinePsupClosed(db, 2, 0.8);
  // The [34] result set varies between the two thresholds even though the
  // frequentness of the affected itemsets does not.
  EXPECT_NE(high, low);
}

TEST(PaperExample, ProbabilisticSupportValues) {
  const UncertainDatabase db = MakePaperExampleDb();
  // psup({abcd}) at pft=0.8: Pr{S>=2} = 0.81 >= 0.8, Pr{S>=1} = 0.99.
  EXPECT_EQ(ProbabilisticSupport(db, kAbcd, 0.8), 2u);
  EXPECT_EQ(ProbabilisticSupport(db, kAbcd, 0.9), 1u);
}

}  // namespace
}  // namespace pfci
