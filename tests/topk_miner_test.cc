// Tests for the top-k PFCI miner extension (Algorithm::kTopK).
#include <algorithm>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/harness/dataset_factory.h"
#include "src/util/random.h"

namespace pfci {
namespace {

MiningParams BaseParams(std::size_t min_sup) {
  MiningParams params;
  params.min_sup = min_sup;
  params.pfct = 0.0;
  params.exact_event_limit = 25;
  return params;
}

// Top-k runs go through the Mine() front door.
MiningResult MineTopK(const UncertainDatabase& db, const MiningParams& params,
                      std::size_t k) {
  MiningRequest request;
  request.algorithm = Algorithm::kTopK;
  request.params = params;
  request.top_k = k;
  return Mine(db, request);
}

TEST(TopkMiner, PaperExampleTopTwo) {
  const UncertainDatabase db = MakePaperExampleDb();
  const MiningResult result = MineTopK(db, BaseParams(2), 2);
  ASSERT_EQ(result.itemsets.size(), 2u);
  // Descending FCP: {abc} 0.8754, then {abcd} 0.81.
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0, 1, 2}));
  EXPECT_NEAR(result.itemsets[0].fcp, 0.8754, 1e-9);
  EXPECT_EQ(result.itemsets[1].items, (Itemset{0, 1, 2, 3}));
  EXPECT_NEAR(result.itemsets[1].fcp, 0.81, 1e-9);
}

TEST(TopkMiner, KLargerThanAnswerReturnsAll) {
  const UncertainDatabase db = MakePaperExampleDb();
  const MiningResult result = MineTopK(db, BaseParams(2), 50);
  // Only two itemsets have positive FCP at min_sup 2.
  EXPECT_EQ(result.itemsets.size(), 2u);
}

TEST(TopkMiner, FloorThresholdRespected) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningParams params = BaseParams(2);
  params.pfct = 0.85;  // Only {abc} exceeds this.
  const MiningResult result = MineTopK(db, params, 5);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0, 1, 2}));
}

TEST(TopkMiner, MatchesBruteForceRankingOnRandomDbs) {
  Rng rng(2468);
  for (int trial = 0; trial < 12; ++trial) {
    UncertainDatabase db;
    const std::size_t n = 6 + rng.NextBelow(4);
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<Item> items;
      for (Item i = 0; i < 5; ++i) {
        if (rng.NextBernoulli(0.55)) items.push_back(i);
      }
      if (items.empty()) items.push_back(0);
      db.Add(Itemset(std::move(items)), 0.1 + 0.9 * rng.NextDouble());
    }
    const std::size_t min_sup = 1 + rng.NextBelow(2);
    const std::size_t k = 1 + rng.NextBelow(4);

    std::vector<FcpGroundTruth> truth = BruteForceAllFcp(db, min_sup);
    std::sort(truth.begin(), truth.end(),
              [](const FcpGroundTruth& a, const FcpGroundTruth& b) {
                if (a.fcp != b.fcp) return a.fcp > b.fcp;
                return a.items < b.items;
              });

    const MiningResult result = MineTopK(db, BaseParams(min_sup), k);
    const std::size_t expected = std::min(k, truth.size());
    ASSERT_EQ(result.itemsets.size(), expected) << "trial=" << trial;
    for (std::size_t i = 0; i < expected; ++i) {
      // FCP values must match the i-th best exactly (ties may permute the
      // itemsets, so compare the probability, not the identity).
      EXPECT_NEAR(result.itemsets[i].fcp, truth[i].fcp, 1e-9)
          << "trial=" << trial << " i=" << i;
    }
  }
}

// Two itemsets with *bit-identical* FCP straddling the k boundary:
// PrFC({0}) = P(T1) = 0.5 and PrFC({0,1}) = P(T2) = 0.5 exactly in IEEE
// arithmetic. The DFS emits in post-order, so {0,1} arrives at the heap
// before the lexicographically smaller {0}; the k-boundary tie-break must
// still pick the itemset the final sort ranks first.
UncertainDatabase MakeTieDb() {
  UncertainDatabase db;
  db.Add(Itemset{0}, 0.5);
  db.Add(Itemset{0, 1}, 0.5);
  return db;
}

TEST(TopkMiner, ExactTieAtKBoundaryPicksLexSmallerItemset) {
  const UncertainDatabase db = MakeTieDb();
  const MiningResult result = MineTopK(db, BaseParams(1), 1);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0}))
      << "k-boundary tie must resolve by itemset order, not arrival order";
  EXPECT_NEAR(result.itemsets[0].fcp, 0.5, 1e-12);
}

TEST(TopkMiner, ExactTieWithRoomForBothKeepsBothRanked) {
  const UncertainDatabase db = MakeTieDb();
  const MiningResult result = MineTopK(db, BaseParams(1), 2);
  ASSERT_EQ(result.itemsets.size(), 2u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0}));
  EXPECT_EQ(result.itemsets[1].items, (Itemset{0, 1}));
  EXPECT_EQ(result.itemsets[0].fcp, result.itemsets[1].fcp);
}

TEST(TopkMiner, TieBreakInvariantUnderItemRelabeling) {
  // Mirror database: the same structure with the singleton now being the
  // lexicographically *larger* branch ({1} vs {0,1}); the boundary entry
  // must again be the lex-smaller itemset regardless of DFS order.
  UncertainDatabase db;
  db.Add(Itemset{1}, 0.5);
  db.Add(Itemset{0, 1}, 0.5);
  const MiningResult result = MineTopK(db, BaseParams(1), 1);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(result.itemsets[0].items, (Itemset{0, 1}));
}

TEST(TopkMiner, KZeroIsRejected) {
  const UncertainDatabase db = MakeTieDb();
  // k = 0 is error-as-data, never an abort.
  const MiningResult result = MineTopK(db, BaseParams(1), 0);
  EXPECT_EQ(result.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(result.status_message.find("top_k must be >= 1"),
            std::string::npos)
      << result.status_message;
  EXPECT_TRUE(result.itemsets.empty());
}

TEST(TopkMiner, ConsistentWithThresholdMiner) {
  const UncertainDatabase db = MakeUncertainQuest(BenchScale::kQuick);
  MiningParams params = BaseParams(AbsoluteMinSup(db.size(), 0.3));
  params.pfct = 0.8;
  MiningRequest threshold_request;
  threshold_request.algorithm = Algorithm::kMpfci;
  threshold_request.params = params;
  const MiningResult threshold_result = Mine(db, threshold_request);
  const std::size_t k = threshold_result.itemsets.size();
  ASSERT_GT(k, 0u);
  // Top-k with floor 0.8 returns exactly the threshold answer, ranked.
  const MiningResult topk = MineTopK(db, params, k + 10);
  ASSERT_EQ(topk.itemsets.size(), k);
  for (const PfciEntry& entry : topk.itemsets) {
    EXPECT_NE(threshold_result.Find(entry.items), nullptr)
        << entry.items.ToString();
  }
  // Ranked descending.
  for (std::size_t i = 1; i < topk.itemsets.size(); ++i) {
    EXPECT_GE(topk.itemsets[i - 1].fcp + 1e-12, topk.itemsets[i].fcp);
  }
}

}  // namespace
}  // namespace pfci
