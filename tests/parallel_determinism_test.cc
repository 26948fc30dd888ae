// Parallel determinism: with execution.deterministic (the default),
// Mine() must produce bit-identical results — items, pr_f, and *sampled*
// fcp values included — for every thread count. See DESIGN.md §7 for the
// seed-derivation and in-order-merge scheme that makes this hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace pfci {
namespace {

/// A small-but-not-trivial Quest dataset: large enough that the DFS has
/// many first-level subtrees to schedule and the sampler actually runs.
UncertainDatabase MakeTestDb(std::uint64_t seed) {
  QuestParams quest;
  quest.num_transactions = 120;
  quest.avg_transaction_length = 8.0;
  quest.avg_pattern_length = 4.0;
  quest.num_items = 24;
  quest.num_patterns = 12;
  quest.seed = seed;
  GaussianAssignerParams assign;
  assign.mean = 0.8;
  assign.spread = 0.1;
  assign.seed = seed + 1;
  return AssignGaussianProbabilities(GenerateQuest(quest), assign);
}

/// The telemetry counters are part of the determinism contract: after the
/// in-order merge they must be identical for every thread count and tid
/// set representation. Wall-clock fields (seconds, *_seconds) are the
/// only MiningStats members exempt.
void ExpectIdenticalStats(const MiningStats& a, const MiningStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.pruned_by_chernoff, b.pruned_by_chernoff);
  EXPECT_EQ(a.pruned_by_frequency, b.pruned_by_frequency);
  EXPECT_EQ(a.pruned_by_superset, b.pruned_by_superset);
  EXPECT_EQ(a.pruned_by_subset, b.pruned_by_subset);
  EXPECT_EQ(a.decided_by_bounds, b.decided_by_bounds);
  EXPECT_EQ(a.zero_by_count, b.zero_by_count);
  EXPECT_EQ(a.exact_fcp_computations, b.exact_fcp_computations);
  EXPECT_EQ(a.sampled_fcp_computations, b.sampled_fcp_computations);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.dp_runs, b.dp_runs);
  EXPECT_EQ(a.intersections, b.intersections);
  EXPECT_EQ(a.degraded_fcp_evals, b.degraded_fcp_evals);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// Exact equality across every reported field — the contract is
/// bit-identical, not merely close.
void ExpectIdentical(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    EXPECT_EQ(a.itemsets[i].items, b.itemsets[i].items);
    EXPECT_EQ(a.itemsets[i].fcp, b.itemsets[i].fcp);
    EXPECT_EQ(a.itemsets[i].pr_f, b.itemsets[i].pr_f);
    EXPECT_EQ(a.itemsets[i].fcp_lower, b.itemsets[i].fcp_lower);
    EXPECT_EQ(a.itemsets[i].fcp_upper, b.itemsets[i].fcp_upper);
    EXPECT_EQ(a.itemsets[i].method, b.itemsets[i].method);
  }
  ExpectIdenticalStats(a.stats, b.stats);
}

MiningResult MineWithThreads(const UncertainDatabase& db,
                             const MiningRequest& base,
                             std::size_t num_threads) {
  MiningRequest request = base;
  request.execution.num_threads = num_threads;
  return Mine(db, request);
}

class ParallelDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParallelDeterminismTest, MpfciIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  const MiningResult one = MineWithThreads(db, request, 1);
  EXPECT_FALSE(one.itemsets.empty());
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, MpfciSampledPathIdenticalAcrossThreadCounts) {
  // Force the Karp-Luby sampler on every FCP computation: this is the
  // path where per-batch RNG streams and in-order reduction carry the
  // whole determinism guarantee.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  // Loose tolerances: the determinism contract is independent of the
  // sample count, and tight ones make this test dominate the suite.
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult one = MineWithThreads(db, request, 1);
  EXPECT_FALSE(one.itemsets.empty());
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, BfsIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kMpfciBfs;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  const MiningResult one = MineWithThreads(db, request, 1);
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, NaiveIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kNaive;
  request.params.min_sup = 10;
  request.params.pfct = 0.4;
  request.params.seed = GetParam();
  // Loose tolerances, as above: Naive samples every PFI.
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult one = MineWithThreads(db, request, 1);
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, TopKIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kTopK;
  request.top_k = 5;
  request.params.min_sup = 8;
  request.params.pfct = 0.0;
  request.params.seed = GetParam();
  const MiningResult one = MineWithThreads(db, request, 1);
  ExpectIdentical(one, MineWithThreads(db, request, 2));
  ExpectIdentical(one, MineWithThreads(db, request, 8));
}

TEST_P(ParallelDeterminismTest, MpfciIdenticalAcrossTidSetModes) {
  // The representation contract: forcing sparse-only or dense-only tid
  // sets changes memory layout and op kernels, never the mined result —
  // bit-identical itemsets, probabilities, and bounds at every thread
  // count, against the adaptive single-thread baseline.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.params.tidset_mode = TidSetMode::kAdaptive;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_FALSE(baseline.itemsets.empty());
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(ParallelDeterminismTest, SampledPathIdenticalAcrossTidSetModes) {
  // Same contract on the Karp-Luby sampled path: the sampler's RNG
  // streams must be untouched by the representation choice.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.params.force_sampling = true;
  request.params.exact_event_limit = 0;
  request.params.pruning.fcp_bounds = false;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_FALSE(baseline.itemsets.empty());
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(ParallelDeterminismTest, NaiveIdenticalAcrossTidSetModes) {
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.algorithm = Algorithm::kNaive;
  request.params.min_sup = 10;
  request.params.pfct = 0.4;
  request.params.seed = GetParam();
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    SCOPED_TRACE(TidSetModeName(mode));
    ExpectIdentical(baseline, MineWithThreads(db, request, 2));
  }
}

TEST_P(ParallelDeterminismTest, NodeBudgetTruncationIdenticalEverywhere) {
  // The determinism contract extends to interrupted runs: a logical node
  // budget cuts the search at a point that is a pure function of the
  // request, so the partial result — entries, sampled fcp values, and
  // counters — is bit-identical across thread counts and tid-set modes.
  const UncertainDatabase db = MakeTestDb(GetParam());
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  const MiningResult full = MineWithThreads(db, request, 1);
  ASSERT_GT(full.stats.nodes_visited, 4u);

  request.budget.max_nodes = full.stats.nodes_visited / 2;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_EQ(baseline.outcome(), Outcome::kBudgetExhausted);
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    request.params.tidset_mode = mode;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(TidSetModeName(mode)) + " threads=" +
                   std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(ParallelDeterminismTest, PreCancelledRunIdenticalAcrossThreadCounts) {
  // Cancellation is scheduling-dependent in general, but a token that is
  // already triggered at Mine() entry stops every unit at its first
  // checkpoint — the one cancellation point with a determinism guarantee.
  const UncertainDatabase db = MakeTestDb(GetParam());
  CancelToken token;
  token.RequestCancel();
  MiningRequest request;
  request.params.min_sup = 8;
  request.params.pfct = 0.3;
  request.params.seed = GetParam();
  request.cancel = &token;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_EQ(baseline.outcome(), Outcome::kCancelled);
  EXPECT_TRUE(baseline.itemsets.empty());
  ExpectIdentical(baseline, MineWithThreads(db, request, 2));
  ExpectIdentical(baseline, MineWithThreads(db, request, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Values(1u, 7u, 42u));

// A skewed tree: item 0 is in every transaction, so every first-level
// unit rooted at a later item is superset-pruned at its root (Lemma 4.2)
// and unit 0 holds almost the whole search. Its nodes are then explored
// ahead on the pool and retired in order; the sampled certifications
// (paper checker, exact_event_limit = 0) read the unit's one RNG stream.
constexpr std::size_t kSkewedItems = 12;

UncertainDatabase MakeSkewedDb(std::uint64_t seed) {
  Rng rng(seed);
  const auto unit_draw = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  UncertainDatabase db;
  for (int t = 0; t < 80; ++t) {
    std::vector<Item> items{0};
    for (std::size_t i = 1; i < kSkewedItems; ++i) {
      if (unit_draw() < 0.65) items.push_back(static_cast<Item>(i));
    }
    db.Add(Itemset(items), 0.7 + 0.3 * unit_draw());
  }
  return db;
}

MiningRequest SkewedRequest(std::uint64_t seed) {
  MiningRequest request;
  request.params.min_sup = 20;
  request.params.pfct = 0.6;
  request.params.seed = seed;
  request.params.exact_event_limit = 0;
  request.params.epsilon = 0.5;
  request.params.delta = 0.3;
  return request;
}

constexpr std::size_t kSkewedThreadCounts[] = {2, 3, 4, 8};

class SkewedTreeDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkewedTreeDeterminismTest, MpfciIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeSkewedDb(GetParam());
  const MiningRequest request = SkewedRequest(GetParam());
  const MiningResult one = MineWithThreads(db, request, 1);
  ASSERT_FALSE(one.itemsets.empty());
  EXPECT_GT(one.stats.sampled_fcp_computations, 0u);
  // The shape this test is about: the kSkewedItems - 1 units rooted at
  // items 1.. are one (pruned) node each; unit 0 holds >= 90 % of nodes.
  EXPECT_EQ(one.stats.pruned_by_superset, kSkewedItems - 1);
  EXPECT_GE(10 * (one.stats.nodes_visited - (kSkewedItems - 1)),
            9 * one.stats.nodes_visited);
  for (const std::size_t threads : kSkewedThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(one, MineWithThreads(db, request, threads));
  }
}

TEST_P(SkewedTreeDeterminismTest, NodeBudgetIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeSkewedDb(GetParam());
  MiningRequest request = SkewedRequest(GetParam());
  const MiningResult full = MineWithThreads(db, request, 1);
  for (const std::uint64_t fraction : {4u, 2u}) {
    request.budget.max_nodes = full.stats.nodes_visited / fraction;
    const MiningResult baseline = MineWithThreads(db, request, 1);
    EXPECT_EQ(baseline.outcome(), Outcome::kBudgetExhausted);
    for (const std::size_t threads : kSkewedThreadCounts) {
      SCOPED_TRACE("max_nodes=" + std::to_string(request.budget.max_nodes) +
                   " threads=" + std::to_string(threads));
      ExpectIdentical(baseline, MineWithThreads(db, request, threads));
    }
  }
}

TEST_P(SkewedTreeDeterminismTest, SampleBudgetIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeSkewedDb(GetParam());
  MiningRequest request = SkewedRequest(GetParam());
  const MiningResult full = MineWithThreads(db, request, 1);
  ASSERT_GT(full.stats.total_samples, 0u);
  request.budget.max_samples = full.stats.total_samples / 2;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_EQ(baseline.outcome(), Outcome::kBudgetExhausted);
  EXPECT_LT(baseline.itemsets.size(), full.itemsets.size());
  for (const std::size_t threads : kSkewedThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(baseline, MineWithThreads(db, request, threads));
  }
}

TEST_P(SkewedTreeDeterminismTest, PreCancelledIdenticalAcrossThreadCounts) {
  const UncertainDatabase db = MakeSkewedDb(GetParam());
  CancelToken token;
  token.RequestCancel();
  MiningRequest request = SkewedRequest(GetParam());
  request.cancel = &token;
  const MiningResult baseline = MineWithThreads(db, request, 1);
  EXPECT_EQ(baseline.outcome(), Outcome::kCancelled);
  EXPECT_TRUE(baseline.itemsets.empty());
  for (const std::size_t threads : kSkewedThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(baseline, MineWithThreads(db, request, threads));
  }
}

TEST_P(SkewedTreeDeterminismTest, TopKIdenticalAcrossThreadCounts) {
  // Top-k walks the same DFS with its rising floor and no look-ahead.
  const UncertainDatabase db = MakeSkewedDb(GetParam());
  MiningRequest request = SkewedRequest(GetParam());
  request.algorithm = Algorithm::kTopK;
  request.top_k = 8;
  request.params.pfct = 0.0;
  const MiningResult one = MineWithThreads(db, request, 1);
  ASSERT_EQ(one.itemsets.size(), 8u);
  for (const std::size_t threads : kSkewedThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(one, MineWithThreads(db, request, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewedTreeDeterminismTest,
                         ::testing::Values(1u, 7u, 42u));

TEST(ParallelDeterminism, BruteForceIdenticalAcrossThreadCounts) {
  // 17 transactions → 2^17 worlds → 8 fixed ranges: the parallel oracle
  // must reproduce the sequential one exactly.
  QuestParams quest;
  quest.num_transactions = 17;
  quest.avg_transaction_length = 4.0;
  quest.avg_pattern_length = 3.0;
  quest.num_items = 8;
  quest.num_patterns = 5;
  quest.seed = 3;
  GaussianAssignerParams assign;
  const UncertainDatabase db =
      AssignGaussianProbabilities(GenerateQuest(quest), assign);

  ThreadPool pool(4);
  ExecutionContext parallel;
  parallel.pool = &pool;

  const std::vector<FcpGroundTruth> seq = BruteForceAllFcp(db, 3);
  const std::vector<FcpGroundTruth> par = BruteForceAllFcp(db, 3, parallel);
  ASSERT_EQ(seq.size(), par.size());
  ASSERT_FALSE(seq.empty());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].items, par[i].items);
    EXPECT_EQ(seq[i].fcp, par[i].fcp);
  }

  const Itemset probe = seq.front().items;
  const WorldProbabilities a = BruteForceItemsetProbabilities(db, probe, 3);
  const WorldProbabilities b =
      BruteForceItemsetProbabilities(db, probe, 3, parallel);
  EXPECT_EQ(a.pr_f, b.pr_f);
  EXPECT_EQ(a.pr_c, b.pr_c);
  EXPECT_EQ(a.pr_fc, b.pr_fc);
}

}  // namespace
}  // namespace pfci
