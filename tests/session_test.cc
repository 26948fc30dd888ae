// MiningSession serving-layer tests: cache hit/miss accounting, LRU
// eviction under a byte budget, monotonicity-aware DP reuse across a
// threshold sweep, and the central determinism contract — session runs
// (cache on) are bit-identical to standalone runs (cache off) for every
// algorithm, thread count, and tid-set mode (DESIGN.md §11).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/core/mine.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/harness/dataset_factory.h"
#include "src/serve/mining_session.h"
#include "src/util/failpoint.h"

namespace pfci {
namespace {

/// Big enough that PrF evaluations dominate and subtrees parallelize.
UncertainDatabase MakeQuestDb(std::uint64_t seed) {
  QuestParams quest;
  quest.num_transactions = 60;
  quest.avg_transaction_length = 6.0;
  quest.avg_pattern_length = 3.0;
  quest.num_items = 16;
  quest.num_patterns = 8;
  quest.seed = seed;
  GaussianAssignerParams assign;
  assign.mean = 0.75;
  assign.spread = 0.15;
  assign.seed = seed + 1;
  return AssignGaussianProbabilities(GenerateQuest(quest), assign);
}

/// Bit-identical itemsets: items, probabilities, bounds, and method.
void ExpectIdenticalResults(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.itemsets.size(), b.itemsets.size());
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    const PfciEntry& x = a.itemsets[i];
    const PfciEntry& y = b.itemsets[i];
    EXPECT_EQ(x.items, y.items);
    EXPECT_EQ(x.fcp, y.fcp) << x.items.ToString();
    EXPECT_EQ(x.pr_f, y.pr_f) << x.items.ToString();
    EXPECT_EQ(x.fcp_lower, y.fcp_lower) << x.items.ToString();
    EXPECT_EQ(x.fcp_upper, y.fcp_upper) << x.items.ToString();
    EXPECT_EQ(x.method, y.method) << x.items.ToString();
  }
}

MiningRequest BaseRequest(Algorithm algorithm, std::size_t min_sup) {
  MiningRequest request;
  request.algorithm = algorithm;
  request.params.min_sup = min_sup;
  request.params.pfct = 0.3;
  if (algorithm == Algorithm::kTopK) request.top_k = 5;
  if (algorithm == Algorithm::kExpectedSupport ||
      algorithm == Algorithm::kExpectedSupportFpGrowth) {
    request.min_esup = static_cast<double>(min_sup);
  }
  return request;
}

TEST(MiningSession, SecondIdenticalRequestIsAllCacheHits) {
  const UncertainDatabase db = MakeQuestDb(7);
  MiningSession session = MiningSession::Open(db);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);

  const MiningResult cold = Mine(db, request);
  const MiningResult first = session.Mine(request);
  const MiningResult second = session.Mine(request);

  ExpectIdenticalResults(cold, first);
  ExpectIdenticalResults(cold, second);

  // First run populates the cache; repeated tidsets within the run
  // already hit it, so DP work can only shrink relative to cold.
  EXPECT_GT(first.stats.cache_misses, 0u);
  EXPECT_LE(first.stats.dp_runs, cold.stats.dp_runs);
  EXPECT_GT(first.stats.cache_bytes, 0u);

  // Second run is served from the cache: zero DP executions.
  EXPECT_GT(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.stats.dp_runs, 0u);
  EXPECT_GT(second.stats.dp_reused, 0u);
  EXPECT_GT(session.cache_entries(), 0u);
}

TEST(MiningSession, EvictionKeepsResultsExactUnderTinyByteBudget) {
  const UncertainDatabase db = MakeQuestDb(13);
  SessionOptions options;
  options.cache_bytes = 4096;  // Far below the run's working set.
  options.cache_shards = 1;    // One LRU list: the bound is tight.
  MiningSession session = MiningSession::Open(db, options);

  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 5);
  const MiningResult cold = Mine(db, request);
  const MiningResult warm1 = session.Mine(request);
  const MiningResult warm2 = session.Mine(request);

  ExpectIdenticalResults(cold, warm1);
  ExpectIdenticalResults(cold, warm2);
  EXPECT_GT(session.cache_evictions(), 0u);
  // The budget may be exceeded only by the single retained entry.
  EXPECT_LE(session.cache_bytes(), 8192u);
}

TEST(MiningSession, WarmStartRecordsInfrequencyProofs) {
  const UncertainDatabase db = MakeQuestDb(17);
  MiningSession session = MiningSession::Open(db);

  // Proofs are recorded for singletons whose tid count clears min_sup
  // but whose PrF does not — pick a threshold between the typical
  // expected support (~16 here) and the typical tid count (~22).
  const MiningRequest high = BaseRequest(Algorithm::kMpfci, 20);
  ExpectIdenticalResults(Mine(db, high), session.Mine(high));
  EXPECT_GT(session.warm_items_recorded(), 0u);

  // A later run at min_sup' >= min_sup may consume the proofs; results
  // stay bit-identical to a cold run (anti-monotonicity).
  const MiningRequest higher = BaseRequest(Algorithm::kMpfci, 21);
  ExpectIdenticalResults(Mine(db, higher), session.Mine(higher));
}

TEST(MiningSession, OptionsValidation) {
  SessionOptions bad;
  bad.cache_shards = 0;
  EXPECT_NE(ValidateSessionOptions(bad).find("cache_shards"),
            std::string::npos);
  bad.cache_bytes = 0;  // Cache off: shard count is irrelevant.
  EXPECT_EQ(ValidateSessionOptions(bad), "");
  EXPECT_EQ(ValidateSessionOptions(SessionOptions{}), "");
}

TEST(MiningSession, CacheDisabledSessionStillServes) {
  const UncertainDatabase db = MakeQuestDb(19);
  SessionOptions options;
  options.cache_bytes = 0;
  options.warm_start = false;
  MiningSession session = MiningSession::Open(db, options);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  const MiningResult warm = session.Mine(request);
  ExpectIdenticalResults(Mine(db, request), warm);
  EXPECT_EQ(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(session.cache_bytes(), 0u);
  EXPECT_EQ(session.warm_items_recorded(), 0u);
}

/// The acceptance matrix: session (cache on) vs standalone (cache off)
/// for every tuple-level algorithm x thread count x tid-set mode. Two
/// session runs per cell so both the populate and the serve path are
/// compared. The paper's Table II database keeps the full sweep cheap; a
/// Quest database covers mpfci at depth below.
TEST(MiningSession, CacheOnBitIdenticalToCacheOffEverywhere) {
  const UncertainDatabase db = MakePaperExampleDb();
  const std::vector<Algorithm> algorithms = {
      Algorithm::kMpfci,           Algorithm::kMpfciBfs,
      Algorithm::kNaive,           Algorithm::kTopK,
      Algorithm::kPfi,             Algorithm::kExpectedSupport,
      Algorithm::kExpectedSupportFpGrowth,
      Algorithm::kBruteForce,
  };
  for (const Algorithm algorithm : algorithms) {
    MiningSession session = MiningSession::Open(db);
    for (const TidSetMode mode :
         {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(AlgorithmName(algorithm)) +
                     " mode=" + std::to_string(static_cast<int>(mode)) +
                     " threads=" + std::to_string(threads));
        MiningRequest request = BaseRequest(algorithm, 2);
        request.params.tidset_mode = mode;
        request.execution.num_threads = threads;
        const MiningResult cold = Mine(db, request);
        ASSERT_EQ(cold.outcome(), Outcome::kComplete)
            << cold.status_message;
        ExpectIdenticalResults(cold, session.Mine(request));
        ExpectIdenticalResults(cold, session.Mine(request));
      }
    }
  }
}

TEST(MiningSession, CacheOnBitIdenticalAtDepth) {
  const UncertainDatabase db = MakeQuestDb(29);
  for (const Algorithm algorithm : {Algorithm::kMpfci, Algorithm::kNaive}) {
    MiningSession session = MiningSession::Open(db);
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(AlgorithmName(algorithm)) +
                   " threads=" + std::to_string(threads));
      MiningRequest request = BaseRequest(algorithm, 6);
      request.execution.num_threads = threads;
      const MiningResult cold = Mine(db, request);
      ExpectIdenticalResults(cold, session.Mine(request));
      ExpectIdenticalResults(cold, session.Mine(request));
    }
  }
}

/// Parks a session's only execution slot inside a run: the armed
/// failpoint blocks the mining thread until Unpark(). Lets admission
/// tests hold the slot deterministically instead of racing a real run.
class SlotHolder {
 public:
  SlotHolder(MiningSession& session, const MiningRequest& request) {
    failpoint::Arm("mpfci/node", [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
    MiningRequest held = request;
    held.execution.num_threads = 1;  // Exactly one thread to park.
    thread_ = std::thread([this, &session, held] {
      result_ = session.Mine(held);
    });
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return parked_; });
  }

  ~SlotHolder() {
    Unpark();
    failpoint::DisarmAll();
  }

  void Unpark() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      released_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

  const MiningResult& result() const { return result_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  std::thread thread_;
  MiningResult result_;
};

TEST(MiningSession, AdmissionOptionsValidation) {
  SessionOptions bad;
  bad.max_queue_depth = 4;  // A queue with nothing to queue for.
  EXPECT_NE(ValidateSessionOptions(bad).find("max_queue_depth"),
            std::string::npos);
  bad.max_inflight = 2;
  EXPECT_EQ(ValidateSessionOptions(bad), "");
}

TEST(MiningSession, AdmissionRejectsAtMaxInflightInUnderAMillisecond) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const UncertainDatabase db = MakeQuestDb(31);
  SessionOptions options;
  options.max_inflight = 1;
  options.max_queue_depth = 0;
  MiningSession session = MiningSession::Open(db, options);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);

  SlotHolder holder(session, request);
  EXPECT_EQ(session.inflight(), 1u);

  // Rejection is one uncontended mutex acquisition — sub-millisecond.
  // Best-of-five so an unlucky scheduler blip cannot flake the pin.
  double best_seconds = 1e9;
  for (int i = 0; i < 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const MiningResult rejected = session.Mine(request);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best_seconds = std::min(best_seconds, seconds);
    ASSERT_EQ(rejected.outcome(), Outcome::kRejected)
        << rejected.status_message;
    EXPECT_TRUE(rejected.stats.truncated);
    EXPECT_TRUE(rejected.itemsets.empty());
    EXPECT_NE(rejected.status_message.find("admission"), std::string::npos);
  }
  EXPECT_LT(best_seconds, 1e-3)
      << "rejection must not wait on in-flight work";
  EXPECT_EQ(session.admission_rejected(), 5u);

  holder.Unpark();
  EXPECT_EQ(holder.result().outcome(), Outcome::kComplete)
      << "rejections must never perturb the in-flight run";
  EXPECT_EQ(session.inflight(), 0u);
}

TEST(MiningSession, QueuedRequestRunsWhenTheSlotFrees) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const UncertainDatabase db = MakeQuestDb(31);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  const MiningResult reference = Mine(db, request);

  SessionOptions options;
  options.max_inflight = 1;
  options.max_queue_depth = 1;
  MiningSession session = MiningSession::Open(db, options);

  SlotHolder holder(session, request);
  std::atomic<bool> queued_started{false};
  MiningResult queued_result;
  std::thread queued([&] {
    queued_started = true;
    queued_result = session.Mine(request);
  });
  while (!queued_started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  holder.Unpark();  // Slot frees; the queued request runs.
  queued.join();
  EXPECT_EQ(queued_result.outcome(), Outcome::kComplete)
      << queued_result.status_message;
  ExpectIdenticalResults(reference, queued_result);
  EXPECT_EQ(session.admission_rejected(), 0u);
  EXPECT_EQ(session.inflight(), 0u);
}

TEST(MiningSession, QueuedRequestHonorsItsOwnDeadline) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const UncertainDatabase db = MakeQuestDb(31);
  SessionOptions options;
  options.max_inflight = 1;
  options.max_queue_depth = 1;
  MiningSession session = MiningSession::Open(db, options);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);

  SlotHolder holder(session, request);
  MiningRequest deadlined = request;
  deadlined.budget.deadline_seconds = 0.05;
  const auto start = std::chrono::steady_clock::now();
  const MiningResult rejected = session.Mine(deadlined);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(rejected.outcome(), Outcome::kRejected)
      << rejected.status_message;
  EXPECT_GE(waited, 0.03) << "a queued request waits up to its deadline";
  EXPECT_EQ(session.admission_rejected(), 1u);
}

/// TSan-facing stress: concurrent Mine() calls racing admission
/// rejection AND cache eviction (tiny byte budget, one shard). Every
/// admitted run must stay bit-identical to the standalone reference;
/// the rejection counter must match what callers observed.
TEST(MiningSession, ConcurrentMinesRaceEvictionAndAdmissionSafely) {
  const UncertainDatabase db = MakeQuestDb(37);
  SessionOptions options;
  options.cache_bytes = 4096;  // Eviction churn on every run.
  options.cache_shards = 1;
  options.max_inflight = 2;
  options.max_queue_depth = 1;
  MiningSession session = MiningSession::Open(db, options);

  const std::size_t kThreads = 6;
  const std::size_t kRounds = 2;
  std::vector<MiningResult> references;
  for (std::size_t r = 0; r < kRounds; ++r) {
    references.push_back(Mine(db, BaseRequest(Algorithm::kMpfci, 5 + r)));
  }

  std::atomic<std::uint64_t> observed_rejections{0};
  std::vector<std::thread> workers;
  std::vector<std::vector<MiningResult>> results(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        MiningRequest request = BaseRequest(Algorithm::kMpfci, 5 + r);
        request.execution.num_threads = 2;
        MiningResult result = session.Mine(request);
        if (result.outcome() == Outcome::kRejected) {
          ++observed_rejections;
        }
        results[t].push_back(std::move(result));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  std::size_t completed = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const MiningResult& result = results[t][r];
      if (result.outcome() == Outcome::kRejected) continue;
      ASSERT_EQ(result.outcome(), Outcome::kComplete)
          << result.status_message;
      ExpectIdenticalResults(references[r], result);
      ++completed;
    }
  }
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(completed + observed_rejections, kThreads * kRounds);
  EXPECT_EQ(session.admission_rejected(), observed_rejections);
  EXPECT_EQ(session.inflight(), 0u);
}

TEST(MiningSession, ResumeFromContinuesASuspendedRunBitIdentically) {
  const UncertainDatabase db = MakeQuestDb(41);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  const MiningResult reference = Mine(db, request);
  ASSERT_EQ(reference.outcome(), Outcome::kComplete);
  ASSERT_GT(reference.stats.nodes_visited, 2u);

  const std::string path = ::testing::TempDir() + "pfci_session_resume_" +
                           std::to_string(::getpid()) + ".snapshot";
  MiningSession session = MiningSession::Open(db);
  MiningRequest suspending = request;
  suspending.budget.max_nodes = reference.stats.nodes_visited / 2;
  suspending.snapshot.save_path = path;
  const MiningResult partial = session.Mine(suspending);
  ASSERT_EQ(partial.outcome(), Outcome::kBudgetExhausted)
      << partial.status_message;
  ASSERT_GT(partial.stats.snapshot_bytes, 0u);

  const MiningResult resumed = session.ResumeFrom(path, request);
  EXPECT_EQ(resumed.outcome(), Outcome::kComplete)
      << resumed.status_message;
  EXPECT_TRUE(resumed.stats.resumed);
  ExpectIdenticalResults(reference, resumed);
  EXPECT_EQ(resumed.stats.nodes_visited, reference.stats.nodes_visited);
  std::remove(path.c_str());
}

/// EvalCache unit behaviour (exercised directly, without a miner).
TEST(EvalCache, ProbeInsertAndBandHits) {
  EvalCache::Options options;
  EvalCache cache(options);
  const TidSet tids(TidList{1, 3, 5, 7, 9, 11, 13}, 20);

  EXPECT_FALSE(cache.Probe(tids, 3).found);
  // The band of thresholds 3..5.
  cache.Insert(tids, 1.5, 3, {0.6, 0.2, 0.1});
  // A probe hits exactly inside the band...
  for (const std::size_t t : {3u, 4u, 5u}) {
    const EvalCache::Lookup hit = cache.Probe(tids, t);
    ASSERT_TRUE(hit.found) << t;
    ASSERT_TRUE(hit.has_table) << t;
    EXPECT_EQ(hit.mu, 1.5);
  }
  EXPECT_EQ(cache.Probe(tids, 3).tail, 0.6);
  EXPECT_EQ(cache.Probe(tids, 5).tail, 0.1);
  // ...and misses on both sides of it (mu still usable).
  for (const std::size_t t : {2u, 6u}) {
    const EvalCache::Lookup miss = cache.Probe(tids, t);
    EXPECT_TRUE(miss.found) << t;
    EXPECT_FALSE(miss.has_table) << t;
    EXPECT_EQ(miss.mu, 1.5);
  }
  const std::uint64_t bytes_3_to_5 = cache.bytes();

  // A band inside the stored one, or an empty one (mu alone), changes
  // nothing.
  cache.Insert(tids, 1.5, 4, {0.2});
  cache.Insert(tids, 1.5, 0, {});
  EXPECT_EQ(cache.bytes(), bytes_3_to_5);
  EXPECT_TRUE(cache.Probe(tids, 3).has_table);

  // An overlapping band merges: 3..5 + 5..7 = 3..7.
  cache.Insert(tids, 1.5, 5, {0.1, 0.05, 0.01});
  for (const std::size_t t : {3u, 5u, 7u}) {
    EXPECT_TRUE(cache.Probe(tids, t).has_table) << t;
  }
  EXPECT_EQ(cache.Probe(tids, 3).tail, 0.6);
  EXPECT_EQ(cache.Probe(tids, 6).tail, 0.05);
  EXPECT_EQ(cache.Probe(tids, 7).tail, 0.01);
  EXPECT_FALSE(cache.Probe(tids, 8).has_table);
  EXPECT_EQ(cache.bytes(), bytes_3_to_5 + 2 * sizeof(double));

  // An adjacent band merges too: 1..2 + 3..7 = 1..7.
  cache.Insert(tids, 1.5, 1, {0.99, 0.9});
  EXPECT_EQ(cache.Probe(tids, 1).tail, 0.99);
  EXPECT_EQ(cache.Probe(tids, 7).tail, 0.01);

  // A disjoint band replaces the stored one.
  cache.Insert(tids, 1.5, 9, {0.001});
  EXPECT_TRUE(cache.Probe(tids, 9).has_table);
  EXPECT_FALSE(cache.Probe(tids, 7).has_table);
  EXPECT_FALSE(cache.Probe(tids, 1).has_table);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(EvalCache, FingerprintIsRepresentationIndependent) {
  const TidList contents = {2, 4, 6, 9};
  TidSetPolicy sparse;
  sparse.mode = TidSetMode::kSparse;
  TidSetPolicy dense;
  dense.mode = TidSetMode::kDense;
  const TidSet a(contents, 12, sparse);
  const TidSet b(contents, 12, dense);
  EXPECT_EQ(TidSetFingerprint(a), TidSetFingerprint(b));

  // One cache serves both representations of the same contents.
  EvalCache cache(EvalCache::Options{});
  cache.Insert(a, 2.5, 0, {1.0});
  EXPECT_TRUE(cache.Probe(b, 1).found);
}

TEST(EvalCache, OversizedEntryIsRejectedWithoutEvictingResidents) {
  EvalCache::Options options;
  options.max_bytes = 1024;
  EvalCache cache(options);
  const TidSet small(TidList{1, 2}, 10);
  cache.Insert(small, 1.2, 1, {1.0, 0.7});
  ASSERT_TRUE(cache.Probe(small, 1).found);
  const std::uint64_t resident_bytes = cache.bytes();

  // An entry whose table alone dwarfs the budget must be refused up
  // front: the resident entry stays, the byte ledger is unchanged, and
  // the refusal is visible in rejections().
  const TidSet big(TidList{3, 4, 5}, 10);
  std::vector<double> huge_table(4096, 1.0);
  cache.Insert(big, 2.0, huge_table.size() - 1, std::move(huge_table));
  EXPECT_FALSE(cache.Probe(big, 1).found);
  EXPECT_TRUE(cache.Probe(small, 1).found);
  EXPECT_EQ(cache.bytes(), resident_bytes);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.rejections(), 1u);

  // The upgrade path honors the same budget: the small table keeps
  // serving, the oversized replacement is refused.
  std::vector<double> huge_upgrade(4096, 1.0);
  cache.Insert(small, 1.2, huge_upgrade.size() - 1, std::move(huge_upgrade));
  const EvalCache::Lookup after = cache.Probe(small, 1);
  ASSERT_TRUE(after.found);
  EXPECT_TRUE(after.has_table);
  EXPECT_EQ(cache.bytes(), resident_bytes);
  EXPECT_EQ(cache.rejections(), 2u);
}

TEST(EvalCache, ZeroShardsAndZeroBytesAreClamped) {
  EvalCache::Options options;
  options.shards = 0;   // historically CHECK-aborted
  options.max_bytes = 0;
  EvalCache cache(options);
  EXPECT_EQ(cache.max_bytes(), 1u);
  // Every insert is over the (clamped) budget: rejected, never resident.
  const TidSet tids(TidList{1}, 4);
  cache.Insert(tids, 0.5, 0, {1.0});
  EXPECT_FALSE(cache.Probe(tids, 0).found);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.rejections(), 1u);
}

/// ---- Submit(): asynchronous serving behind a RunHandle ----

TEST(MiningSession, SubmitMatchesSynchronousMineBitwise) {
  const UncertainDatabase db = MakeQuestDb(43);
  MiningSession session = MiningSession::Open(db);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  const MiningResult reference = Mine(db, request);

  RunHandle handle = session.Submit(request);
  ASSERT_TRUE(handle.valid());
  const MiningResult& result = handle.Wait();
  ASSERT_EQ(result.outcome(), Outcome::kComplete) << result.status_message;
  ExpectIdenticalResults(reference, result);
  EXPECT_TRUE(handle.done());

  // After completion every accessor is stable and non-blocking, Cancel
  // is a no-op, and copies observe the same run.
  MiningResult polled;
  ASSERT_TRUE(handle.TryGet(&polled));
  ExpectIdenticalResults(reference, polled);
  handle.Cancel();
  RunHandle copy = handle;
  ExpectIdenticalResults(reference, copy.Wait());
}

TEST(MiningSession, SubmitReportsInvalidRequestsAsDataAsync) {
  const UncertainDatabase db = MakeQuestDb(43);
  MiningSession session = MiningSession::Open(db);
  MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  request.params.pfct = 2.0;  // Out of range.
  RunHandle handle = session.Submit(request);
  const MiningResult& result = handle.Wait();
  EXPECT_EQ(result.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(result.status_message.find("invalid MiningRequest"),
            std::string::npos);
  EXPECT_TRUE(result.itemsets.empty());
}

TEST(MiningSession, SubmitRefusesARequestLevelCancelToken) {
  const UncertainDatabase db = MakeQuestDb(43);
  MiningSession session = MiningSession::Open(db);
  CancelToken token;
  MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  request.cancel = &token;
  RunHandle handle = session.Submit(request);
  // Answered synchronously, without spawning a worker.
  EXPECT_TRUE(handle.done());
  const MiningResult& result = handle.Wait();
  EXPECT_EQ(result.outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(result.status_message.find(
                "Submit owns cancellation through RunHandle::Cancel"),
            std::string::npos);
}

TEST(MiningSession, SubmitRejectedUnderAdmissionPressureAsync) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const UncertainDatabase db = MakeQuestDb(31);
  SessionOptions options;
  options.max_inflight = 1;
  options.max_queue_depth = 0;
  MiningSession session = MiningSession::Open(db, options);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);

  SlotHolder holder(session, request);
  RunHandle handle = session.Submit(request);
  // The rejection arrives through the handle — error-as-data on the
  // async path too — without waiting for the in-flight run.
  const MiningResult& rejected = handle.Wait();
  EXPECT_EQ(rejected.outcome(), Outcome::kRejected)
      << rejected.status_message;
  EXPECT_TRUE(rejected.stats.truncated);
  EXPECT_NE(rejected.status_message.find("admission"), std::string::npos);
  EXPECT_EQ(session.admission_rejected(), 1u);

  holder.Unpark();
  EXPECT_EQ(holder.result().outcome(), Outcome::kComplete)
      << "an async rejection must never perturb the in-flight run";
}

TEST(MiningSession, CancelBeforeStartIsAnsweredWithoutRunning) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const UncertainDatabase db = MakeQuestDb(47);
  MiningSession session = MiningSession::Open(db);

  // Park the submit worker at its entry (before its cancel check) so
  // Cancel() deterministically lands before the run starts.
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  failpoint::Arm("serve/submit_start", [&] {
    std::unique_lock<std::mutex> lock(mutex);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  });

  RunHandle handle = session.Submit(BaseRequest(Algorithm::kMpfci, 6));
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }
  EXPECT_FALSE(handle.done());
  handle.Cancel();
  {
    std::unique_lock<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
  const MiningResult& result = handle.Wait();
  failpoint::DisarmAll();

  EXPECT_EQ(result.outcome(), Outcome::kCancelled) << result.status_message;
  EXPECT_TRUE(result.stats.truncated);
  EXPECT_NE(
      result.status_message.find("cancelled via RunHandle::Cancel before start"),
      std::string::npos);
  EXPECT_TRUE(result.itemsets.empty());
  // Queue time covers the parked window; the run itself never happened,
  // so the caches were never touched.
  EXPECT_GT(result.stats.queued_micros, 0u);
  EXPECT_EQ(session.cache_entries(), 0u);
}

TEST(MiningSession, CancelMidRunWindsDownCooperatively) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const UncertainDatabase db = MakeQuestDb(47);
  MiningSession session = MiningSession::Open(db);

  // Park the run at its first search node, cancel through the handle,
  // then release: the miner must wind down at its next checkpoint.
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  failpoint::Arm("mpfci/node", [&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!parked) {
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
  });

  MiningRequest request = BaseRequest(Algorithm::kMpfci, 2);
  request.execution.num_threads = 1;
  RunHandle handle = session.Submit(request);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }
  handle.Cancel();
  {
    std::unique_lock<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
  const MiningResult& result = handle.Wait();
  failpoint::DisarmAll();

  EXPECT_EQ(result.outcome(), Outcome::kCancelled) << result.status_message;
  EXPECT_TRUE(result.stats.truncated);
}

TEST(MiningSession, HandleOutlivesItsSession) {
  const UncertainDatabase db = MakeQuestDb(53);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  const MiningResult reference = Mine(db, request);
  RunHandle handle;
  EXPECT_FALSE(handle.valid());
  {
    MiningSession session = MiningSession::Open(db);
    handle = session.Submit(request);
  }  // ~MiningSession drains its workers before returning.
  ASSERT_TRUE(handle.valid());
  EXPECT_TRUE(handle.done())
      << "a handle surviving its session always holds a completed result";
  ExpectIdenticalResults(reference, handle.Wait());
  handle.Cancel();  // Harmless after the session is gone.
  ExpectIdenticalResults(reference, handle.Wait());
}

TEST(MiningSession, MoveAssignmentDrainsTheReplacedSessionsRuns) {
  const UncertainDatabase db = MakeQuestDb(53);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 6);
  const MiningResult reference = Mine(db, request);
  MiningSession session = MiningSession::Open(db);
  RunHandle handle = session.Submit(request);
  session = MiningSession::Open(db);  // Drains before replacing.
  EXPECT_TRUE(handle.done());
  ExpectIdenticalResults(reference, handle.Wait());
}

TEST(MiningSession, ConcurrentSubmitsAllMatchTheirReferences) {
  const UncertainDatabase db = MakeQuestDb(59);
  MiningSession session = MiningSession::Open(db);
  std::vector<MiningResult> references;
  std::vector<RunHandle> handles;
  for (std::size_t i = 0; i < 4; ++i) {
    MiningRequest request = BaseRequest(Algorithm::kMpfci, 5 + i);
    references.push_back(Mine(db, request));
    handles.push_back(session.Submit(request));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("submit " + std::to_string(i));
    const MiningResult& result = handles[i].Wait();
    ASSERT_EQ(result.outcome(), Outcome::kComplete) << result.status_message;
    ExpectIdenticalResults(references[i], result);
  }
}

/// Lines in /proc/self/maps: each live thread stack adds a mapping and a
/// guard page, so a pile of finished-but-unjoined Submit workers shows
/// up here. -1 where the file does not exist.
long MappingCount() {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return -1;
  long lines = 0;
  for (int c = std::fgetc(maps); c != EOF; c = std::fgetc(maps)) {
    if (c == '\n') ++lines;
  }
  std::fclose(maps);
  return lines;
}

TEST(MiningSession, SequentialSubmitsDoNotAccumulateThreads) {
  if (MappingCount() < 0) GTEST_SKIP() << "no /proc/self/maps";
  const UncertainDatabase db = MakePaperExampleDb();
  MiningSession session = MiningSession::Open(db);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 2);
  const MiningResult reference = Mine(db, request);
  // Warm up: the first runs map the allocator arenas and index caches.
  for (int i = 0; i < 20; ++i) session.Submit(request).Wait();
  const long before = MappingCount();
  for (int i = 0; i < 2000; ++i) {
    const RunHandle handle = session.Submit(request);
    const MiningResult& result = handle.Wait();
    ASSERT_EQ(result.outcome(), Outcome::kComplete) << result.status_message;
    if (i == 0) ExpectIdenticalResults(reference, result);
  }
  // One finished worker per Submit would add ~2 mappings each (~4000).
  EXPECT_LT(MappingCount() - before, 64);

  // Several clients reaping each other's finished workers concurrently.
  // The first round settles the thread-stack cache at its concurrent
  // high-water mark; the second must not grow past it.
  std::atomic<int> incomplete{0};
  const auto concurrent_round = [&] {
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          const RunHandle handle = session.Submit(request);
          if (handle.Wait().outcome() != Outcome::kComplete) ++incomplete;
        }
      });
    }
    for (std::thread& client : clients) client.join();
  };
  concurrent_round();
  const long settled = MappingCount();
  concurrent_round();
  EXPECT_EQ(incomplete.load(), 0);
  EXPECT_LT(MappingCount() - settled, 64);
}

/// `session.Submit(r).Wait()` waits on a temporary handle: the result is
/// returned by value, so a reference bound to it (lifetime-extended)
/// stays valid while later Submits reap the finished ticket.
TEST(MiningSession, WaitOnATemporaryHandleOutlivesLaterSubmits) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningSession session = MiningSession::Open(db);
  const MiningRequest request = BaseRequest(Algorithm::kMpfci, 2);
  const MiningResult reference = Mine(db, request);
  static_assert(std::is_same_v<decltype(session.Submit(request).Wait()),
                               MiningResult>);
  static_assert(
      std::is_same_v<decltype(std::declval<const RunHandle&>().Wait()),
                     const MiningResult&>);
  const auto& first = session.Submit(request).Wait();
  for (int i = 0; i < 200; ++i) {
    const auto& result = session.Submit(request).Wait();
    ASSERT_EQ(result.outcome(), Outcome::kComplete) << result.status_message;
    if (i % 50 == 0) ExpectIdenticalResults(reference, result);
  }
  ASSERT_EQ(first.outcome(), Outcome::kComplete);
  ExpectIdenticalResults(reference, first);
}

/// ---- MineBatch(): shared-scan batch planning ----

/// The batch acceptance matrix (DESIGN.md §15): one mixed batch per
/// (tid-set mode, thread count) cell holding every tuple-level algorithm
/// at two thresholds, submitted descending (the planner reorders).
/// Every member must be bit-identical to a standalone Mine() of the same
/// request, with the batch counters stamped on every member.
TEST(MiningSession, MineBatchBitIdenticalToSequentialEverywhere) {
  const UncertainDatabase db = MakePaperExampleDb();
  const std::vector<Algorithm> algorithms = {
      Algorithm::kMpfci,           Algorithm::kMpfciBfs,
      Algorithm::kNaive,           Algorithm::kTopK,
      Algorithm::kPfi,             Algorithm::kExpectedSupport,
      Algorithm::kExpectedSupportFpGrowth,
      Algorithm::kBruteForce,
  };
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      std::vector<MiningRequest> requests;
      for (const Algorithm algorithm : algorithms) {
        for (const std::size_t min_sup : {3u, 2u}) {
          MiningRequest request = BaseRequest(algorithm, min_sup);
          request.params.tidset_mode = mode;
          request.execution.num_threads = threads;
          requests.push_back(request);
        }
      }
      MiningSession session = MiningSession::Open(db);
      const std::vector<MiningResult> batch = session.MineBatch(requests);
      ASSERT_EQ(batch.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(std::string(AlgorithmName(requests[i].algorithm)) +
                     " min_sup=" +
                     std::to_string(requests[i].params.min_sup));
        ASSERT_EQ(batch[i].outcome(), Outcome::kComplete)
            << batch[i].status_message;
        ExpectIdenticalResults(Mine(db, requests[i]), batch[i]);
        EXPECT_EQ(batch[i].stats.batch_size, requests.size());
        EXPECT_EQ(batch[i].stats.batch_groups, algorithms.size());
      }
    }
  }
}

TEST(MiningSession, MineBatchReportsInvalidMembersInPlace) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningSession session = MiningSession::Open(db);
  std::vector<MiningRequest> requests;
  requests.push_back(BaseRequest(Algorithm::kMpfci, 2));
  MiningRequest bad = BaseRequest(Algorithm::kMpfci, 2);
  bad.params.pfct = 2.0;  // Out of range.
  requests.push_back(bad);
  requests.push_back(BaseRequest(Algorithm::kPfi, 3));

  const std::vector<MiningResult> batch = session.MineBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].outcome(), Outcome::kInvalidRequest);
  EXPECT_NE(batch[1].status_message.find("invalid MiningRequest"),
            std::string::npos);
  ASSERT_EQ(batch[0].outcome(), Outcome::kComplete);
  ASSERT_EQ(batch[2].outcome(), Outcome::kComplete);
  ExpectIdenticalResults(Mine(db, requests[0]), batch[0]);
  ExpectIdenticalResults(Mine(db, requests[2]), batch[2]);
  // The batch shape is stamped on every member, invalid ones included;
  // the invalid member does not form a group.
  for (const MiningResult& result : batch) {
    EXPECT_EQ(result.stats.batch_size, 3u);
    EXPECT_EQ(result.stats.batch_groups, 2u);
  }
}

TEST(MiningSession, MineBatchOnEmptySpanReturnsEmpty) {
  const UncertainDatabase db = MakePaperExampleDb();
  MiningSession session = MiningSession::Open(db);
  EXPECT_TRUE(session.MineBatch(std::span<const MiningRequest>{}).empty());
}

TEST(MiningSession, BatchFollowersShareTheLeadersTables) {
  const UncertainDatabase db = MakeQuestDb(67);
  MiningSession session = MiningSession::Open(db);
  // Submitted descending; the planner reorders the group onto an
  // ascending ladder, so the min_sup=4 member is the leader paying for
  // the shared tables and the higher thresholds answer from them.
  std::vector<MiningRequest> requests;
  for (const std::size_t min_sup : {8u, 6u, 4u}) {
    requests.push_back(BaseRequest(Algorithm::kMpfci, min_sup));
  }
  const std::vector<MiningResult> batch = session.MineBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("min_sup=" + std::to_string(requests[i].params.min_sup));
    ASSERT_EQ(batch[i].outcome(), Outcome::kComplete)
        << batch[i].status_message;
    ExpectIdenticalResults(Mine(db, requests[i]), batch[i]);
  }
  EXPECT_EQ(batch[2].stats.shared_dp_hits, 0u) << "the leader pays cold";
  EXPECT_GT(batch[0].stats.shared_dp_hits + batch[1].stats.shared_dp_hits, 0u)
      << "followers must answer from the leader's extended tables";
}

/// A band hit answers only thresholds inside the cached band: a single
/// below (or above) a batch's band misses, recomputes, and still matches
/// a cold Mine() bit for bit.
TEST(MiningSession, SinglesOutsideACachedBandAreBitIdentical) {
  const UncertainDatabase db = MakeQuestDb(67);
  MiningSession session = MiningSession::Open(db);
  std::vector<MiningRequest> requests;
  for (const std::size_t min_sup : {6u, 8u}) {
    requests.push_back(BaseRequest(Algorithm::kMpfci, min_sup));
  }
  for (const MiningResult& result : session.MineBatch(requests)) {
    ASSERT_EQ(result.outcome(), Outcome::kComplete) << result.status_message;
  }
  for (const std::size_t min_sup : {3u, 4u, 5u, 7u, 9u, 4u}) {
    SCOPED_TRACE("min_sup=" + std::to_string(min_sup));
    const MiningRequest request = BaseRequest(Algorithm::kMpfci, min_sup);
    const MiningResult single = session.Mine(request);
    ASSERT_EQ(single.outcome(), Outcome::kComplete) << single.status_message;
    ExpectIdenticalResults(Mine(db, request), single);
    if (min_sup == 7) {
      EXPECT_GT(single.stats.dp_reused, 0u) << "inside the 6..8 band";
    }
  }
}

/// ---- EvalCache pin scopes (the batch working-set retention hint) ----

TEST(EvalCache, PinScopeExemptsTheBatchWorkingSetFromEviction) {
  EvalCache::Options options;
  options.max_bytes = 512;  // A couple of entries' worth.
  options.shards = 1;
  EvalCache cache(options);

  cache.BeginPinScope();
  std::vector<TidSet> tidsets;
  for (std::uint32_t i = 0; i < 8; ++i) {
    tidsets.emplace_back(TidList{i, i + 10}, 32);
    cache.Insert(tidsets.back(), 1.0, 3, {1.0, 0.9, 0.5, 0.1});
  }
  // Pinned entries may overshoot the byte budget but never leave.
  EXPECT_EQ(cache.pinned_entries(), 8u);
  EXPECT_GT(cache.bytes(), cache.max_bytes());
  for (const TidSet& tids : tidsets) {
    EXPECT_TRUE(cache.Probe(tids, 3).found);
  }
  const std::uint64_t pinned_bytes = cache.bytes();

  cache.EndPinScope();
  // Last scope out: pins clear and the byte budget is re-enforced.
  EXPECT_EQ(cache.pinned_entries(), 0u);
  EXPECT_LT(cache.bytes(), pinned_bytes);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(EvalCache, PinScopesNestAndTheRaiiWrapperIsNullSafe) {
  EvalCache::Options options;
  options.max_bytes = 512;
  options.shards = 1;
  EvalCache cache(options);

  cache.BeginPinScope();
  cache.BeginPinScope();
  std::vector<TidSet> tidsets;
  for (std::uint32_t i = 0; i < 8; ++i) {
    tidsets.emplace_back(TidList{i, i + 10}, 32);
    cache.Insert(tidsets.back(), 1.0, 3, {1.0, 0.9, 0.5, 0.1});
  }
  cache.EndPinScope();
  // An enclosing scope is still open: nothing is swept yet.
  EXPECT_EQ(cache.pinned_entries(), 8u);
  cache.EndPinScope();
  EXPECT_EQ(cache.pinned_entries(), 0u);

  // The RAII wrapper over a null cache is a no-op (callers pin
  // unconditionally; a cache-off session passes nullptr).
  { EvalCache::PinScope scope(nullptr); }
  {
    EvalCache::PinScope scope(&cache);
    const TidSet tids(TidList{1, 2, 3}, 8);
    cache.Insert(tids, 1.0, 1, {1.0, 0.5});
    EXPECT_EQ(cache.pinned_entries(), 1u);
  }
  EXPECT_EQ(cache.pinned_entries(), 0u);
}

TEST(ItemWarmStart, ProofsApplyByAntiMonotonicity) {
  ItemWarmStart warm;
  EXPECT_GT(warm.BoundFor(3, 5), 1.0);  // +inf: nothing recorded.
  warm.RecordBound(3, 5, 0.4);
  // Applies at the recorded threshold and above, never below.
  EXPECT_EQ(warm.BoundFor(3, 5), 0.4);
  EXPECT_EQ(warm.BoundFor(3, 9), 0.4);
  EXPECT_GT(warm.BoundFor(3, 4), 1.0);
  // A tighter later proof wins where it applies.
  warm.RecordBound(3, 7, 0.1);
  EXPECT_EQ(warm.BoundFor(3, 7), 0.1);
  EXPECT_EQ(warm.BoundFor(3, 5), 0.4);
  EXPECT_EQ(warm.items_recorded(), 1u);
}

}  // namespace
}  // namespace pfci
