#include "src/core/mine.h"

#include <cstddef>
#include <memory>
#include <utility>

#include "src/core/brute_force.h"
#include "src/core/item_uncertain_miners.h"
#include "src/core/search/frontier_policies.h"
#include "src/core/search/pfi_enumeration.h"
#include "src/core/search/run_snapshot.h"
#include "src/core/search/search_driver.h"
#include "src/data/item_uncertain_database.h"
#include "src/data/world_enumerator.h"
#include "src/exact/fp_growth.h"
#include "src/util/retry.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace pfci {

namespace {

/// The single name table behind AlgorithmName / ParseAlgorithm /
/// AllAlgorithms — adding an algorithm means adding one row here.
struct AlgorithmNameRow {
  Algorithm algorithm;
  const char* name;
};

constexpr AlgorithmNameRow kAlgorithmNames[] = {
    {Algorithm::kMpfci, "mpfci"},
    {Algorithm::kMpfciBfs, "bfs"},
    {Algorithm::kNaive, "naive"},
    {Algorithm::kTopK, "topk"},
    {Algorithm::kPfi, "pfi"},
    {Algorithm::kExpectedSupport, "esup"},
    {Algorithm::kExpectedSupportFpGrowth, "esup-fp"},
    {Algorithm::kBruteForce, "brute"},
    {Algorithm::kItemExpectedSupport, "item-esup"},
    {Algorithm::kItemPfi, "item-pfi"},
};

bool UsesMinEsup(Algorithm algorithm) {
  return algorithm == Algorithm::kExpectedSupport ||
         algorithm == Algorithm::kExpectedSupportFpGrowth ||
         algorithm == Algorithm::kItemExpectedSupport;
}

bool IsItemLevel(Algorithm algorithm) {
  return algorithm == Algorithm::kItemExpectedSupport ||
         algorithm == Algorithm::kItemPfi;
}

/// Algorithms whose frontier policies implement Save/RestoreState. The
/// others still honor snapshot.save_path with a restart-only marker
/// (has_frontier false: resuming reruns from scratch, which is trivially
/// bit-identical).
bool SupportsFrontierResume(Algorithm algorithm) {
  return algorithm == Algorithm::kMpfci ||
         algorithm == Algorithm::kMpfciBfs ||
         algorithm == Algorithm::kNaive || algorithm == Algorithm::kTopK;
}

bool UsesSnapshot(const MiningRequest& request) {
  return !request.snapshot.save_path.empty() ||
         !request.snapshot.resume_path.empty();
}

/// Fingerprint of everything that determines the result: the database
/// contents plus the result-relevant request fields. Execution policy
/// and tidset_mode are deliberately excluded (results are invariant to
/// both, so cross-thread / cross-mode resume is supported); progress,
/// trace, budget, and cancel never affect which entries a completed run
/// reports.
std::uint64_t RequestFingerprint(const UncertainDatabase& db,
                                 const MiningRequest& request) {
  const MiningParams& p = request.params;
  std::uint64_t h = FingerprintDatabase(db);
  h = FnvMixString(h, AlgorithmName(request.algorithm));
  h = FnvMix(h, static_cast<std::uint64_t>(p.min_sup));
  h = FnvMixDouble(h, p.pfct);
  h = FnvMixDouble(h, p.epsilon);
  h = FnvMixDouble(h, p.delta);
  h = FnvMix(h, static_cast<std::uint64_t>(p.pruning.chernoff) |
                    static_cast<std::uint64_t>(p.pruning.superset) << 1 |
                    static_cast<std::uint64_t>(p.pruning.subset) << 2 |
                    static_cast<std::uint64_t>(p.pruning.fcp_bounds) << 3);
  h = FnvMix(h, static_cast<std::uint64_t>(p.exact_event_limit));
  h = FnvMix(h, static_cast<std::uint64_t>(p.force_sampling));
  h = FnvMix(h, p.seed);
  h = FnvMix(h, static_cast<std::uint64_t>(request.top_k));
  h = FnvMixDouble(h, request.min_esup);
  return h;
}

/// min_esup <= 0 defaults to params.min_sup (the natural "same threshold,
/// other measure" reading).
double EffectiveMinEsup(const MiningRequest& request) {
  return request.min_esup > 0.0
             ? request.min_esup
             : static_cast<double>(request.params.min_sup);
}

/// An empty result carrying an API-boundary diagnosis as data.
MiningResult InvalidRequestResult(const std::string& why) {
  MiningResult result;
  result.stats.outcome = Outcome::kInvalidRequest;
  result.status_message = "invalid MiningRequest: " + why;
  return result;
}

/// Stamps the fail-soft outcome of a finished run into its stats.
void StampOutcome(MiningResult* result, const RunController* runtime) {
  if (runtime == nullptr) return;
  result->stats.outcome = runtime->outcome();
  result->stats.truncated = runtime->truncated();
}

/// A frequent (not closedness-checked) itemset as a result entry: the
/// measure (PrF or expected support) is reported in pr_f, fcp is 0.
PfciEntry FrequentEntry(const Itemset& items, double measure) {
  PfciEntry entry;
  entry.items = items;
  entry.pr_f = measure;
  entry.fcp = 0.0;
  entry.fcp_upper = measure;
  return entry;
}

/// The shared skeleton of the algorithms that do not run a frontier
/// policy: `search` fills result.itemsets (and any stats) inside the
/// "search" span unless the run-start poll finds the run already
/// cancelled, past its deadline, or over budget (for esup-fp and the
/// item-level algorithms the only poll); progress, the "merge" span +
/// Sort, outcome stamping, timing, and the merged counters follow in that
/// order.
template <typename SearchFn>
MiningResult RunFlat(const ExecutionContext& exec, SearchFn&& search) {
  Stopwatch timer;
  MiningResult result;
  {
    TraceSpan span(exec.trace, "search", &result.stats.search_seconds);
    CheckpointAtRunStart(exec.runtime);
    if (!StopRequested(exec.runtime)) search(result);
  }
  if (exec.progress != nullptr) {
    exec.progress->AddItemsets(result.itemsets.size());
  }
  {
    TraceSpan span(exec.trace, "merge", &result.stats.merge_seconds);
    result.Sort();
  }
  StampOutcome(&result, exec.runtime);
  result.stats.seconds = timer.ElapsedSeconds();
  result.stats.EmitTrace(exec.trace);
  return result;
}

/// Appends a flat search's entries as result entries carrying `measure`.
template <typename Entry>
void AppendFrequent(const std::vector<Entry>& entries, double Entry::*measure,
                    MiningResult& result) {
  result.itemsets.reserve(entries.size());
  for (const Entry& entry : entries) {
    result.itemsets.push_back(FrequentEntry(entry.items, entry.*measure));
  }
}

/// The item-level algorithms: entries carry the measure (expected support
/// or PrF) in pr_f, fcp 0.
MiningResult RunItemLevel(const ItemUncertainDatabase& db,
                          const MiningRequest& request,
                          const ExecutionContext& exec) {
  return RunFlat(exec, [&](MiningResult& result) {
    const internal::FrequentSink emit = [&](const Itemset& items,
                                            double measure) {
      result.itemsets.push_back(FrequentEntry(items, measure));
    };
    if (request.algorithm == Algorithm::kItemExpectedSupport) {
      internal::MineExpectedSupportItemLevel(db, EffectiveMinEsup(request),
                                             emit);
    } else {
      internal::MinePfiItemLevel(db, request.params.min_sup,
                                 request.params.pfct, emit);
    }
  });
}

/// Possible-world oracle: exact PrFC in the fcp field. The caller already
/// rejected oversized databases.
MiningResult RunBruteForce(const UncertainDatabase& db,
                           const MiningRequest& request,
                           const ExecutionContext& exec) {
  return RunFlat(exec, [&](MiningResult& result) {
    const std::vector<FcpGroundTruth> truths = internal::BruteForceMinePfci(
        db, request.params.min_sup, request.params.pfct, exec);
    result.itemsets.reserve(truths.size());
    for (const FcpGroundTruth& truth : truths) {
      PfciEntry entry;
      entry.items = truth.items;
      entry.fcp = truth.fcp;
      entry.fcp_lower = truth.fcp;
      entry.fcp_upper = truth.fcp;
      entry.method = FcpMethod::kExact;
      result.itemsets.push_back(std::move(entry));
    }
  });
}

/// Flushes the run's sinks on every exit path (including invalid
/// requests and stopped runs): the final progress snapshot and any
/// buffered trace events must reach the caller no matter how Mine()
/// returns.
struct FlushOnExit {
  TraceSink* trace = nullptr;
  ProgressSink* progress = nullptr;

  ~FlushOnExit() {
    if (trace != nullptr) trace->Flush();
    if (progress != nullptr) progress->Flush();
  }
};

/// Runs a tuple-level algorithm in a prepared context.
MiningResult RunAlgorithm(const UncertainDatabase& db,
                          const MiningRequest& request,
                          const ExecutionContext& exec) {
  switch (request.algorithm) {
    case Algorithm::kMpfci: {
      WorkStealingDfsFrontier frontier;
      return RunSearch(db, request.params, exec, frontier);
    }
    case Algorithm::kMpfciBfs: {
      LevelSyncBfsFrontier frontier;
      return RunSearch(db, request.params, exec, frontier);
    }
    case Algorithm::kNaive: {
      FlatCheckFrontier frontier;
      return RunSearch(db, request.params, exec, frontier);
    }
    case Algorithm::kTopK: {
      TopKFrontier frontier(request.top_k);
      return RunSearch(db, request.params, exec, frontier);
    }
    // The flat (non-closed) algorithms report their measure in pr_f:
    // PrF for pfi, expected support for esup and esup-fp.
    case Algorithm::kPfi:
      return RunFlat(exec, [&](MiningResult& result) {
        const MiningParams& params = request.params;
        AppendFrequent(
            EnumeratePfis(db, params.min_sup, params.pfct,
                          params.pruning.chernoff, FrequencyMode::kExactDp,
                          &result.stats, TidSetPolicyFor(params), exec),
            &PfiEntry::pr_f, result);
      });
    case Algorithm::kExpectedSupport:
      return RunFlat(exec, [&](MiningResult& result) {
        AppendFrequent(
            EnumerateExpectedSupport(db, EffectiveMinEsup(request),
                                     &result.stats,
                                     TidSetPolicyFor(request.params), exec),
            &ExpectedSupportEntry::expected_support, result);
      });
    case Algorithm::kExpectedSupportFpGrowth:
      return RunFlat(exec, [&](MiningResult& result) {
        FpGrowth(db, EffectiveMinEsup(request),
                 [&](const Itemset& items, double esup) {
                   result.itemsets.push_back(FrequentEntry(items, esup));
                 });
      });
    case Algorithm::kBruteForce:
      return RunBruteForce(db, request, exec);
    case Algorithm::kItemExpectedSupport:
    case Algorithm::kItemPfi:
      break;  // Rejected by MineImpl.
  }
  return MiningResult();
}

/// The run skeleton both Mine() overloads share once a request is valid:
/// builds the thread pool, progress sink, fail-soft controller and session
/// bindings into one ExecutionContext, calls `dispatch(exec)` between the
/// run_begin / run_end trace events, and flushes the sinks on every exit
/// path. `resume` (nullable) is the verified snapshot the run continues;
/// a stopped run with a snapshot.save_path persists its state under
/// `fingerprint`.
template <typename DispatchFn>
MiningResult RunRequest(const MiningRequest& request,
                        const SessionBindings* bindings,
                        const RunSnapshot* resume, std::uint64_t fingerprint,
                        DispatchFn&& dispatch) {
  // Thread-count 0 means "library default": share the lazily-created
  // global pool. An explicit count gets a dedicated pool of that size so
  // the request's policy is honored exactly.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (request.execution.num_threads == 0) {
    pool = &ThreadPool::Shared();
  } else {
    owned_pool =
        std::make_unique<ThreadPool>(ResolveNumThreads(request.execution));
    pool = owned_pool.get();
  }

  std::unique_ptr<ProgressSink> sink;
  if (request.progress) {
    sink = std::make_unique<ProgressSink>(request.progress,
                                          request.progress_interval);
  }

  RunController controller(request.budget, request.cancel);

  // A save path arms drain-at-unit-boundary suspension for the
  // frontier-resumable algorithms: a stop request then lets in-flight
  // units finish (refusing new ones), so the captured frontier needs no
  // attribution surgery. Arming makes the controller active, so the
  // runtime is always wired when a snapshot may be written.
  RunSnapshot save_snapshot;
  const bool save_requested = !request.snapshot.save_path.empty();
  if (save_requested && SupportsFrontierResume(request.algorithm)) {
    controller.ArmSuspend();
  }

  ExecutionContext exec;
  exec.pool = pool;
  exec.deterministic = request.execution.deterministic;
  exec.progress = sink.get();
  exec.trace = request.trace;
  if (controller.active()) exec.runtime = &controller;
  exec.resume_snapshot = resume;
  if (save_requested) exec.save_snapshot = &save_snapshot;
  if (bindings != nullptr) {
    exec.shared_index = bindings->index;
    exec.eval_cache = bindings->eval_cache;
    exec.warm_start = bindings->warm_start;
    exec.table_band = bindings->table_band;
  }

  // Sinks flush on every exit path: a cancelled or deadline-stopped run
  // still delivers its final progress snapshot and buffered trace events.
  FlushOnExit flusher{exec.trace, sink.get()};

  TraceRunBegin(exec.trace, AlgorithmName(request.algorithm));
  MiningResult result = dispatch(exec);

  if (resume != nullptr) result.stats.resumed = true;
  if (!result.ok() && result.status_message.empty()) {
    result.status_message =
        std::string("run stopped: ") + OutcomeName(result.outcome());
  }
  // A stopped run persists its state for a later resume. Algorithms
  // without frontier capture (or runs stopped before the first drain)
  // write a restart-only marker — resuming from it reruns from scratch,
  // which is trivially bit-identical. The atomic save is retried with
  // backoff; a persistent failure is reported in status_message but
  // never changes the run's outcome (the in-memory result is still a
  // verified partial answer).
  if (save_requested && !result.ok() &&
      result.outcome() != Outcome::kInvalidRequest) {
    save_snapshot.algorithm = AlgorithmName(request.algorithm);
    save_snapshot.fingerprint = fingerprint;
    RetryPolicy retry;
    retry.seed = request.params.seed;
    const RetryResult saved = RetryWithBackoff(retry, [&] {
      return SaveRunSnapshotAtomic(save_snapshot, request.snapshot.save_path);
    });
    if (saved.succeeded) {
      result.stats.snapshot_bytes = SerializeRunSnapshot(save_snapshot).size();
    } else {
      result.status_message += "; snapshot save failed after " +
                               std::to_string(saved.attempts) +
                               " attempts: " + saved.last_error;
    }
  }
  TraceRunEnd(exec.trace, AlgorithmName(request.algorithm),
              result.itemsets.size(), result.stats.seconds);
  return result;
}

MiningResult MineImpl(const UncertainDatabase& db,
                      const MiningRequest& request,
                      const SessionBindings* bindings) {
  const std::string error = ValidateRequest(request);
  if (!error.empty()) {
    // API-boundary errors are reported as data, not aborts: the caller
    // gets an empty result carrying the diagnosis.
    return InvalidRequestResult(error);
  }
  if (IsItemLevel(request.algorithm)) {
    return InvalidRequestResult(
        std::string("algorithm ") + AlgorithmName(request.algorithm) +
        " mines an ItemUncertainDatabase; use the item-level Mine() "
        "overload");
  }
  if (request.algorithm == Algorithm::kBruteForce &&
      db.size() > kMaxEnumerableTransactions) {
    return InvalidRequestResult(
        "algorithm brute enumerates all 2^n possible worlds and requires "
        "db.size() <= " +
        std::to_string(kMaxEnumerableTransactions) + " (got " +
        std::to_string(db.size()) + ")");
  }

  // Resume loads and verifies the snapshot before any work: a missing,
  // torn, or mismatched snapshot is an API-boundary error reported as
  // data, never a silent from-scratch rerun.
  const std::uint64_t fingerprint =
      UsesSnapshot(request) ? RequestFingerprint(db, request) : 0;
  RunSnapshot resume_snapshot;
  bool resuming = false;
  if (!request.snapshot.resume_path.empty()) {
    const std::string load_error =
        LoadRunSnapshot(request.snapshot.resume_path, &resume_snapshot);
    if (!load_error.empty()) {
      return InvalidRequestResult("snapshot.resume_path: " + load_error);
    }
    if (resume_snapshot.algorithm != AlgorithmName(request.algorithm)) {
      return InvalidRequestResult(
          "snapshot.resume_path: snapshot was written by algorithm '" +
          resume_snapshot.algorithm + "' but the request asks for '" +
          AlgorithmName(request.algorithm) + "'");
    }
    if (resume_snapshot.fingerprint != fingerprint) {
      return InvalidRequestResult(
          "snapshot.resume_path: fingerprint mismatch — the snapshot was "
          "written for a different database or different result-relevant "
          "parameters (thread count and tidset_mode may differ freely)");
    }
    resuming = true;
  }

  return RunRequest(request, bindings, resuming ? &resume_snapshot : nullptr,
                    fingerprint, [&](const ExecutionContext& exec) {
                      return RunAlgorithm(db, request, exec);
                    });
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  for (const AlgorithmNameRow& row : kAlgorithmNames) {
    if (row.algorithm == algorithm) return row.name;
  }
  return "unknown";
}

bool ParseAlgorithm(const std::string& name, Algorithm* algorithm) {
  for (const AlgorithmNameRow& row : kAlgorithmNames) {
    if (name == row.name) {
      *algorithm = row.algorithm;
      return true;
    }
  }
  return false;
}

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> kAll = [] {
    std::vector<Algorithm> all;
    for (const AlgorithmNameRow& row : kAlgorithmNames) {
      all.push_back(row.algorithm);
    }
    return all;
  }();
  return kAll;
}

std::string ValidateRequest(const MiningRequest& request) {
  const std::string params_error = ValidateParams(request.params);
  if (!params_error.empty()) return params_error;
  if (request.algorithm == Algorithm::kTopK) {
    if (request.top_k < 1) {
      return "top_k must be >= 1 for Algorithm::kTopK";
    }
  } else if (request.top_k != 0) {
    return std::string("top_k only applies to Algorithm::kTopK; it must "
                       "stay 0 for algorithm ") +
           AlgorithmName(request.algorithm);
  }
  if (request.execution.num_threads > kMaxNumThreads) {
    return "execution.num_threads must be <= " +
           std::to_string(kMaxNumThreads) + " (0 = all hardware threads)";
  }
  if (request.min_esup < 0.0) {
    return "min_esup must be >= 0";
  }
  if (request.min_esup > 0.0 && !UsesMinEsup(request.algorithm)) {
    return std::string("min_esup only applies to the expected-support "
                       "algorithms (esup, esup-fp, item-esup); it must "
                       "stay 0 for algorithm ") +
           AlgorithmName(request.algorithm);
  }
  if (request.progress && request.progress_interval < 1) {
    return "progress_interval must be >= 1";
  }
  if (request.budget.deadline_seconds < 0.0) {
    return "budget.deadline_seconds must be >= 0";
  }
  if (request.budget.degrade_fraction <= 0.0 ||
      request.budget.degrade_fraction > 1.0) {
    return "budget.degrade_fraction must be in (0, 1]";
  }
  if (UsesSnapshot(request) && !request.execution.deterministic) {
    return "snapshot.save_path / snapshot.resume_path require "
           "execution.deterministic (a nondeterministic run has no "
           "bit-identical continuation to resume)";
  }
  return "";
}

MiningResult Mine(const UncertainDatabase& db, const MiningRequest& request) {
  return MineImpl(db, request, /*bindings=*/nullptr);
}

MiningResult MineWithBindings(const UncertainDatabase& db,
                              const MiningRequest& request,
                              const SessionBindings& bindings) {
  return MineImpl(db, request, &bindings);
}

MiningResult Mine(const ItemUncertainDatabase& db,
                  const MiningRequest& request) {
  const std::string error = ValidateRequest(request);
  if (!error.empty()) return InvalidRequestResult(error);
  if (!IsItemLevel(request.algorithm)) {
    return InvalidRequestResult(
        std::string("algorithm ") + AlgorithmName(request.algorithm) +
        " mines a tuple-level UncertainDatabase; the item-level Mine() "
        "overload serves item-esup and item-pfi");
  }
  if (UsesSnapshot(request)) {
    return InvalidRequestResult(
        "snapshot save/resume applies to the tuple-level Mine() overload "
        "only");
  }

  return RunRequest(request, /*bindings=*/nullptr, /*resume=*/nullptr,
                    /*fingerprint=*/0, [&](const ExecutionContext& exec) {
                      return RunItemLevel(db, request, exec);
                    });
}

}  // namespace pfci
