// Unified mining entry point: pfci::Mine(db, MiningRequest).
//
// The one way into every miner (MiningSession builds on the same
// primitive, MineWithBindings): a MiningRequest bundles the problem
// parameters (MiningParams), the algorithm to run, the execution policy
// (thread count, determinism), and an optional progress observer. Mine()
// dispatches the paper's searches (MPFCI, MPFCI-BFS, Naive, top-k)
// straight to their frontier policies behind RunSearch
// (src/core/search/) and the PFI and expected-support searches straight
// to the kernel's flat enumeration (src/core/search/pfi_enumeration.h).
// Both overloads run every algorithm inside one run skeleton (thread
// pool, progress sink, fail-soft controller, trace events).
//
// Determinism contract: with execution.deterministic == true (default),
// Mine() produces bit-identical MiningResult.itemsets — including sampled
// fcp values — for every num_threads, because all RNG streams are derived
// from params.seed per unit of work and reductions run in a fixed order.
//
// Request schema (cross-field rules enforced by ValidateRequest):
//
//   field              applies to                 rule
//   -----              ----------                 ----
//   params             all                        ValidateParams(params)
//   algorithm          all                        any Algorithm value
//   execution          all                        num_threads <=
//                                                 kMaxNumThreads (0 =
//                                                 all hardware threads)
//   top_k              kTopK only                 >= 1 for kTopK; must be
//                                                 0 for everything else
//   min_esup           kExpectedSupport,          >= 0; 0 defaults to
//                      kExpectedSupportFpGrowth,  params.min_sup; must be
//                      kItemExpectedSupport       0 for other algorithms
//   progress*          all                        interval >= 1
//   budget             all                        see RunBudget
//   cancel / trace     all                        optional, caller-owned
//                                                 (esup-fp and the
//                                                 item-level algorithms
//                                                 poll budget, deadline
//                                                 and cancel at run start
//                                                 only)
//   snapshot           tuple-level Mine()         paths require
//                                                 execution.deterministic;
//                                                 rejected by the
//                                                 item-level overload
//
// Database kind: Algorithm::kItemExpectedSupport and kItemPfi mine an
// ItemUncertainDatabase and are served by the item-level Mine() overload;
// every other algorithm mines a tuple-level UncertainDatabase. Requests
// routed to the wrong overload come back as kInvalidRequest data, never
// aborts.
#ifndef PFCI_CORE_MINE_H_
#define PFCI_CORE_MINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/execution.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/data/uncertain_database.h"
#include "src/util/runtime.h"

namespace pfci {

class ItemUncertainDatabase;

/// The mining algorithms reachable through Mine().
enum class Algorithm {
  kMpfci,            ///< DFS MPFCI with all prunings (recommended).
  kMpfciBfs,         ///< Breadth-first MPFCI framework.
  kNaive,            ///< PFI mining + per-itemset ApproxFCP (baseline).
  kTopK,             ///< Top-k PFCI by descending PrFC (uses top_k).
  kPfi,              ///< Probabilistic frequent itemsets only (no
                     ///< closedness): entries carry pr_f, fcp is 0.
  kExpectedSupport,  ///< Expected-support frequent itemsets (uses
                     ///< min_esup): the expected support is reported in
                     ///< the pr_f field, fcp is 0.
  kExpectedSupportFpGrowth,  ///< Same answer as kExpectedSupport via the
                             ///< weighted FP-growth baseline (uses
                             ///< min_esup).
  kBruteForce,       ///< Possible-world enumeration oracle: exact PrFC in
                     ///< the fcp field. Only for databases with at most
                     ///< kMaxEnumerableTransactions transactions; larger
                     ///< inputs come back as kInvalidRequest.
  kItemExpectedSupport,  ///< Expected support under item-level
                         ///< uncertainty (item-level overload only).
  kItemPfi,              ///< Probabilistic frequent itemsets under
                         ///< item-level uncertainty (item-level overload
                         ///< only).
};

/// Display name ("mpfci", "bfs", "naive", "topk", "pfi", "esup",
/// "esup-fp", "brute", "item-esup", "item-pfi"). Round-trips through
/// ParseAlgorithm.
const char* AlgorithmName(Algorithm algorithm);

/// Inverse of AlgorithmName: exact (case-sensitive) display-name lookup.
/// Returns false (leaving `algorithm` untouched) for unknown names.
bool ParseAlgorithm(const std::string& name, Algorithm* algorithm);

/// Every Algorithm value, in declaration order — the one list that CLI
/// help text and exhaustive tests iterate.
const std::vector<Algorithm>& AllAlgorithms();

/// Checkpoint/resume bindings for one run (DESIGN.md §14). Both paths
/// are optional and independent; both require
/// execution.deterministic == true (ValidateRequest rejects otherwise —
/// a nondeterministic run has no bit-identical continuation to resume).
struct SnapshotPolicy {
  /// When non-empty and the run stops early (deadline, budget, cancel),
  /// Mine() drains in-flight work at a unit boundary and writes the
  /// run's frontier + decided entries here crash-consistently
  /// (SaveRunSnapshotAtomic, wrapped in RetryWithBackoff). Algorithms
  /// without frontier capture write a restart-only marker. A persistent
  /// write failure is noted in status_message without changing the
  /// run's outcome.
  std::string save_path;

  /// When non-empty, Mine() loads and verifies this snapshot (algorithm
  /// name and database+request fingerprint must match; mismatches come
  /// back as kInvalidRequest) and continues the suspended run. The
  /// resumed result is bit-identical to an uninterrupted run, across
  /// thread counts and tid-set modes.
  std::string resume_path;
};

/// Everything Mine() needs for one run.
struct MiningRequest {
  /// Problem parameters (thresholds, pruning toggles, seed).
  MiningParams params;

  /// Which miner to dispatch to.
  Algorithm algorithm = Algorithm::kMpfci;

  /// Thread count and reproducibility guarantees.
  ExecutionPolicy execution;

  /// Result count for Algorithm::kTopK; must stay 0 for every other
  /// algorithm (ValidateRequest rejects stray values instead of silently
  /// ignoring them).
  std::size_t top_k = 0;

  /// Threshold for the expected-support algorithms; values <= 0 default
  /// to params.min_sup. Must stay 0 for the other algorithms.
  double min_esup = 0.0;

  /// Optional observer for long runs; invoked at most once per
  /// `progress_interval` search nodes (from any thread, never
  /// concurrently), plus once with the final counts.
  ProgressCallback progress;

  /// Minimum node count between progress callbacks (>= 1).
  std::uint64_t progress_interval = 4096;

  /// Optional telemetry sink (null: tracing off, zero overhead). The run
  /// emits run_begin/run_end markers, per-phase spans, and the merged
  /// per-rule pruning counters; counter values are bit-identical across
  /// thread counts. Owned by the caller; must outlive the run.
  TraceSink* trace = nullptr;

  /// Resource limits for the run (default: unlimited). When a limit
  /// trips, Mine() returns a verified partial result with the matching
  /// non-complete Outcome instead of running forever (DESIGN.md §10).
  RunBudget budget;

  /// Optional cooperative cancellation token, polled at the miners'
  /// checkpoints. Owned by the caller; must outlive the run.
  const CancelToken* cancel = nullptr;

  /// Optional checkpoint/resume bindings (empty paths: feature off).
  SnapshotPolicy snapshot;
};

/// Upper bound on ExecutionPolicy::num_threads accepted by
/// ValidateRequest: each thread is a real pool worker, so a larger count
/// is a malformed request, not a wish for more parallelism.
inline constexpr std::size_t kMaxNumThreads = 1024;

/// Checks `request` (including its params, budget, and the cross-field
/// rules in the schema table above); empty string when valid. Error
/// messages name the offending field.
std::string ValidateRequest(const MiningRequest& request);

/// Runs the requested algorithm and returns its result. Invalid requests
/// do NOT abort: Mine() returns an empty result with outcome
/// kInvalidRequest and the ValidateRequest() message in status_message
/// (the API boundary reports errors as data; PFCI_CHECK stays for
/// internal invariants only).
MiningResult Mine(const UncertainDatabase& db, const MiningRequest& request);

/// Item-level uncertainty entry point: serves kItemExpectedSupport and
/// kItemPfi; any other algorithm comes back as kInvalidRequest (those
/// mine tuple-level databases).
MiningResult Mine(const ItemUncertainDatabase& db,
                  const MiningRequest& request);

/// Session-owned state a MiningSession injects into a run (DESIGN.md
/// §11). All pointers are optional and caller-owned; they must outlive
/// the call. Injected state never changes results — only the work done
/// to produce them (see ExecutionContext).
struct SessionBindings {
  /// Prebuilt index over the request's database; borrowed when its
  /// tid-set mode matches the request, else the run builds its own.
  const VerticalIndex* index = nullptr;

  /// Cross-request PrF/esup evaluation cache.
  EvalCache* eval_cache = nullptr;

  /// Cross-request per-item infrequency proofs.
  ItemWarmStart* warm_start = nullptr;

  /// Thresholds of the planned group the run belongs to ({0, 0}: a lone
  /// run). See ExecutionContext::table_band.
  ThresholdBand table_band;
};

/// Mine() with session state attached. This is the primitive
/// MiningSession::Mine is built on; standalone callers can use it to
/// share caches across hand-rolled request loops.
MiningResult MineWithBindings(const UncertainDatabase& db,
                              const MiningRequest& request,
                              const SessionBindings& bindings);

}  // namespace pfci

#endif  // PFCI_CORE_MINE_H_
