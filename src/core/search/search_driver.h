// The run skeleton of the unified search kernel (DESIGN.md §12).
//
// Every MiningResult-producing miner is the same five-act play: build the
// index and evaluators, filter first-level candidates, enumerate a
// frontier, merge deterministically, stamp outcome/timing/telemetry. The
// SearchDriver owns the play; a FrontierPolicy supplies the enumeration
// strategy (work-stealing DFS, level-synchronous BFS, threshold-adaptive
// top-k, flat single-pass checking). The miners' entry points reduce to
// "validate, pick a policy, run the driver".
//
// Invariant carried over from the pre-kernel miners: for a fixed request,
// results, stats counters, and trace event sequences are bit-identical
// across thread counts and tid-set modes, including truncated fail-soft
// partials (tests/kernel_parity_test.cc pins this against pre-refactor
// goldens).
#ifndef PFCI_CORE_SEARCH_SEARCH_DRIVER_H_
#define PFCI_CORE_SEARCH_SEARCH_DRIVER_H_

#include <atomic>
#include <cstddef>
#include <functional>

#include "src/core/execution.h"
#include "src/core/fcp_engine.h"
#include "src/core/frequent_probability.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/core/search/candidate_oracle.h"
#include "src/core/search/closure_operator.h"
#include "src/core/search/run_snapshot.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {

/// Read-only run state the driver hands to its policy: the request, the
/// shared evaluators, and the kernel layers built over them.
struct SearchContext {
  const UncertainDatabase* db;
  const MiningParams* params;
  const ExecutionContext* exec;
  const VerticalIndex* index;
  const FrequentProbability* freq;
  const CandidateOracle* oracle;
  const ClosureOperator* closure;
  RunController* rt;  ///< exec->runtime (null: unlimited).
};

/// One enumeration strategy. Policies are single-use: a fresh instance
/// per run carries the per-run frontier state (candidate lists, levels,
/// the top-k pool).
class FrontierPolicy {
 public:
  virtual ~FrontierPolicy() = default;

  /// Search-phase trace span name ("dfs", "bfs", "sampling").
  virtual const char* phase_name() const = 0;

  /// Whether the candidate phase must run even after a global stop
  /// (Naive's PFI stage owns its own fail-soft winding-down, including
  /// the memory-budget charges of its nested index build).
  virtual bool candidates_when_stopped() const { return false; }

  /// Filters the first level (runs under the "candidate_build" span).
  virtual void BuildCandidates(const SearchContext& ctx,
                               MiningResult& result) = 0;

  /// Enumerates and evaluates the frontier (under the phase_name span).
  virtual void Search(const SearchContext& ctx, MiningResult& result) = 0;

  /// Folds per-task partials and orders the output (under the "merge"
  /// span; the driver folds the shared evaluator counters afterwards).
  virtual void Merge(const SearchContext& ctx, MiningResult& result) = 0;

  /// Checkpoint/resume (DESIGN.md §14). A policy that supports resume
  /// implements all three; the driver then replaces BuildCandidates with
  /// RestoreState when ExecutionContext::resume_snapshot is set (same
  /// trace span, so the resumed run's trace shape matches an
  /// uninterrupted run) and calls SaveState after Merge when a
  /// suspend-armed run drained. RestoreState must rebuild the candidate /
  /// frontier state WITHOUT recomputation-visible counter bumps — the
  /// suspended run's counters arrive wholesale via AddBaseStats, and the
  /// resumed totals must equal an uninterrupted run's.
  virtual bool SupportsResume() const { return false; }
  virtual void RestoreState(const SearchContext& ctx,
                            const RunSnapshot& snapshot,
                            MiningResult& result) {
    (void)ctx;
    (void)snapshot;
    (void)result;
  }
  virtual void SaveState(const SearchContext& ctx, const MiningResult& result,
                         RunSnapshot& snapshot) const {
    (void)ctx;
    (void)result;
    (void)snapshot;
  }
};

/// Runs one mining request through `policy`, replaying the shared
/// contract: run-start checkpoint, the candidate_build / phase / merge
/// trace spans, the shared-evaluator counter fold, outcome stamping, and
/// post-merge counter telemetry. `params` must already be validated.
MiningResult RunSearch(const UncertainDatabase& db, const MiningParams& params,
                       const ExecutionContext& exec, FrontierPolicy& policy);

/// Run-wide look-ahead state of one parallel MPFCI search (DESIGN.md §7).
/// With it, idle pool threads explore tree nodes (everything that draws
/// no random number) ahead of each unit's walk, which still retires the
/// nodes one by one in sequential order.
struct DfsLookahead {
  ThreadPool* pool = nullptr;  ///< Runs the explore tasks (> 1 thread).
  /// Cap on nodes explored ahead and not yet retired, over all units.
  std::size_t cap = 0;
  std::atomic<std::size_t> nodes{0};
  /// First-level units not yet started. Look-ahead stays off until it
  /// reaches 0: while units wait, the unit loop already has work for
  /// every thread.
  std::atomic<std::size_t> units_waiting{0};

  bool Open() const {
    return units_waiting.load(std::memory_order_relaxed) == 0;
  }
};

/// Per-call state of one closed-itemset DFS work unit (an MPFCI
/// first-level subtree, or the top-k run's single unit). The stats/rng/
/// unit objects are owned by the caller and mutated in place.
struct ClosedDfsContext {
  const SearchContext* ctx;
  const std::vector<Item>* candidates;  ///< First-level extension items.
  MiningStats* stats;
  Rng* rng;
  DpWorkspace* workspace;  ///< Null: certify without a workspace (top-k).
  WorkUnitBudget* unit;
  const char* failpoint;  ///< Node-expansion failpoint name.
  bool count_floor;       ///< Child floor rejections bump pruned_by_frequency.
  /// The pruning threshold, re-read per child (constant pfct, or the
  /// top-k rising floor).
  std::function<double()> threshold;
  /// Receives each certified qualifying itemset (appends to a partial
  /// result, or offers into the top-k pool). Owns progress reporting.
  std::function<void(PfciEntry)> emit;
  /// Null: each node is explored as the walk reaches it. Set only with a
  /// constant `threshold` (explored-ahead work is decided against it).
  DfsLookahead* lookahead = nullptr;
};

/// The set-enumeration-tree DFS shared by the work-stealing and top-k
/// frontiers: checkpoint, superset pruning, child qualification through
/// the oracle, subset pruning, and endgame certification (Fig. 1's
/// Bounding-Pruning-Checking per node). `x` extends only with candidate
/// items after position `last_candidate_pos`.
///
/// Each node is split into an explore step (superset pruning, each
/// child's Intersect + Qualify, FcpEngine::Prepare), whose work is kept
/// in per-node counter partials, and a retire step: the walk itself, in
/// sequential order, which does every checkpoint, budget charge, RNG
/// draw and emission and merges a node's partials only when it reaches
/// them. With `dfs.lookahead`, explore steps run ahead on the pool; the
/// results, counters included, are those of the plain walk.
void ClosedDfs(ClosedDfsContext& dfs, const Itemset& x, const TidSet& tids,
               double pr_f, std::size_t last_candidate_pos);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_SEARCH_DRIVER_H_
