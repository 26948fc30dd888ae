// Execution policy and progress plumbing shared by every miner.
//
// The public knobs live in ExecutionPolicy (how many threads, whether the
// run must be bit-reproducible across thread counts); the runtime state a
// miner actually carries around lives in ExecutionContext (a pool to run
// on, a progress sink to report into). Mine() translates the former into
// the latter; kernels called directly default to a sequential context.
#ifndef PFCI_CORE_EXECUTION_H_
#define PFCI_CORE_EXECUTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/search/threshold_ladder.h"
#include "src/util/runtime.h"
#include "src/util/trace.h"

namespace pfci {

class ThreadPool;
class VerticalIndex;
class EvalCache;
class ItemWarmStart;
struct RunSnapshot;

/// How a mining request is executed.
struct ExecutionPolicy {
  /// Threads the run may use; 0 means "all hardware threads". 1 runs
  /// strictly sequentially on the calling thread.
  std::size_t num_threads = 0;

  /// When true (default), results are bit-identical for every value of
  /// num_threads: subtree/batch RNGs are derived from the seed alone and
  /// reductions happen in a fixed order. When false, sampling batch
  /// granularity may adapt to the thread count (slightly less scheduling
  /// overhead, reproducible only for a fixed num_threads).
  bool deterministic = true;
};

/// Snapshot handed to a progress callback.
struct MiningProgress {
  std::uint64_t nodes_visited = 0;   ///< Search-tree nodes expanded so far.
  std::uint64_t itemsets_found = 0;  ///< Qualifying itemsets emitted so far.
};

/// Observer invoked (at a bounded rate, possibly from worker threads, but
/// never concurrently with itself) while a mining run progresses.
using ProgressCallback = std::function<void(const MiningProgress&)>;

/// Thread-safe, rate-bounded fan-in for progress reporting: miners count
/// events from any thread; the callback fires at most once per `interval`
/// nodes, serialized by an internal mutex.
class ProgressSink {
 public:
  /// `interval` >= 1: minimum node count between callback invocations.
  ProgressSink(ProgressCallback callback, std::uint64_t interval)
      : callback_(std::move(callback)),
        interval_(interval == 0 ? 1 : interval) {}

  /// Records `n` expanded nodes; may fire the callback.
  void AddNodes(std::uint64_t n = 1) {
    const std::uint64_t total =
        nodes_.fetch_add(n, std::memory_order_relaxed) + n;
    MaybeFire(total / interval_);
  }

  /// Records `n` emitted itemsets (never fires by itself; the next node
  /// tick reports it).
  void AddItemsets(std::uint64_t n = 1) {
    itemsets_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Unconditionally reports the final counts (end of the run).
  void Flush() {
    std::lock_guard<std::mutex> lock(fire_mutex_);
    callback_(Snapshot());
  }

 private:
  MiningProgress Snapshot() const {
    MiningProgress progress;
    progress.nodes_visited = nodes_.load(std::memory_order_relaxed);
    progress.itemsets_found = itemsets_.load(std::memory_order_relaxed);
    return progress;
  }

  void MaybeFire(std::uint64_t tick) {
    if (tick <= last_tick_.load(std::memory_order_relaxed)) return;
    // Losing the race just delays the report to the next tick.
    if (!fire_mutex_.try_lock()) return;
    if (last_tick_.load(std::memory_order_relaxed) < tick) {
      last_tick_.store(tick, std::memory_order_relaxed);
      callback_(Snapshot());
    }
    fire_mutex_.unlock();
  }

  ProgressCallback callback_;
  std::uint64_t interval_;
  std::atomic<std::uint64_t> nodes_{0};
  std::atomic<std::uint64_t> itemsets_{0};
  std::atomic<std::uint64_t> last_tick_{0};
  std::mutex fire_mutex_;
};

/// Runtime execution state threaded through the miners. Copyable; all
/// referenced objects are owned by the caller and must outlive the run.
struct ExecutionContext {
  ThreadPool* pool = nullptr;        ///< Null: run sequentially.
  bool deterministic = true;         ///< See ExecutionPolicy.
  ProgressSink* progress = nullptr;  ///< Null: no progress reporting.

  /// Telemetry sink; null (default) disables tracing at zero cost. All
  /// events of one run are emitted from the coordinating thread after the
  /// deterministic merge, so counter values are bit-identical across
  /// thread counts and tid-set modes (see docs/FORMATS.md for the
  /// schema and DESIGN.md §9 for the architecture).
  TraceSink* trace = nullptr;

  /// Fail-soft runtime state (cancellation, deadline, budgets); null
  /// means unlimited. Miners poll it at cooperative checkpoints and wind
  /// down with a verified partial result when it says stop (DESIGN.md
  /// §10).
  RunController* runtime = nullptr;

  /// Session-provided VerticalIndex over the run's database (DESIGN.md
  /// §11); null means "build your own". Miners borrow it when its
  /// database and tid-set mode match the request, skipping the per-run
  /// index build.
  const VerticalIndex* shared_index = nullptr;

  /// Cross-request PrF/esup evaluation cache; null (default) disables
  /// caching. Cached values are exact — results are bit-identical with
  /// the cache on or off; only work counters (dp_runs, cache_hits, ...)
  /// differ.
  EvalCache* eval_cache = nullptr;

  /// Cross-request per-item infrequency proofs; null disables
  /// warm-starting. Like the cache, affects work done, never results.
  ItemWarmStart* warm_start = nullptr;

  /// The thresholds of the planned group this run belongs to ({0, 0}: a
  /// lone run). Freshly computed DP tail bands run from the run's min_sup
  /// up to `table_band.hi` before being cached, so the first
  /// (lowest-threshold) run of a sweep fills a band that answers every
  /// later threshold without re-running the DP. Each band value is
  /// bit-identical to a direct DP at its threshold, so this affects work
  /// done, never results.
  ThresholdBand table_band;

  /// Snapshot to resume the run from; null starts fresh. Owned by the
  /// caller (Mine() loads and fingerprint-checks it); the search driver
  /// hands it to the frontier policy's RestoreState (DESIGN.md §14).
  const RunSnapshot* resume_snapshot = nullptr;

  /// Where the search driver deposits frontier + decided-entry state
  /// when a suspend-armed run drains; null disables state capture. Mine()
  /// owns the object and persists it after the run returns.
  RunSnapshot* save_snapshot = nullptr;
};

/// Threads a policy resolves to on this machine (>= 1).
std::size_t ResolveNumThreads(const ExecutionPolicy& policy);

/// Reusable scratch buffers for one PrF evaluation: the gathered
/// transaction probabilities and the truncated Poisson-binomial DP row.
/// Buffers grow to the run's high-water mark and are then reused, so the
/// per-node cost of PrF is a copy + DP with zero heap allocation.
struct DpWorkspace {
  std::vector<double> probs;  ///< ProbsOf(Tids(X)) gather target.
  std::vector<double> dp;     ///< DP row of length min_sup.
};

/// The calling thread's workspace (thread_local, allocated on first use).
///
/// Safe under the work-stealing helping scheduler because a workspace's
/// contents are only live inside a single PrF evaluation, which never
/// suspends: a task that blocks in ParallelFor and "helps" by running
/// another task on the same thread can only reach this workspace between
/// PrF calls, when its contents are dead.
DpWorkspace& LocalDpWorkspace();

}  // namespace pfci

#endif  // PFCI_CORE_EXECUTION_H_
