// MiningSession: an amortized serving layer over one uncertain database
// (DESIGN.md §11).
//
// Mine() is a single-shot API: every call builds a VerticalIndex, runs,
// and throws all derived state away. A MiningSession amortizes that work
// across requests against the SAME database — the dominant serving
// pattern (threshold sweeps, parameter exploration, dashboards):
//
//   * the tid-set index layer is built once per tid-set mode and shared
//     by every request (borrowed through ExecutionContext::shared_index);
//   * per-tidset evaluation results (expected support mu, Poisson-
//     binomial tail bands) persist in a bounded EvalCache; a tail band
//     computed over thresholds lo..hi answers every min_sup inside it
//     without re-running the DP (a band hit), and a min_sup outside
//     every cached band recomputes;
//   * per-item infrequency proofs persist in an ItemWarmStart, letting
//     later runs at equal-or-higher min_sup reject items up front
//     (anti-monotonicity).
//
// Determinism: session state never changes results. Cached values are
// bit-identical to what a cold run computes (see FrequentProbability and
// PoissonBinomialTailBand), warm-start proofs only skip work whose
// outcome they already verified, and sampled FCP values are seed-derived
// per run and never cached. A session run differs from a cold run only in
// the work counters (dp_runs, cache_hits, cache_misses, dp_reused,
// cache_bytes).
//
// Beyond one-at-a-time Mine(), the session serves whole workloads
// (DESIGN.md §15): MineBatch() plans a set of requests into shared-scan
// groups (BatchPlanner) so compatible requests pay for candidate-index
// builds and DP tail bands once, in the group's lowest-threshold run, and
// Submit() runs one request asynchronously behind a RunHandle. Both
// compose with admission control and keep every per-request result
// bit-identical to a standalone Mine() of the same request.
//
// Thread safety: one session may serve concurrent Mine() calls; the
// caches are internally synchronized and the index map is mutex-guarded.
// The database must outlive the session and stay unmodified.
#ifndef PFCI_SERVE_MINING_SESSION_H_
#define PFCI_SERVE_MINING_SESSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/core/mine.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/serve/run_handle.h"
#include "src/util/stopwatch.h"

namespace pfci {

/// Knobs fixed at session open.
struct SessionOptions {
  /// Byte budget of the evaluation cache (LRU-evicted). 0 disables the
  /// cache entirely (runs still share the prepared index).
  std::size_t cache_bytes = std::size_t{64} << 20;

  /// Lock shards of the evaluation cache (>= 1 when the cache is on).
  std::size_t cache_shards = 8;

  /// Keep per-item infrequency proofs across requests.
  bool warm_start = true;

  /// Admission control (DESIGN.md §14): maximum number of concurrently
  /// executing Mine()/MineBatch-member runs. 0 disables admission control
  /// (every request runs immediately). A request arriving with
  /// max_inflight runs already executing is queued if queue room exists,
  /// else rejected immediately (Outcome::kRejected, sub-millisecond, no
  /// effect on in-flight runs).
  std::size_t max_inflight = 0;

  /// Requests allowed to wait for an execution slot when the session is
  /// at max_inflight. 0: no queue — excess requests are rejected
  /// immediately. A queued request with a deadline budget waits at most
  /// its own deadline before coming back as kRejected (deadline-aware
  /// rejection: a request that would wake with no time left is refused
  /// rather than started doomed).
  std::size_t max_queue_depth = 0;
};

/// Checks `options`; empty string when valid.
std::string ValidateSessionOptions(const SessionOptions& options);

class MiningSession {
 public:
  /// Opens a session over `db` (kept by reference; must outlive the
  /// session) and prepares the default tid-set index layer up front.
  /// CHECK-fails on invalid options — validate first when they come from
  /// user input.
  static MiningSession Open(const UncertainDatabase& db,
                            SessionOptions options = SessionOptions{});

  MiningSession(MiningSession&&) = default;

  /// Drains the target session's submitted runs before replacing it (a
  /// joinable worker must never be dropped).
  MiningSession& operator=(MiningSession&& other);

  /// Joins every Submit() worker still running: a RunHandle that
  /// outlives its session therefore always holds a completed result and
  /// never dangles into freed session state.
  ~MiningSession();

  /// Serves one request with the session's shared index and caches.
  /// Identical results to Mine(db, request) — see the determinism note
  /// above — with stats.cache_* reporting the session's cache work.
  MiningResult Mine(const MiningRequest& request);

  /// Resumes a suspended run from the snapshot at `path` through the
  /// session's shared index and caches: serves `request` with
  /// snapshot.resume_path bound to `path`. Verification (algorithm +
  /// database/request fingerprint) and the bit-identical resume contract
  /// are Mine()'s (see SnapshotPolicy); a mismatch comes back as
  /// kInvalidRequest. Note the cross-request caches can change dp_runs
  /// relative to a cold resume — results are unaffected.
  MiningResult ResumeFrom(const std::string& path,
                          const MiningRequest& request);

  /// Submits one request for asynchronous execution and returns a handle
  /// immediately; the run executes on a session worker thread through
  /// the same admission control, index, and caches as Mine(). All
  /// failures are error-as-data through the handle (kInvalidRequest,
  /// kRejected, kCancelled, ...) — Submit itself never blocks on the
  /// run. The handle owns cancellation (RunHandle::Cancel), so a request
  /// carrying its own cancel token is answered kInvalidRequest. Results
  /// are bit-identical to a synchronous Mine() of the same request.
  ///
  /// Worker lifetime: each call also joins the workers of earlier
  /// Submits that have already published their result (a join that
  /// waits only for the thread to exit). A session therefore holds a
  /// thread per run still in flight or finished since the last Submit,
  /// not one per run ever submitted. The destructor joins the rest.
  RunHandle Submit(const MiningRequest& request);

  /// Serves a whole batch with shared-scan planning (DESIGN.md §15):
  /// PlanBatch groups compatible requests (same algorithm + tid-set
  /// mode), each group runs ascending-threshold with DP tail bands
  /// reaching the group's largest threshold, and distinct groups run
  /// concurrently (their work units interleave on the shared
  /// work-stealing pool under fair-share UnitQuota). Results come back
  /// in submission order, each bit-identical to a standalone Mine() of
  /// that request; invalid members come back kInvalidRequest without
  /// perturbing the rest. Every result is stamped with the batch
  /// counters (stats.batch_size, batch_groups, shared_dp_hits,
  /// queued_micros; stats-json schema v6).
  ///
  /// A min_sup sweep is a batch of requests differing only in min_sup:
  /// they form one group, so the lowest threshold runs first and caches
  /// DP tail bands from its own threshold up to the largest — its
  /// candidates are a superset of every later run's (anti-monotonicity),
  /// and the higher thresholds are band hits that skip the DP.
  std::vector<MiningResult> MineBatch(std::span<const MiningRequest> requests);

  const UncertainDatabase& db() const { return *state_->db; }
  const SessionOptions& options() const { return state_->options; }

  /// Session cache observability (zero with the cache disabled).
  std::uint64_t cache_bytes() const;
  std::uint64_t cache_entries() const;
  std::uint64_t cache_evictions() const;

  /// Items with a recorded warm-start proof (0 with warm_start off).
  std::size_t warm_items_recorded() const;

  /// Admission observability: currently executing runs / total requests
  /// rejected by admission control since Open.
  std::size_t inflight() const;
  std::uint64_t admission_rejected() const;

 private:
  /// All session state sits behind one pointer so the session is movable
  /// while runs hold stable addresses into it.
  struct State {
    const UncertainDatabase* db = nullptr;
    SessionOptions options;
    std::unique_ptr<EvalCache> cache;      ///< Null when cache_bytes == 0.
    std::unique_ptr<ItemWarmStart> warm;   ///< Null when warm_start off.

    /// One prepared index per tid-set mode, built on first use.
    std::mutex index_mutex;
    std::map<TidSetMode, std::unique_ptr<VerticalIndex>> indexes;

    /// Admission control state (all under admission_mutex). Admission
    /// never touches the caches or the index map, so a rejection can
    /// never perturb an in-flight run.
    std::mutex admission_mutex;
    std::condition_variable admission_cv;
    std::size_t inflight = 0;
    std::size_t queued = 0;
    std::uint64_t rejected = 0;

    /// One Submit() worker and the ticket it signals when it finishes.
    struct SubmitWorker {
      std::thread thread;
      std::shared_ptr<internal::RunTicket> ticket;
    };

    /// Submit() workers not yet joined. Each Submit() joins the ones
    /// whose ticket is done, so finished threads do not pile up over a
    /// long-lived session; DrainSubmitted (destructor / move-assignment)
    /// joins the rest. Guarded by submit_mutex.
    std::mutex submit_mutex;
    std::vector<SubmitWorker> submit_workers;
  };

  explicit MiningSession(std::unique_ptr<State> state)
      : state_(std::move(state)) {}

  /// The session index for this request's tid-set policy (built under the
  /// mutex on first use; stable address afterwards).
  ///
  /// These helpers are static over State rather than members: Submit()
  /// workers and batch group threads outlast any particular `this` (the
  /// session is movable), so everything they touch goes through the
  /// stable State address.
  static const VerticalIndex& IndexFor(State& state,
                                       const MiningParams& params);

  /// One request with session bindings attached; `table_band` is the
  /// planned group's thresholds, so freshly cached DP tail bands reach
  /// its top for batch prefilling ({0, 0} outside planned execution).
  static MiningResult MineStep(State& state, const MiningRequest& request,
                               ThresholdBand table_band);

  /// Takes an execution slot (possibly waiting up to `deadline_seconds`
  /// in the admission queue); false means rejected. Always true with
  /// admission control off.
  static bool Admit(State& state, double deadline_seconds);
  static void Release(State& state);

  /// Body of one Submit() worker: waits out nothing, runs the request
  /// (unless cancelled before start), publishes through the ticket.
  static void RunSubmitted(State* state,
                           std::shared_ptr<internal::RunTicket> ticket,
                           MiningRequest request, Stopwatch queued);

  /// Joins every submitted worker (idempotent).
  static void DrainSubmitted(State& state);

  std::unique_ptr<State> state_;
};

}  // namespace pfci

#endif  // PFCI_SERVE_MINING_SESSION_H_
