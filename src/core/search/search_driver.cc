#include "src/core/search/search_driver.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/index_handle.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace pfci {

MiningResult RunSearch(const UncertainDatabase& db, const MiningParams& params,
                       const ExecutionContext& exec, FrontierPolicy& policy) {
  Stopwatch timer;
  MiningResult result;
  const IndexHandle index_handle(db, TidSetPolicyFor(params), exec);
  const VerticalIndex& index = index_handle.get();
  const FrequentProbability freq(index, params.min_sup, exec.eval_cache,
                                 exec.table_band);
  const FcpEngine engine(index, freq, params, exec);
  const CandidateOracle oracle(index, freq, params.pruning.chernoff,
                               FrequencyMode::kExactDp, exec.warm_start);
  const ClosureOperator closure(index, engine);
  RunController* rt = exec.runtime;
  const SearchContext ctx{&db,   &params, &exec,    &index,
                          &freq, &oracle, &closure, rt};

  // The index (built or session-borrowed) was charged into the memory
  // budget by the handle; checkpoint so an undersized budget fails
  // before any search work.
  CheckpointAtRunStart(rt);

  // Resume replaces the candidate build: the frontier policy reloads the
  // suspended run's candidates, frontier, decided entries, and base
  // counters under the same trace span, so a resumed run's trace shape is
  // identical to an uninterrupted run's.
  const RunSnapshot* resume = exec.resume_snapshot;
  const bool restoring =
      resume != nullptr && resume->has_frontier && policy.SupportsResume();
  if (restoring || policy.candidates_when_stopped() || !StopRequested(rt)) {
    TraceSpan span(exec.trace, "candidate_build",
                   &result.stats.candidate_seconds);
    if (restoring) {
      policy.RestoreState(ctx, *resume, result);
    } else {
      policy.BuildCandidates(ctx, result);
    }
  }
  {
    TraceSpan span(exec.trace, policy.phase_name(),
                   &result.stats.search_seconds);
    policy.Search(ctx, result);
  }
  {
    TraceSpan span(exec.trace, "merge", &result.stats.merge_seconds);
    policy.Merge(ctx, result);
    // The shared-evaluator counters fold once, on the coordinating
    // thread. Added (not assigned): a policy whose candidate phase ran a
    // nested enumeration (Naive's PFI stage) already accumulated that
    // stage's evaluator counts.
    result.stats.dp_runs += freq.dp_runs();
    result.stats.cache_hits += freq.cache_hits();
    result.stats.cache_misses += freq.cache_misses();
    result.stats.dp_reused += freq.dp_reused();
  }
  if (rt != nullptr) {
    result.stats.outcome = rt->outcome();
    result.stats.truncated = rt->truncated();
  }
  // A drained suspend-armed run deposits its frontier state for Mine()
  // to persist. The post-merge result.stats are exactly the snapshot's
  // base: no unit was half-done, so nothing needs attribution.
  if (exec.save_snapshot != nullptr && rt != nullptr && rt->suspend_armed() &&
      rt->SuspendRequested() && policy.SupportsResume()) {
    policy.SaveState(ctx, result, *exec.save_snapshot);
    exec.save_snapshot->has_frontier = true;
  }
  result.stats.seconds = timer.ElapsedSeconds();
  result.stats.EmitTrace(exec.trace);
  return result;
}

namespace {

enum NodeState : int { kUnclaimed, kClaimed, kExplored };

struct DfsNode;

/// The counters one child examination can move: its Intersect plus one
/// CandidateOracle::Qualify, which bumps each of these at most once.
/// Packed, because an explored node holds one per examined child.
struct ChildWork {
  std::uint8_t pruned_by_chernoff = 0;
  std::uint8_t pruned_by_frequency = 0;
  std::uint8_t dp_runs = 0;
  std::uint8_t cache_hits = 0;
  std::uint8_t cache_misses = 0;
  std::uint8_t dp_reused = 0;

  explicit ChildWork(const MiningStats& qualify) {
    PFCI_DCHECK(qualify.pruned_by_chernoff <= 1 &&
                qualify.pruned_by_frequency <= 1 && qualify.dp_runs <= 1 &&
                qualify.cache_hits <= 1 && qualify.cache_misses <= 1 &&
                qualify.dp_reused <= 1);
    pruned_by_chernoff = static_cast<std::uint8_t>(qualify.pruned_by_chernoff);
    pruned_by_frequency =
        static_cast<std::uint8_t>(qualify.pruned_by_frequency);
    dp_runs = static_cast<std::uint8_t>(qualify.dp_runs);
    cache_hits = static_cast<std::uint8_t>(qualify.cache_hits);
    cache_misses = static_cast<std::uint8_t>(qualify.cache_misses);
    dp_reused = static_cast<std::uint8_t>(qualify.dp_reused);
  }

  void AddTo(MiningStats& stats) const {
    ++stats.intersections;
    stats.pruned_by_chernoff += pruned_by_chernoff;
    stats.pruned_by_frequency += pruned_by_frequency;
    stats.dp_runs += dp_runs;
    stats.cache_hits += cache_hits;
    stats.cache_misses += cache_misses;
    stats.dp_reused += dp_reused;
  }
};

/// One examined extension X+item of a node.
struct DfsChild {
  DfsChild(bool same, const MiningStats& qualify)
      : same_count(same), work(qualify) {}

  bool same_count;  ///< |Tids(X+item)| == |Tids(X)|.
  ChildWork work;
  std::shared_ptr<DfsNode> node;  ///< Set when X+item qualifies.
};

/// One node of the set-enumeration tree: its explore results and the
/// claim that decides who computes them. Exactly one thread owns the
/// results at a time: the explore task that claimed the node until it
/// publishes kExplored, else the walk.
struct DfsNode {
  DfsNode(Itemset items, const TidSet* borrowed, double pr_f, std::size_t pos)
      : x(std::move(items)), tids(borrowed), pr_f(pr_f), last_pos(pos) {}
  DfsNode(Itemset items, TidSet tids, double pr_f, std::size_t pos)
      : x(std::move(items)),
        owned_tids(std::move(tids)),
        tids(&owned_tids),
        pr_f(pr_f),
        last_pos(pos) {}
  ~DfsNode() {
    if (cap_slot != nullptr) cap_slot->fetch_sub(1, std::memory_order_relaxed);
  }
  DfsNode(const DfsNode&) = delete;
  DfsNode& operator=(const DfsNode&) = delete;

  Itemset x;
  TidSet owned_tids;
  const TidSet* tids;  ///< owned_tids, or the index's tid-set at a root.
  double pr_f;
  std::size_t last_pos;

  bool head_done = false;
  bool superset_pruned = false;
  MiningStats head;  ///< The superset-pruning work.
  std::vector<DfsChild> children;
  bool children_done = false;  ///< Every child up to the subset break.
  bool may_be_closed = true;
  std::size_t fork_from = 0;  ///< First child not yet offered to the pool.
  std::optional<FcpPrepared> cert;
  MiningStats cert_stats;  ///< The FcpEngine::Prepare work.

  std::atomic<int> state{kUnclaimed};
  /// The look-ahead reservation this node holds while explored ahead.
  std::atomic<std::size_t>* cap_slot = nullptr;
};

/// One ClosedDfs call: the walk's context plus the explore tasks it
/// spawned, which must all finish before the call returns.
struct DfsWalk {
  ClosedDfsContext* dfs = nullptr;
  DfsLookahead* lookahead = nullptr;
  double fixed_threshold = 0.0;  ///< The threshold, with look-ahead.
  std::atomic<std::size_t> in_flight{0};
  std::atomic<bool> finished{false};

  double Threshold() const {
    return lookahead != nullptr ? fixed_threshold : dfs->threshold();
  }
};

void ExamineHead(const SearchContext& ctx, DfsNode& node) {
  if (node.head_done) return;
  node.head_done = true;
  node.superset_pruned = ctx.params->pruning.superset &&
                         ctx.closure->SupersetPruned(node.x, *node.tids,
                                                     node.head);
}

/// Examines child `i` of `node` (the candidate at last_pos + 1 + i)
/// unless that is already done; false when there is no such child.
bool ExamineChild(const ClosedDfsContext& dfs, DfsNode& node, std::size_t i,
                  double threshold, DpWorkspace* workspace) {
  if (i < node.children.size()) return true;
  if (node.children_done) return false;
  const SearchContext& ctx = *dfs.ctx;
  const std::size_t pos = node.last_pos + 1 + i;
  // Lemma 4.3: X always co-occurs with X+item, so X is never closed; and
  // any sibling X+e_k (e_k > item) always co-occurs with X+e_k+item, so
  // the remaining branches are dead too.
  if (pos >= dfs.candidates->size() ||
      (i > 0 && ctx.params->pruning.subset &&
       node.children.back().same_count)) {
    node.children_done = true;
    return false;
  }
  const Item item = (*dfs.candidates)[pos];
  TidSet child_tids = Intersect(*node.tids, ctx.index->TidsOfItem(item));
  const bool same_count = child_tids.size() == node.tids->size();
  if (ctx.params->pruning.subset && same_count) node.may_be_closed = false;
  QualifyRequest req;
  req.threshold = threshold;
  req.count_floor = dfs.count_floor;
  req.workspace = workspace;
  MiningStats qualify;
  const double child_pr_f = ctx.oracle->Qualify(child_tids, req, &qualify);
  DfsChild& child = node.children.emplace_back(same_count, qualify);
  if (child_pr_f > threshold) {
    child.node = std::make_shared<DfsNode>(node.x.WithItem(item),
                                           std::move(child_tids), child_pr_f,
                                           pos);
  }
  return true;
}

void PrepareCert(const SearchContext& ctx, DfsNode& node, double threshold,
                 DpWorkspace* workspace) {
  if (node.cert.has_value()) return;
  node.cert.emplace(ctx.closure->engine().Prepare(
      threshold, node.x, *node.tids, node.pr_f, &node.cert_stats, workspace));
}

void ExploreTask(DfsWalk& walk, std::shared_ptr<DfsNode> node);

/// Queues explore tasks for `node`'s qualifying children, in candidate
/// order, while the look-ahead cap has room.
void Fork(DfsWalk& walk, DfsNode& node) {
  DfsLookahead& lookahead = *walk.lookahead;
  for (; node.fork_from < node.children.size(); ++node.fork_from) {
    const std::shared_ptr<DfsNode>& child = node.children[node.fork_from].node;
    if (child == nullptr) continue;
    if (lookahead.nodes.fetch_add(1, std::memory_order_relaxed) >=
        lookahead.cap) {
      lookahead.nodes.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    child->cap_slot = &lookahead.nodes;
    walk.in_flight.fetch_add(1, std::memory_order_relaxed);
    lookahead.pool->Spawn([&walk, target = child]() mutable {
      ExploreTask(walk, std::move(target));
    });
  }
}

/// The explore step of a node claimed by a pool task: only StopRequested
/// is polled, and all work lands in the node's partials.
void ExploreTask(DfsWalk& walk, std::shared_ptr<DfsNode> node) {
  int expected = kUnclaimed;
  if (!walk.finished.load(std::memory_order_relaxed) &&
      node->state.compare_exchange_strong(expected, kClaimed,
                                          std::memory_order_acq_rel)) {
    const ClosedDfsContext& dfs = *walk.dfs;
    const SearchContext& ctx = *dfs.ctx;
    DpWorkspace* workspace = &LocalDpWorkspace();
    const double threshold = walk.fixed_threshold;
    ExamineHead(ctx, *node);
    if (!node->superset_pruned) {
      for (std::size_t i = 0;
           !StopRequested(ctx.rt) &&
           ExamineChild(dfs, *node, i, threshold, workspace);
           ++i) {
      }
      Fork(walk, *node);
      if (node->children_done && node->may_be_closed &&
          !StopRequested(ctx.rt)) {
        PrepareCert(ctx, *node, threshold, workspace);
      }
    }
    node->state.store(kExplored, std::memory_order_release);
  }
  // Drop the node before signalling: the walk may free the tree as soon
  // as in_flight reaches zero.
  node.reset();
  walk.in_flight.fetch_sub(1, std::memory_order_release);
}

/// Once look-ahead is open, examines all of a walk-owned node's children
/// and offers the qualifying ones after child `next` to the pool. The
/// first qualifying child from `next` on is the walk's own next stop, so
/// it explores that one itself rather than wait for a task: a node with
/// one qualifying child forks nothing.
void MaybeFork(DfsWalk& walk, DfsNode& node, std::size_t next) {
  if (walk.lookahead == nullptr || !walk.lookahead->Open()) return;
  const ClosedDfsContext& dfs = *walk.dfs;
  for (std::size_t i = node.children.size();
       !StopRequested(dfs.ctx->rt) &&
       ExamineChild(dfs, node, i, walk.fixed_threshold, dfs.workspace);
       ++i) {
  }
  while (next < node.children.size() && node.children[next].node == nullptr) {
    ++next;
  }
  node.fork_from = std::max(node.fork_from, next + 1);
  Fork(walk, node);
}

/// Takes ownership of a node for the walk, or waits (helping the pool)
/// for the explore task that claimed it first.
void AcquireNode(DfsWalk& walk, DfsNode& node) {
  int expected = kUnclaimed;
  if (node.state.compare_exchange_strong(expected, kClaimed,
                                         std::memory_order_acq_rel)) {
    return;
  }
  ThreadPool& pool = *walk.lookahead->pool;
  while (node.state.load(std::memory_order_acquire) != kExplored) {
    if (!pool.RunPendingTask()) std::this_thread::yield();
  }
}

/// The retire step: today's sequential walk over explored (or
/// explored-on-arrival) nodes.
void RetireNode(DfsWalk& walk, DfsNode& node) {
  ClosedDfsContext& dfs = *walk.dfs;
  const SearchContext& ctx = *dfs.ctx;
  MiningStats& stats = *dfs.stats;
  // Node-expansion checkpoint (DESIGN.md §10). After any truncation the
  // unit winds down without evaluating anything further: a later sampled
  // evaluation would read a shifted RNG stream and no longer match the
  // unbudgeted run.
  PFCI_FAILPOINT(dfs.failpoint);
  if (CheckpointNow(ctx.rt)) return;
  if (!dfs.unit->TakeNode()) return;
  ++stats.nodes_visited;
  if (ctx.exec->progress != nullptr) ctx.exec->progress->AddNodes();
  AcquireNode(walk, node);

  ExamineHead(ctx, node);
  stats.MergeCounters(node.head);
  if (node.superset_pruned) {
    ++stats.pruned_by_superset;
    return;
  }

  for (std::size_t i = 0;; ++i) {
    if (dfs.unit->truncated || StopRequested(ctx.rt)) return;
    MaybeFork(walk, node, i);
    if (!ExamineChild(dfs, node, i, walk.Threshold(), dfs.workspace)) break;
    DfsChild& child = node.children[i];
    child.work.AddTo(stats);
    if (child.node != nullptr) {
      RetireNode(walk, *child.node);
      child.node.reset();
    }
  }

  if (dfs.unit->truncated || StopRequested(ctx.rt)) return;
  if (!node.may_be_closed) {
    ++stats.pruned_by_subset;
    return;
  }
  PrepareCert(ctx, node, walk.Threshold(), dfs.workspace);
  stats.MergeCounters(node.cert_stats);
  const FcpComputation comp =
      ctx.closure->engine().Sample(*node.cert, *dfs.rng, &stats, dfs.unit);
  node.cert.reset();
  if (comp.undecided) return;
  if (comp.is_pfci) dfs.emit(MakePfciEntry(node.x, comp));
}

}  // namespace

void ClosedDfs(ClosedDfsContext& dfs, const Itemset& x, const TidSet& tids,
               double pr_f, std::size_t last_candidate_pos) {
  DfsWalk walk;
  walk.dfs = &dfs;
  walk.lookahead = dfs.lookahead;
  if (walk.lookahead != nullptr) walk.fixed_threshold = dfs.threshold();
  {
    DfsNode root(x, &tids, pr_f, last_candidate_pos);
    RetireNode(walk, root);
    walk.finished.store(true, std::memory_order_relaxed);
    // Explore tasks still queued or running point into this walk (and
    // into the tree): help until every one has let go.
    while (walk.in_flight.load(std::memory_order_acquire) != 0) {
      if (!walk.lookahead->pool->RunPendingTask()) std::this_thread::yield();
    }
  }
}

}  // namespace pfci
