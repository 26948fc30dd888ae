#include "src/core/search/search_driver.h"

#include "src/core/index_handle.h"
#include "src/util/failpoint.h"
#include "src/util/stopwatch.h"
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

void ClosedDfs(ClosedDfsContext& dfs, const Itemset& x, const TidSet& tids,
               double pr_f, std::size_t last_candidate_pos) {
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

  if (ctx.params->pruning.superset &&
      ctx.closure->SupersetPruned(x, tids, stats)) {
    ++stats.pruned_by_superset;
    return;
  }

  bool x_may_be_closed = true;
  for (std::size_t c = last_candidate_pos + 1; c < dfs.candidates->size();
       ++c) {
    if (dfs.unit->truncated || StopRequested(ctx.rt)) return;
    const Item item = (*dfs.candidates)[c];
    const TidSet child_tids = Intersect(tids, ctx.index->TidsOfItem(item));
    ++stats.intersections;
    const bool same_count = child_tids.size() == tids.size();
    if (ctx.params->pruning.subset && same_count) {
      // Lemma 4.3: X always co-occurs with X+item, so X is never closed;
      // and any sibling X+e_k (e_k > item) always co-occurs with
      // X+e_k+item, so the remaining branches are dead too.
      x_may_be_closed = false;
    }

    QualifyRequest req;
    req.threshold = dfs.threshold();
    req.count_floor = dfs.count_floor;
    req.workspace = dfs.workspace;
    const double child_pr_f = ctx.oracle->Qualify(child_tids, req, &stats);
    if (child_pr_f > req.threshold) {
      ClosedDfs(dfs, x.WithItem(item), child_tids, child_pr_f, c);
    }
    if (ctx.params->pruning.subset && same_count) break;
  }

  if (dfs.unit->truncated || StopRequested(ctx.rt)) return;
  if (!x_may_be_closed) {
    ++stats.pruned_by_subset;
    return;
  }
  const FcpComputation comp =
      ctx.closure->CertifyAt(dfs.threshold(), x, tids, pr_f, *dfs.rng, &stats,
                             dfs.workspace, dfs.unit);
  if (comp.undecided) return;
  if (comp.is_pfci) dfs.emit(MakePfciEntry(x, comp));
}

}  // namespace pfci
