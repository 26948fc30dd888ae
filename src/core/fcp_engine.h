// Frequent-closed-probability engine: the Bounding-Pruning-Checking
// pipeline of Fig. 1 applied to a single itemset.
//
// Given X (and its tid-list), the engine builds the extension events and
// then spends as little work as possible to decide whether PrFC(X) > pfct:
//   1. a same-count extension makes PrFC exactly 0 (Lemmas 4.2/4.3);
//   2. Lemma 4.4 bounds may settle the comparison outright;
//   3. otherwise inclusion-exclusion (few events) or ApproxFCP (many).
#ifndef PFCI_CORE_FCP_ENGINE_H_
#define PFCI_CORE_FCP_ENGINE_H_

#include <cstdint>
#include <optional>

#include "src/core/execution.h"
#include "src/core/extension_events.h"
#include "src/core/fcp_bounds.h"
#include "src/core/frequent_probability.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/data/vertical_index.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {

/// Everything the engine learned about one itemset.
struct FcpComputation {
  double pr_f = 0.0;
  double fcp = 0.0;
  FcpBounds bounds;
  bool bounds_computed = false;
  FcpMethod method = FcpMethod::kUndecided;
  bool is_pfci = false;
  std::uint64_t samples = 0;

  /// True when the evaluation could not be carried to a verdict: the
  /// sample budget refused the required draws, or a global stop aborted
  /// the sampler mid-estimate. An undecided itemset must not be emitted,
  /// and (to keep the per-unit RNG stream aligned with an unbudgeted run)
  /// the calling work unit must stop evaluating further itemsets.
  bool undecided = false;
};

/// The random-number-free part of one evaluation (FcpEngine::Prepare):
/// a verdict when the same-count rule, the Lemma 4.4 bounds or exact
/// inclusion-exclusion settled it, else the extension events the sampler
/// step (FcpEngine::Sample) draws from. A pure function of (X, Tids(X),
/// PrF(X), threshold), so it may be computed ahead of time on any thread.
struct FcpPrepared {
  FcpComputation comp;
  double threshold = 0.0;  ///< The threshold Prepare decided against.
  bool degraded = false;   ///< Exact IE gave way to the sampler (deadline).
  /// Held only while the sampler still has to run; a decided evaluation
  /// drops its events. Points at the Tids(X) passed to Prepare.
  std::optional<ExtensionEventSet> events;

  bool NeedsSampler() const { return events.has_value(); }
};

/// Stateless evaluator bound to a database and mining parameters. Safe to
/// share across threads: Evaluate only mutates caller-owned state (`rng`,
/// `stats`).
class FcpEngine {
 public:
  /// `index` and `freq` must outlive the engine. `exec.pool`, when set,
  /// parallelizes the ApproxFCP sample batches; `exec.progress` is unused
  /// here.
  FcpEngine(const VerticalIndex& index, const FrequentProbability& freq,
            const MiningParams& params,
            const ExecutionContext& exec = ExecutionContext{});

  /// Decides whether X (with Tids(X) = `tids` and PrF(X) = `pr_f`)
  /// qualifies, with early exits against params.pfct. `stats` may be
  /// null; `workspace`, when given, supplies the PrF scratch buffers for
  /// extension-event construction (else the calling thread's workspace).
  ///
  /// `unit`, when given, is the caller's logical sample ledger: the full
  /// Karp-Luby sample requirement is claimed from it before the sampler
  /// runs, so an estimate is complete or not attempted (result.undecided).
  /// Under deadline pressure (exec.runtime->ShouldDegradeFcp()) exact
  /// inclusion-exclusion evaluations degrade to the ApproxFCP sampler,
  /// counted in stats->degraded_fcp_evals.
  FcpComputation Evaluate(const Itemset& x, const TidSet& tids, double pr_f,
                          Rng& rng, MiningStats* stats,
                          DpWorkspace* workspace = nullptr,
                          WorkUnitBudget* unit = nullptr) const;

  /// As Evaluate, but with the decision threshold supplied per call
  /// instead of read from params.pfct. This is what a rising top-k floor
  /// needs: the same pipeline, early-exiting against the k-th best FCP in
  /// hand rather than the request's static threshold.
  FcpComputation EvaluateAt(double threshold, const Itemset& x,
                            const TidSet& tids, double pr_f, Rng& rng,
                            MiningStats* stats,
                            DpWorkspace* workspace = nullptr,
                            WorkUnitBudget* unit = nullptr) const;

  /// EvaluateAt in two steps. Prepare runs everything that draws no
  /// random number (extension events, zero-by-count, Lemma 4.4 bounds,
  /// exact inclusion-exclusion) and counts that work into `stats`; it
  /// touches no RNG, budget or checkpoint and reads `tids` until Sample
  /// returns. Sample finishes a prepared evaluation: when the sampler is
  /// needed it claims the samples from `unit` and runs ApproxFcp on
  /// `rng`, else it returns Prepare's verdict. Evaluate(At) is exactly
  /// Sample(Prepare(...)).
  FcpPrepared Prepare(double threshold, const Itemset& x, const TidSet& tids,
                      double pr_f, MiningStats* stats,
                      DpWorkspace* workspace = nullptr) const;
  FcpComputation Sample(FcpPrepared& prepared, Rng& rng, MiningStats* stats,
                        WorkUnitBudget* unit = nullptr) const;

  /// Computes PrFC(X) to full available precision regardless of pfct
  /// (bounds are still used to report [lower, upper]).
  FcpComputation ComputeFcp(const Itemset& x, Rng& rng) const;

  const FrequentProbability& freq() const { return *freq_; }
  const MiningParams& params() const { return params_; }

 private:
  const VerticalIndex* index_;
  const FrequentProbability* freq_;
  MiningParams params_;
  ExecutionContext exec_;
};

}  // namespace pfci

#endif  // PFCI_CORE_FCP_ENGINE_H_
