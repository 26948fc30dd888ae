// Frequent-probability evaluation (Definition 3.4).
//
// PrF(X) = Pr{support(X) >= min_sup} where support(X) is Poisson-binomial
// over the existence probabilities of Tids(X). The evaluator combines the
// exact O(n * min_sup) dynamic program with Chernoff-Hoeffding short
// circuits: when the tail bound already pins the probability to 0 or 1
// within 1e-15 the DP is skipped (far below any decision threshold).
//
// Hot-path calls take a DpWorkspace so the probability gather and the DP
// row reuse per-thread buffers; the workspace-free overloads fall back to
// the calling thread's LocalDpWorkspace().
#ifndef PFCI_CORE_FREQUENT_PROBABILITY_H_
#define PFCI_CORE_FREQUENT_PROBABILITY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/execution.h"
#include "src/data/tidset.h"
#include "src/data/vertical_index.h"

namespace pfci {

class EvalCache;

/// Evaluates frequent probabilities against a fixed database and min_sup.
///
/// With a non-null EvalCache (session runs), PrF(tids) first consults the
/// cache: a stored tail band containing this min_sup answers it
/// bit-identically to a direct DP (see PoissonBinomialTailBand), and the
/// cached mu replays
/// the Chernoff short circuits exactly, so caching never changes a
/// returned value — only the dp_runs / cache_* work counters.
class FrequentProbability {
 public:
  /// `table_band` (only meaningful with a cache): the thresholds of the
  /// planned group this run belongs to, {0, 0} for a lone run. Freshly
  /// computed tail bands cover min_sup..max(min_sup, table_band.hi), so a
  /// sweep's lowest-threshold run prefills answers for the higher ones.
  FrequentProbability(const VerticalIndex& index, std::size_t min_sup,
                      EvalCache* cache = nullptr,
                      ThresholdBand table_band = {});

  /// Exact PrF over the transactions in `tids` (modulo the 1e-15 short
  /// circuits described above). Uses the calling thread's workspace.
  double PrF(const TidSet& tids) const;

  /// As above with an explicit workspace (zero-alloc once warm).
  double PrF(const TidSet& tids, DpWorkspace& workspace) const;

  /// Exact PrF from raw probabilities.
  double PrFFromProbs(const std::vector<double>& probs) const;
  double PrFFromProbs(const std::vector<double>& probs,
                      std::vector<double>* dp_scratch) const;

  /// Cheap upper bound on PrF (Lemma 4.1's Chernoff-Hoeffding bound):
  /// never smaller than the exact value. Allocation-free.
  double PrFUpperBound(const TidSet& tids) const;

  std::size_t min_sup() const { return min_sup_; }
  const VerticalIndex& index() const { return *index_; }

  /// Number of exact DP executions so far (work accounting). The counter
  /// is atomic so one evaluator can be shared by all tasks of a parallel
  /// mining run; the total is deterministic (the set of DPs executed does
  /// not depend on scheduling), only the increment order varies.
  std::uint64_t dp_runs() const {
    return dp_runs_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    dp_runs_.store(0, std::memory_order_relaxed);
    cache_hits_.store(0, std::memory_order_relaxed);
    cache_misses_.store(0, std::memory_order_relaxed);
    dp_reused_.store(0, std::memory_order_relaxed);
  }

  /// Per-evaluator cache accounting (all zero without a cache).
  /// cache_hits: probes answered from a stored entry without running a
  /// DP; dp_reused: the subset of hits served from a stored tail table
  /// (the rest were short-circuit replays off the cached mu);
  /// cache_misses: probes that had to gather probabilities and compute.
  /// Unlike dp_runs' total, these can vary with scheduling when worker
  /// threads race on the same first evaluation — values stay exact.
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t dp_reused() const {
    return dp_reused_.load(std::memory_order_relaxed);
  }

 private:
  double CachedPrF(const TidSet& tids, DpWorkspace& workspace) const;

  const VerticalIndex* index_;
  std::size_t min_sup_;
  EvalCache* cache_ = nullptr;
  ThresholdBand table_band_;
  mutable std::atomic<std::uint64_t> dp_runs_{0};
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::atomic<std::uint64_t> dp_reused_{0};
};

}  // namespace pfci

#endif  // PFCI_CORE_FREQUENT_PROBABILITY_H_
