// Multi-threshold execution planning for the search kernel (DESIGN.md
// §15): the ordering rule that makes one shared pass answer a whole
// group of runs that differ only in min_sup.
//
// Both EvalCache tail bands and ItemWarmStart proofs carry across
// thresholds: a Poisson-binomial tail band computed over thresholds
// lo..hi answers every min_sup inside it bit-identically (a band hit),
// and an infrequency proof at min_sup s transfers to every s' >= s
// (anti-monotonicity, Lemma in the paper's Sec. 4). So a set of
// thresholds over one database is cheapest executed ascending with every
// freshly computed band running from the run's own min_sup up to the
// ladder's top — the lowest-threshold run fills the whole ladder's band
// and answers for all the others. PlanThresholdLadder encodes exactly
// that rule; the serving layer's BatchPlanner delegates to it so the
// "which member pays for the DP work" decision lives in one place.
#ifndef PFCI_CORE_SEARCH_THRESHOLD_LADDER_H_
#define PFCI_CORE_SEARCH_THRESHOLD_LADDER_H_

#include <cstddef>
#include <span>
#include <vector>

namespace pfci {

/// A closed range lo..hi of min_sup thresholds; {0, 0} means none.
struct ThresholdBand {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// An execution plan over runs that differ only in min_sup.
struct ThresholdLadder {
  /// Member indexes (positions in the planned span) in execution order:
  /// ascending threshold, ties kept in submission order (stable), so
  /// the plan — and every counter downstream of it — is deterministic.
  /// order[0] is the ladder leader: the member that pays for the shared
  /// candidate-index build and DP tables everyone else reuses.
  std::vector<std::size_t> order;

  /// The ladder's smallest and largest thresholds. Runs executed under
  /// this plan pass it as ExecutionContext::table_band so every tail band
  /// they cache reaches the top of the ladder and answers all later
  /// members.
  ThresholdBand band;

  bool empty() const { return order.empty(); }
  std::size_t size() const { return order.size(); }
};

/// Plans the ascending-threshold execution order for `thresholds` (one
/// per member, in submission order). An empty span yields an empty plan
/// with band {0, 0}.
ThresholdLadder PlanThresholdLadder(std::span<const std::size_t> thresholds);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_THRESHOLD_LADDER_H_
