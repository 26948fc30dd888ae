// Multi-threshold execution planning for the search kernel (DESIGN.md
// §15): the ordering rule that makes one shared pass answer a whole
// group of runs that differ only in min_sup.
//
// Both EvalCache tail tables and ItemWarmStart proofs are monotone in
// the threshold: a Poisson-binomial tail table computed at threshold S
// answers every min_sup <= S bit-identically, and an infrequency proof
// at min_sup s transfers to every s' >= s (anti-monotonicity, Lemma in
// the paper's Sec. 4). So a set of thresholds over one database is
// cheapest executed ascending with every freshly computed table extended
// to the ladder's top — the lowest-threshold run prefills answers for
// all the others. PlanThresholdLadder encodes exactly that rule; the
// serving layer's BatchPlanner delegates to it so the "which member pays
// for the DP work" decision lives in one place.
#ifndef PFCI_CORE_SEARCH_THRESHOLD_LADDER_H_
#define PFCI_CORE_SEARCH_THRESHOLD_LADDER_H_

#include <cstddef>
#include <span>
#include <vector>

namespace pfci {

/// An execution plan over runs that differ only in min_sup.
struct ThresholdLadder {
  /// Member indexes (positions in the planned span) in execution order:
  /// ascending threshold, ties kept in submission order (stable), so
  /// the plan — and every counter downstream of it — is deterministic.
  /// order[0] is the ladder leader: the member that pays for the shared
  /// candidate-index build and DP tables everyone else reuses.
  std::vector<std::size_t> order;

  /// The largest threshold in the ladder. Runs executed under this plan
  /// pass it as ExecutionContext::table_floor so every tail table they
  /// cache is extended far enough to answer all later members.
  std::size_t table_floor = 0;

  bool empty() const { return order.empty(); }
  std::size_t size() const { return order.size(); }
};

/// Plans the ascending-threshold execution order for `thresholds` (one
/// per member, in submission order). An empty span yields an empty plan
/// with table_floor 0.
ThresholdLadder PlanThresholdLadder(std::span<const std::size_t> thresholds);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_THRESHOLD_LADDER_H_
