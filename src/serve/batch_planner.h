// BatchPlanner: shared-scan grouping of concurrent mining requests
// (DESIGN.md §15).
//
// Requests that differ only in min_sup share almost all of their work —
// the candidate-index build, the CandidateOracle::Qualify tid-set
// scans, and the Poisson-binomial tail bands are all computed over the
// same tidsets, and a tail band computed over the group's thresholds
// answers every member as an EvalCache band hit. The planner makes that
// sharing explicit: it partitions a batch into compatibility groups
// keyed by (algorithm, tid-set mode), orders each group's members on the
// kernel's ThresholdLadder (ascending min_sup, stable), and assigns the
// group the ladder's threshold band so the first member's freshly
// computed bands reach far enough to answer everyone behind it.
//
// Planning is pure and deterministic — same requests, same plan — and
// never changes results: grouping only decides who pays for shared DP
// work first, and cached values are bit-identical to cold computation.
#ifndef PFCI_SERVE_BATCH_PLANNER_H_
#define PFCI_SERVE_BATCH_PLANNER_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/core/mine.h"

namespace pfci {

/// One compatibility group of a planned batch: members share one
/// algorithm and tid-set mode, so one shared pass serves all of them.
struct BatchGroup {
  Algorithm algorithm = Algorithm::kMpfci;
  TidSetMode tidset_mode = TidSetMode::kAdaptive;

  /// Request indexes (positions in the planned span) in execution
  /// order: ascending min_sup, ties in submission order. members[0] is
  /// the group leader — the run that pays for the shared index build
  /// and DP tables the others reuse.
  std::vector<std::size_t> members;

  /// The group's smallest and largest thresholds: every member caches
  /// DP tail bands that reach the top (SessionBindings::table_band).
  ThresholdBand band;
};

/// A planned batch: execution groups plus the requests rejected at plan
/// time. Every request index appears exactly once — either in one
/// group's members or in `invalid`.
struct BatchPlan {
  /// Groups in first-appearance order of their (algorithm, mode) key,
  /// so the plan is deterministic in the submission order.
  std::vector<BatchGroup> groups;

  /// Requests rejected before execution, with the validation diagnosis
  /// (parallel vectors; reasons lack the "invalid MiningRequest: "
  /// prefix — the executor stamps it, matching Mine()).
  std::vector<std::size_t> invalid;
  std::vector<std::string> invalid_reasons;

  /// Total requests planned (groups' members + invalid).
  std::size_t size = 0;
};

/// Plans `requests` into compatibility groups. A request that fails
/// ValidateRequest lands in `invalid` instead of a group.
BatchPlan PlanBatch(std::span<const MiningRequest> requests);

}  // namespace pfci

#endif  // PFCI_SERVE_BATCH_PLANNER_H_
