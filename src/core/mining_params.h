// Parameters of the probabilistic frequent-closed-itemset miners.
#ifndef PFCI_CORE_MINING_PARAMS_H_
#define PFCI_CORE_MINING_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/data/tidset.h"

namespace pfci {

/// Individually toggleable pruning rules (the algorithm variants of the
/// paper's Table VII are obtained by switching these off one at a time).
struct PruningToggles {
  bool chernoff = true;   ///< Lemma 4.1 Chernoff-Hoeffding pruning.
  bool superset = true;   ///< Lemma 4.2 superset pruning.
  bool subset = true;     ///< Lemma 4.3 subset pruning.
  bool fcp_bounds = true; ///< Lemma 4.4 frequent-closed-probability bounds.
};

/// All knobs of the mining problem and its solvers.
struct MiningParams {
  /// Minimum support threshold (absolute count, >= 1).
  std::size_t min_sup = 1;

  /// Probabilistic frequent closed threshold; an itemset qualifies iff
  /// PrFC(X) > pfct (Definition 3.8).
  double pfct = 0.8;

  /// ApproxFCP relative tolerance (paper's epsilon).
  double epsilon = 0.1;

  /// ApproxFCP failure probability (paper's delta; confidence 1 - delta).
  double delta = 0.1;

  PruningToggles pruning;

  /// When at most this many extension events are active, the frequent
  /// non-closed probability is computed exactly by inclusion-exclusion
  /// instead of sampling (engineering addition, see DESIGN.md §2.7).
  std::size_t exact_event_limit = 14;

  /// Forces the Monte-Carlo path even for few events (used by the
  /// approximation-quality experiments, Fig. 11).
  bool force_sampling = false;

  /// Seed for every stochastic component (sampling); runs are
  /// deterministic given the seed.
  std::uint64_t seed = 1234;

  /// Tid-set representation policy: adaptive (default) picks sparse
  /// vector vs dense bitmap per set by density; sparse/dense force one
  /// representation everywhere. Never affects results, only layout/speed.
  TidSetMode tidset_mode = TidSetMode::kAdaptive;
};

/// The TidSetPolicy a miner should build its VerticalIndex with.
inline TidSetPolicy TidSetPolicyFor(const MiningParams& params) {
  TidSetPolicy policy;
  policy.mode = params.tidset_mode;
  return policy;
}

/// Checks every field of `params`; returns an empty string when valid and
/// a descriptive error otherwise. ValidateRequest (and so Mine() and
/// every MiningSession entry point) funnels through this, so invalid
/// usage fails with the same message everywhere.
std::string ValidateParams(const MiningParams& params);

}  // namespace pfci

#endif  // PFCI_CORE_MINING_PARAMS_H_
