// Flat (non-closed) itemset enumeration — the kernel's frequent-itemset
// search primitive.
//
// Enumerates every itemset whose anti-monotone measure qualifies by one
// sequential depth-first walk over the vertical index: PrF(X) > pft
// (Definition 3.5, qualified by the CandidateOracle), or expected support
// >= min_esup (the U-Apriori model of [9]). Both measures only shrink as
// X grows, so the enumeration is complete. The PrF walk is the PFI
// baseline, the "PFI" series of Fig. 10 and the candidate stage of the
// Naive checker (Fig. 5); it lives in the kernel so frontier policies can
// call it without depending on any miner entry point.
#ifndef PFCI_CORE_SEARCH_PFI_ENUMERATION_H_
#define PFCI_CORE_SEARCH_PFI_ENUMERATION_H_

#include <vector>

#include "src/core/execution.h"
#include "src/core/mining_result.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/prob/tail_approximations.h"

namespace pfci {

/// One probabilistic frequent itemset with its frequent probability and
/// tid-list (kept so downstream checkers need not recompute it).
struct PfiEntry {
  Itemset items;
  double pr_f = 0.0;
  TidSet tids;

  friend bool operator<(const PfiEntry& a, const PfiEntry& b) {
    return a.items < b.items;
  }
};

/// An itemset with its expected support.
struct ExpectedSupportEntry {
  Itemset items;
  double expected_support = 0.0;

  friend bool operator<(const ExpectedSupportEntry& a,
                        const ExpectedSupportEntry& b) {
    return a.items < b.items;
  }
};

/// Enumerates all itemsets with PrF(X) > pft at the support threshold
/// `min_sup` (>= 1), sorted canonically. `mode` selects the frequency
/// evaluation (kExactDp, or a distributional tail approximation in the
/// spirit of [3]); `use_chernoff` gates the Lemma 4.1 stage. `stats`
/// (optional) accumulates pruning counters; `policy` selects the tid-set
/// representation (never affects results). `exec.runtime` (optional)
/// makes the enumeration fail-soft: the DFS polls it at node expansion
/// and winds down with a verified prefix when a limit trips.
/// `exec` also carries a MiningSession's shared index, evaluation cache,
/// and warm-start proofs (DESIGN.md §11); warm-start proofs only apply
/// under kExactDp, the one mode they are sound against.
std::vector<PfiEntry> EnumeratePfis(const UncertainDatabase& db,
                                    std::size_t min_sup, double pft,
                                    bool use_chernoff, FrequencyMode mode,
                                    MiningStats* stats,
                                    const TidSetPolicy& policy,
                                    const ExecutionContext& exec);

/// Enumerates all itemsets with expected support >= min_esup (> 0),
/// sorted canonically, by the same walk: the same fail-soft hooks, the
/// same nodes_visited / intersections counters, with pruned_by_frequency
/// counting esup rejections. A session's evaluation cache answers
/// expected supports exactly through its mu entries (DESIGN.md §11).
std::vector<ExpectedSupportEntry> EnumerateExpectedSupport(
    const UncertainDatabase& db, double min_esup, MiningStats* stats,
    const TidSetPolicy& policy, const ExecutionContext& exec);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_PFI_ENUMERATION_H_
