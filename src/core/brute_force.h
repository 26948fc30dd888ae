// Brute-force oracles over explicit possible-world enumeration.
//
// The naive method of Sec. I ("first enumerates all possible worlds ...
// and mines all frequent closed itemsets in each possible world").
// Exponential in the number of transactions — these exist as ground truth
// for tests and the tiny paper examples (Table III).
#ifndef PFCI_CORE_BRUTE_FORCE_H_
#define PFCI_CORE_BRUTE_FORCE_H_

#include <cstddef>
#include <vector>

#include "src/core/execution.h"
#include "src/core/mining_result.h"
#include "src/data/itemset.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// Exact per-itemset probabilities accumulated over all possible worlds.
struct WorldProbabilities {
  double pr_f = 0.0;   ///< Frequent probability (Definition 3.4).
  double pr_c = 0.0;   ///< Closed probability (Definition 3.6).
  double pr_fc = 0.0;  ///< Frequent closed probability (Definition 3.7).
};

/// Computes PrF / PrC / PrFC of a single itemset exactly. The world space
/// is partitioned into fixed index ranges that fan out over `exec.pool`;
/// partial sums merge in range order, so the result does not depend on
/// the thread count.
///
/// Fail-soft: `exec.runtime`, when set, is polled at world-range
/// boundaries. A sum missing worlds would simply be wrong — no partial
/// answer exists here — so a stopped run returns a zeroed/empty result
/// (the caller reads the stop reason off the controller).
WorldProbabilities BruteForceItemsetProbabilities(
    const UncertainDatabase& db, const Itemset& x, std::size_t min_sup,
    const ExecutionContext& exec = ExecutionContext{});

/// An itemset with its exact frequent closed probability.
struct FcpGroundTruth {
  Itemset items;
  double fcp = 0.0;

  friend bool operator<(const FcpGroundTruth& a, const FcpGroundTruth& b) {
    return a.items < b.items;
  }
};

/// Exact PrFC of every itemset that is frequent closed in at least one
/// possible world, obtained by mining each world. Parallelized like
/// BruteForceItemsetProbabilities (fixed ranges, in-order merge).
std::vector<FcpGroundTruth> BruteForceAllFcp(
    const UncertainDatabase& db, std::size_t min_sup,
    const ExecutionContext& exec = ExecutionContext{});

namespace internal {
/// Exact probabilistic frequent closed itemsets: PrFC(X) > pfct.
/// Reached through Mine() with Algorithm::kBruteForce (which also
/// enforces the kMaxEnumerableTransactions guard as request validation).
std::vector<FcpGroundTruth> BruteForceMinePfci(
    const UncertainDatabase& db, std::size_t min_sup, double pfct,
    const ExecutionContext& exec = ExecutionContext{});
}  // namespace internal

}  // namespace pfci

#endif  // PFCI_CORE_BRUTE_FORCE_H_
