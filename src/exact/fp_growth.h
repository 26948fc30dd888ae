// FP-growth frequent itemset mining over exact data [13].
//
// Used by the compression-quality experiment (Fig. 10: the "FI" series is
// produced by FP-growth on the deterministic dataset) and by the
// possible-world oracles. The weighted form also serves the expected-
// support model: under tuple-level uncertainty the expected support is a
// weighted support (each transaction weighs its existence probability),
// so FP-growth with real-valued counts — UF-growth [15] — mines it.
#ifndef PFCI_EXACT_FP_GROWTH_H_
#define PFCI_EXACT_FP_GROWTH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/data/uncertain_database.h"
#include "src/exact/transaction_database.h"

namespace pfci {

/// Calls `emit(itemset, support)` once for every (non-empty) itemset with
/// support >= min_sup. min_sup must be >= 1. Emission order is
/// unspecified.
void FpGrowth(const TransactionDatabase& db, std::size_t min_sup,
              const std::function<void(const Itemset&, std::size_t)>& emit);

/// UF-growth: calls `emit(itemset, expected_support)` once for every
/// (non-empty) itemset with expected support >= min_esup (> 0), each
/// transaction weighing its existence probability. Weights are summed in
/// transaction order, so a fixed database yields bit-identical values.
/// Emission order is unspecified.
void FpGrowth(const UncertainDatabase& db, double min_esup,
              const std::function<void(const Itemset&, double)>& emit);

/// Convenience wrapper collecting all frequent itemsets, sorted.
std::vector<SupportedItemset> MineFrequentItemsets(
    const TransactionDatabase& db, std::size_t min_sup);

}  // namespace pfci

#endif  // PFCI_EXACT_FP_GROWTH_H_
