// Frequency-style mining under item-level uncertainty (the [9]/[12]
// related-work model; see item_uncertain_database.h for scope notes).
//
// Both measures reduce to the tuple-level machinery because support(X)
// is Poisson-binomial over the per-transaction containment probabilities:
//  * expected support: U-Apriori-style DFS with anti-monotone pruning
//    (Π p only shrinks when X grows);
//  * probabilistic frequent itemsets: the exact DP of [22] plus
//    Chernoff-Hoeffding pruning, unchanged.
#ifndef PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_
#define PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_

#include <vector>

#include "src/core/expected_support_miner.h"
#include "src/data/item_uncertain_database.h"

namespace pfci {

/// An item-level probabilistic frequent itemset.
struct ItemPfiEntry {
  Itemset items;
  double pr_f = 0.0;

  friend bool operator<(const ItemPfiEntry& a, const ItemPfiEntry& b) {
    return a.items < b.items;
  }
};

namespace internal {
/// Mines all itemsets with expected support >= min_esup (> 0) under
/// item-level uncertainty (U-Apriori's measure [9]). Reached through the
/// item-level Mine() overload with Algorithm::kItemExpectedSupport.
std::vector<ExpectedSupportEntry> MineExpectedSupportItemLevel(
    const ItemUncertainDatabase& db, double min_esup);

/// Mines all itemsets with Pr{support >= min_sup} > pft under item-level
/// uncertainty (the probabilistic frequent model applied to [9]'s data).
/// Reached through the item-level Mine() overload with
/// Algorithm::kItemPfi.
std::vector<ItemPfiEntry> MinePfiItemLevel(const ItemUncertainDatabase& db,
                                           std::size_t min_sup, double pft);
}  // namespace internal

}  // namespace pfci

#endif  // PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_
