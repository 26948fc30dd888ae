// Frequency-style mining under item-level uncertainty (the [9]/[12]
// related-work model; see item_uncertain_database.h for scope notes).
//
// Both measures reduce to the tuple-level machinery because support(X)
// is Poisson-binomial over the per-transaction containment probabilities,
// and both are anti-monotone (Π p only shrinks when X grows), so one
// pruning DFS serves both:
//  * expected support: U-Apriori's measure;
//  * probabilistic frequent itemsets: the exact DP of [22] plus
//    Chernoff-Hoeffding pruning, unchanged.
#ifndef PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_
#define PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_

#include <cstddef>
#include <functional>

#include "src/data/item_uncertain_database.h"
#include "src/data/itemset.h"

namespace pfci {

namespace internal {
/// Receives each qualifying itemset with its measure (expected support or
/// PrF), in DFS order.
using FrequentSink = std::function<void(const Itemset& items, double measure)>;

/// Emits all itemsets with expected support >= min_esup (> 0) under
/// item-level uncertainty (U-Apriori's measure [9]). Reached through the
/// item-level Mine() overload with Algorithm::kItemExpectedSupport.
void MineExpectedSupportItemLevel(const ItemUncertainDatabase& db,
                                  double min_esup, const FrequentSink& emit);

/// Emits all itemsets with Pr{support >= min_sup} > pft under item-level
/// uncertainty (the probabilistic frequent model applied to [9]'s data).
/// Reached through the item-level Mine() overload with
/// Algorithm::kItemPfi.
void MinePfiItemLevel(const ItemUncertainDatabase& db, std::size_t min_sup,
                      double pft, const FrequentSink& emit);
}  // namespace internal

}  // namespace pfci

#endif  // PFCI_CORE_ITEM_UNCERTAIN_MINERS_H_
