#include "src/exact/fp_growth.h"

#include <algorithm>

#include "src/exact/fp_tree.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// Recursive FP-growth over a tree built from `rows`. `suffix` holds the
/// items conditioned on so far (as a sorted itemset is rebuilt at emit
/// time, internal order does not matter).
template <typename Weight>
void Grow(const std::vector<WeightedItemList<Weight>>& rows,
          Weight min_weight, std::vector<Item>& suffix,
          const std::function<void(const Itemset&, Weight)>& emit) {
  const FpTree<Weight> tree(rows);
  for (const auto& entry : tree.header()) {
    if (entry.total_count < min_weight) continue;
    suffix.push_back(entry.item);
    emit(Itemset(suffix), entry.total_count);

    // Build the conditional base restricted to items still frequent there.
    std::vector<WeightedItemList<Weight>> base =
        tree.ConditionalPatternBase(entry.item);
    if (!base.empty()) {
      // Count items in the conditional base and drop infrequent ones.
      std::size_t max_item_plus_one = 0;
      for (const auto& row : base) {
        for (Item item : row.items) {
          max_item_plus_one =
              std::max(max_item_plus_one, std::size_t{item} + 1);
        }
      }
      std::vector<Weight> counts(max_item_plus_one, 0);
      for (const auto& row : base) {
        for (Item item : row.items) counts[item] += row.count;
      }
      std::vector<WeightedItemList<Weight>> filtered;
      filtered.reserve(base.size());
      for (auto& row : base) {
        WeightedItemList<Weight> kept;
        kept.count = row.count;
        for (Item item : row.items) {
          if (counts[item] >= min_weight) kept.items.push_back(item);
        }
        if (!kept.items.empty()) filtered.push_back(std::move(kept));
      }
      if (!filtered.empty()) Grow(filtered, min_weight, suffix, emit);
    }
    suffix.pop_back();
  }
}

/// FP-growth over weighted transactions: `rows` holds one entry per
/// transaction (its items, its weight in `count`).
template <typename Weight>
void FpGrowthWeighted(
    std::vector<WeightedItemList<Weight>> rows, Weight min_weight,
    const std::function<void(const Itemset&, Weight)>& emit) {
  // Global item weights; order items by descending weight (ties by id)
  // for compact trees.
  std::size_t max_item_plus_one = 0;
  for (const auto& row : rows) {
    for (Item item : row.items) {
      max_item_plus_one = std::max(max_item_plus_one, std::size_t{item} + 1);
    }
  }
  std::vector<Weight> weights(max_item_plus_one, 0);
  for (const auto& row : rows) {
    for (Item item : row.items) weights[item] += row.count;
  }
  std::vector<Item> frequent_items;
  for (std::size_t item = 0; item < weights.size(); ++item) {
    if (weights[item] >= min_weight) {
      frequent_items.push_back(static_cast<Item>(item));
    }
  }
  std::sort(frequent_items.begin(), frequent_items.end(),
            [&](Item a, Item b) {
              if (weights[a] != weights[b]) return weights[a] > weights[b];
              return a < b;
            });
  std::vector<std::size_t> rank(weights.size(), 0);
  std::vector<bool> is_frequent(weights.size(), false);
  for (std::size_t r = 0; r < frequent_items.size(); ++r) {
    rank[frequent_items[r]] = r;
    is_frequent[frequent_items[r]] = true;
  }

  // Keep each row's frequent items, in rank order; drop emptied rows.
  for (auto& row : rows) {
    std::erase_if(row.items, [&](Item item) { return !is_frequent[item]; });
    std::sort(row.items.begin(), row.items.end(),
              [&](Item a, Item b) { return rank[a] < rank[b]; });
  }
  std::erase_if(rows, [](const auto& row) { return row.items.empty(); });

  std::vector<Item> suffix;
  Grow(rows, min_weight, suffix, emit);
}

}  // namespace

void FpGrowth(const TransactionDatabase& db, std::size_t min_sup,
              const std::function<void(const Itemset&, std::size_t)>& emit) {
  PFCI_CHECK(min_sup >= 1);
  std::vector<WeightedItemList<std::size_t>> rows;
  rows.reserve(db.size());
  for (const Itemset& t : db.transactions()) rows.push_back({t.items(), 1});
  FpGrowthWeighted(std::move(rows), min_sup, emit);
}

void FpGrowth(const UncertainDatabase& db, double min_esup,
              const std::function<void(const Itemset&, double)>& emit) {
  PFCI_CHECK(min_esup > 0.0);
  std::vector<WeightedItemList<double>> rows;
  rows.reserve(db.size());
  for (const auto& t : db.transactions()) {
    rows.push_back({t.items.items(), t.prob});
  }
  FpGrowthWeighted(std::move(rows), min_esup, emit);
}

std::vector<SupportedItemset> MineFrequentItemsets(
    const TransactionDatabase& db, std::size_t min_sup) {
  std::vector<SupportedItemset> result;
  FpGrowth(db, min_sup, [&](const Itemset& itemset, std::size_t support) {
    result.push_back(SupportedItemset{itemset, support});
  });
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace pfci
