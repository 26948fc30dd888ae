#include "src/exact/transaction_database.h"

#include <algorithm>

namespace pfci {

TransactionDatabase TransactionDatabase::FromUncertain(
    const UncertainDatabase& db) {
  TransactionDatabase out;
  for (const auto& t : db.transactions()) out.Add(t.items);
  return out;
}

TransactionDatabase TransactionDatabase::FromWorld(const UncertainDatabase& db,
                                                   const PossibleWorld& world) {
  TransactionDatabase out;
  for (Tid tid = 0; tid < db.size(); ++tid) {
    if (world.IsPresent(tid)) out.Add(db.transaction(tid).items);
  }
  return out;
}

std::size_t TransactionDatabase::Support(const Itemset& x) const {
  std::size_t support = 0;
  for (const Itemset& t : transactions_) {
    if (x.IsSubsetOf(t)) ++support;
  }
  return support;
}

std::vector<Item> TransactionDatabase::ItemUniverse() const {
  std::vector<Item> universe;
  for (const Itemset& t : transactions_) {
    universe.insert(universe.end(), t.items().begin(), t.items().end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  return universe;
}

std::size_t TransactionDatabase::MaxItemPlusOne() const {
  std::size_t max_plus_one = 0;
  for (const Itemset& t : transactions_) {
    if (!t.empty()) {
      max_plus_one = std::max(max_plus_one, std::size_t{t.LastItem()} + 1);
    }
  }
  return max_plus_one;
}

}  // namespace pfci
