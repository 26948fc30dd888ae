#include "src/data/uncertain_database.h"

#include <algorithm>

#include "src/util/check.h"

namespace pfci {

void UncertainDatabase::Add(Itemset items, double prob) {
  PFCI_CHECK(prob > 0.0 && prob <= 1.0);
  transactions_.push_back(UncertainTransaction{std::move(items), prob});
}

std::vector<Item> UncertainDatabase::ItemUniverse() const {
  std::vector<Item> universe;
  for (const auto& t : transactions_) {
    universe.insert(universe.end(), t.items.items().begin(),
                    t.items.items().end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  return universe;
}

std::size_t UncertainDatabase::MaxItemPlusOne() const {
  std::size_t max_plus_one = 0;
  for (const auto& t : transactions_) {
    if (!t.items.empty()) {
      max_plus_one =
          std::max(max_plus_one, std::size_t{t.items.LastItem()} + 1);
    }
  }
  return max_plus_one;
}

std::size_t UncertainDatabase::Count(const Itemset& x) const {
  std::size_t count = 0;
  for (const auto& t : transactions_) {
    if (x.IsSubsetOf(t.items)) ++count;
  }
  return count;
}

double UncertainDatabase::ExpectedSupport(const Itemset& x) const {
  double esup = 0.0;
  for (const auto& t : transactions_) {
    if (x.IsSubsetOf(t.items)) esup += t.prob;
  }
  return esup;
}

}  // namespace pfci
