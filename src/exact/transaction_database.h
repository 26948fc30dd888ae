// Deterministic (exact) transaction database.
//
// Substrate for the exact-mining baselines (FP-growth, CLOSET-style closed
// mining, Apriori) used by the compression-quality experiment (Fig. 10) and
// by the possible-world oracles.
#ifndef PFCI_EXACT_TRANSACTION_DATABASE_H_
#define PFCI_EXACT_TRANSACTION_DATABASE_H_

#include <cstddef>
#include <vector>

#include "src/data/item.h"
#include "src/data/itemset.h"
#include "src/data/possible_world.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// An ordered collection of exact transactions.
class TransactionDatabase {
 public:
  TransactionDatabase() = default;
  explicit TransactionDatabase(std::vector<Itemset> transactions)
      : transactions_(std::move(transactions)) {}

  /// The deterministic projection of an uncertain database: every
  /// transaction kept, probabilities dropped (used when mining the "exact"
  /// counterpart of an uncertain dataset, as in Fig. 10).
  static TransactionDatabase FromUncertain(const UncertainDatabase& db);

  /// The transactions present in one possible world.
  static TransactionDatabase FromWorld(const UncertainDatabase& db,
                                       const PossibleWorld& world);

  void Add(Itemset transaction) {
    transactions_.push_back(std::move(transaction));
  }

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }
  const Itemset& transaction(std::size_t i) const { return transactions_[i]; }
  const std::vector<Itemset>& transactions() const { return transactions_; }

  /// Number of transactions containing X.
  std::size_t Support(const Itemset& x) const;

  /// All distinct items, ascending.
  std::vector<Item> ItemUniverse() const;

  /// Largest item id + 1 (0 when empty); a size, so it cannot wrap.
  std::size_t MaxItemPlusOne() const;

 private:
  std::vector<Itemset> transactions_;
};

/// A mined itemset together with its support.
struct SupportedItemset {
  Itemset items;
  std::size_t support = 0;

  friend bool operator==(const SupportedItemset& a, const SupportedItemset& b) {
    return a.support == b.support && a.items == b.items;
  }
  friend bool operator<(const SupportedItemset& a, const SupportedItemset& b) {
    return a.items < b.items;
  }
};

}  // namespace pfci

#endif  // PFCI_EXACT_TRANSACTION_DATABASE_H_
