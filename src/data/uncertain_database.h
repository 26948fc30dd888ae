// Uncertain transaction database under the tuple-uncertainty model.
#ifndef PFCI_DATA_UNCERTAIN_DATABASE_H_
#define PFCI_DATA_UNCERTAIN_DATABASE_H_

#include <cstddef>
#include <vector>

#include "src/data/item.h"
#include "src/data/itemset.h"

namespace pfci {

/// One uncertain transaction: an itemset that exists with probability
/// `prob`, independently of all other transactions (paper Sec. I/III,
/// tuple-uncertainty model of [22]).
struct UncertainTransaction {
  Itemset items;
  double prob = 1.0;
};

/// An ordered collection of uncertain transactions. Transaction ids (Tid)
/// are positions in this collection.
class UncertainDatabase {
 public:
  UncertainDatabase() = default;

  /// Appends a transaction. `prob` must lie in (0, 1]; zero-probability
  /// tuples are meaningless (never exist) and are rejected by CHECK.
  void Add(Itemset items, double prob);

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  const UncertainTransaction& transaction(Tid tid) const {
    return transactions_[tid];
  }
  const std::vector<UncertainTransaction>& transactions() const {
    return transactions_;
  }

  /// Existence probability of transaction `tid`.
  double prob(Tid tid) const { return transactions_[tid].prob; }

  /// All distinct items, ascending.
  std::vector<Item> ItemUniverse() const;

  /// Largest item id + 1 (0 when empty); convenient for dense arrays.
  /// A size, not an Item, so the largest 32-bit id cannot wrap it to 0.
  std::size_t MaxItemPlusOne() const;

  /// Number of transactions whose itemset contains X ("count of an
  /// itemset", Definition 4.2).
  std::size_t Count(const Itemset& x) const;

  /// Expected support of X: sum of existence probabilities over the
  /// transactions containing X (the expected-support model of [9]).
  double ExpectedSupport(const Itemset& x) const;

 private:
  std::vector<UncertainTransaction> transactions_;
};

}  // namespace pfci

#endif  // PFCI_DATA_UNCERTAIN_DATABASE_H_
