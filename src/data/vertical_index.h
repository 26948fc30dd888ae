// Vertical (item -> tid-set) index over an uncertain database.
#ifndef PFCI_DATA_VERTICAL_INDEX_H_
#define PFCI_DATA_VERTICAL_INDEX_H_

#include <vector>

#include "src/data/item.h"
#include "src/data/itemset.h"
#include "src/data/tidlist.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// Precomputed per-item TidSets plus helpers to derive Tids(X) for any
/// itemset X by intersection, and a contiguous tid-ordered copy of the
/// transaction existence probabilities so probability gathers are pure
/// copies with no per-node allocation. Items absent from the database
/// have empty tid-sets.
class VerticalIndex {
 public:
  explicit VerticalIndex(const UncertainDatabase& db,
                         const TidSetPolicy& policy = TidSetPolicy{});

  /// Tid-set of a single item (empty if the item never occurs).
  const TidSet& TidsOfItem(Item item) const;

  /// Tids(X): transactions possibly containing the whole itemset.
  /// The empty itemset maps to all transactions.
  TidSet TidsOf(const Itemset& x) const;

  /// count(X) = |Tids(X)| (Definition 4.2).
  std::size_t Count(const Itemset& x) const;

  /// Items that occur in at least one transaction, ascending.
  const std::vector<Item>& occurring_items() const { return occurring_items_; }

  /// Tid-set {0, ..., |db| - 1} of every transaction.
  const TidSet& all_tids() const { return all_tids_; }

  /// Copies the existence probabilities of the given transactions, in
  /// ascending tid order, into `*out` (resized to tids.size()). Allocates
  /// nothing once `*out` has reached capacity — the per-node fast path.
  void GatherProbs(const TidSet& tids, std::vector<double>* out) const;

  /// Existence probabilities of the given transactions, in tid order.
  /// Allocating convenience form of GatherProbs.
  std::vector<double> ProbsOf(const TidSet& tids) const;
  std::vector<double> ProbsOf(const TidList& tids) const;

  /// Sum of existence probabilities over `tids`, accumulated in ascending
  /// tid order (bit-identical to summing ProbsOf(tids) left to right).
  double SumProbsOf(const TidSet& tids) const;

  /// Heap bytes resident in the index (per-item tid-sets, the
  /// probability column, the all-tids set). Miners charge this into the
  /// RunController's memory budget right after construction. Counted once
  /// at construction (the index is immutable), so this is O(1).
  std::size_t MemoryBytes() const { return memory_bytes_; }

  const TidSetPolicy& policy() const { return policy_; }
  const UncertainDatabase& db() const { return *db_; }

 private:
  const UncertainDatabase* db_;
  TidSetPolicy policy_;
  std::vector<TidSet> tids_by_item_;
  std::vector<Item> occurring_items_;
  TidSet all_tids_;
  TidSet empty_;
  std::vector<double> probs_;  ///< probs_[tid] = Pr(transaction tid exists).
  std::size_t memory_bytes_ = 0;
};

}  // namespace pfci

#endif  // PFCI_DATA_VERTICAL_INDEX_H_
