#include "src/core/item_uncertain_miners.h"

#include <algorithm>
#include <vector>

#include "src/prob/poisson_binomial.h"
#include "src/prob/tail_bounds.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// The DFS carries, per node, the list of (tid, containment probability)
/// pairs with positive probability — the item-level analogue of a
/// tid-list. Extending X by item e multiplies each entry by p_{T,e}
/// (dropping transactions where e never occurs).
struct ProbList {
  std::vector<Tid> tids;
  std::vector<double> probs;

  double Sum() const {
    double total = 0.0;
    for (double p : probs) total += p;
    return total;
  }
};

/// Per-item occurrence probability lookup for one database.
class OccurrenceIndex {
 public:
  explicit OccurrenceIndex(const ItemUncertainDatabase& db) : db_(&db) {}

  /// probs of `base` multiplied by the occurrence probability of `item`
  /// in each transaction (entries without the item are dropped).
  ProbList Extend(const ProbList& base, Item item) const {
    ProbList out;
    out.tids.reserve(base.tids.size());
    out.probs.reserve(base.tids.size());
    for (std::size_t k = 0; k < base.tids.size(); ++k) {
      const auto& occurrences = db_->transaction(base.tids[k]).items;
      const auto it = std::lower_bound(
          occurrences.begin(), occurrences.end(), item,
          [](const ProbItem& occurrence, Item target) {
            return occurrence.item < target;
          });
      if (it == occurrences.end() || it->item != item) continue;
      out.tids.push_back(base.tids[k]);
      out.probs.push_back(base.probs[k] * it->prob);
    }
    return out;
  }

  ProbList Root() const {
    ProbList root;
    root.tids.resize(db_->size());
    root.probs.assign(db_->size(), 1.0);
    for (Tid tid = 0; tid < db_->size(); ++tid) root.tids[tid] = tid;
    return root;
  }

 private:
  const ItemUncertainDatabase* db_;
};

/// Expected support: the sum of the containment probabilities.
struct EsupMeasure {
  double min_esup;

  bool Qualify(const ProbList& list, double* value) const {
    *value = list.Sum();
    return *value >= min_esup;
  }
};

/// Frequent probability: the count floor and the Chernoff-Hoeffding
/// pre-filter, then the exact DP — both valid because support is
/// Poisson-binomial over the containment probabilities.
struct PrFMeasure {
  std::size_t min_sup;
  double pft;

  bool Qualify(const ProbList& list, double* value) const {
    if (list.tids.size() < min_sup) return false;
    const double mu = PoissonBinomialMean(list.probs);
    if (BestUpperTailBound(mu, list.probs.size(),
                           static_cast<double>(min_sup)) <= pft) {
      return false;
    }
    *value = PoissonBinomialTailAtLeast(list.probs, min_sup);
    return *value > pft;
  }
};

/// Extends X by every later universe item, emitting and recursing into
/// each extension the measure qualifies.
template <typename Measure>
void Dfs(const OccurrenceIndex& index, const std::vector<Item>& universe,
         const Measure& measure, const Itemset& x, const ProbList& problist,
         std::size_t next_pos, const internal::FrequentSink& emit) {
  for (std::size_t pos = next_pos; pos < universe.size(); ++pos) {
    const ProbList child = index.Extend(problist, universe[pos]);
    double value = 0.0;
    if (!measure.Qualify(child, &value)) continue;
    const Itemset child_items = x.WithItem(universe[pos]);
    emit(child_items, value);
    Dfs(index, universe, measure, child_items, child, pos + 1, emit);
  }
}

template <typename Measure>
void MineItemLevel(const ItemUncertainDatabase& db, const Measure& measure,
                   const internal::FrequentSink& emit) {
  const OccurrenceIndex index(db);
  Dfs(index, db.ItemUniverse(), measure, Itemset{}, index.Root(), 0, emit);
}

}  // namespace

namespace internal {

void MineExpectedSupportItemLevel(const ItemUncertainDatabase& db,
                                  double min_esup, const FrequentSink& emit) {
  PFCI_CHECK(min_esup > 0.0);
  MineItemLevel(db, EsupMeasure{min_esup}, emit);
}

void MinePfiItemLevel(const ItemUncertainDatabase& db, std::size_t min_sup,
                      double pft, const FrequentSink& emit) {
  PFCI_CHECK(min_sup >= 1);
  MineItemLevel(db, PrFMeasure{min_sup, pft}, emit);
}

}  // namespace internal

}  // namespace pfci
