// Extension events C_i of an itemset X (paper Sec. IV.B.1).
//
// For each item e not in X, the event C_i states that "the superset X+e
// always appears together with X, at least min_sup times". The frequent
// non-closed probability of X is Pr(C_1 ∪ ... ∪ C_m) and, crucially, the
// probability of any intersection factorizes:
//
//   Pr(∩_{i∈S} C_i) = Π_{T ∈ Tids(X) \ Tids(X∪S)} (1 - p_T)
//                     * Pr{ PoissonBinomial(Tids(X∪S)) >= min_sup }
//
// because the forced-absent transactions and the support-carrying ones are
// disjoint. Events are built over ALL other items of the database —
// frequency pruning restricts what is enumerated, never what can destroy
// closedness.
#ifndef PFCI_CORE_EXTENSION_EVENTS_H_
#define PFCI_CORE_EXTENSION_EVENTS_H_

#include <cstddef>
#include <vector>

#include "src/core/frequent_probability.h"
#include "src/core/mining_result.h"
#include "src/data/itemset.h"
#include "src/data/tidset.h"
#include "src/data/vertical_index.h"
#include "src/prob/union_bounds.h"

namespace pfci {

/// One active extension event C_i.
struct ExtensionEvent {
  Item item = 0;        ///< The extending item e_i.
  TidSet tids;          ///< Tids(X + e_i).
  double log_miss = 0;  ///< log Π (1 - p_T) over Tids(X) \ Tids(X+e_i).
  double pr_freq = 0;   ///< Pr{support(X+e_i) >= min_sup}.
  double prob = 0;      ///< Pr(C_i) = exp(log_miss) * pr_freq.
};

/// The set of active (positive-probability) extension events of X.
class ExtensionEventSet {
 public:
  /// Builds the events. `x_tids` must equal index.TidsOf(x) and outlive
  /// the set. When given, `workspace` supplies the PrF scratch buffers
  /// (otherwise the calling thread's LocalDpWorkspace() is used) and
  /// `stats` counts the tid-set operations performed and, here and in
  /// later PrIntersection calls, the PrF work (dp_runs, cache_*).
  ExtensionEventSet(const VerticalIndex& index,
                    const FrequentProbability& freq, const Itemset& x,
                    const TidSet& x_tids, DpWorkspace* workspace = nullptr,
                    MiningStats* stats = nullptr);

  const std::vector<ExtensionEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  const TidSet& x_tids() const { return *x_tids_; }
  const VerticalIndex& index() const { return *index_; }
  std::size_t min_sup() const { return freq_->min_sup(); }

  /// Whether some item always co-occurs with X (count(X+e) == count(X)):
  /// then Pr(C_i) >= PrF(X), so PrFC(X) is exactly 0 (Lemmas 4.2/4.3).
  bool HasSameCountExtension() const { return has_same_count_extension_; }

  /// Pr(C_i) of event index i.
  double PrSingle(std::size_t i) const { return events_[i].prob; }

  /// Pr(∩_{i∈S} C_i) for sorted event indices S (|S| >= 1).
  double PrIntersection(const std::vector<std::size_t>& subset) const;

  /// All singles + pairwise intersections, as needed by Lemma 4.4.
  PairwiseProbabilities BuildPairwise() const;

 private:
  const VerticalIndex* index_;
  const FrequentProbability* freq_;
  const TidSet* x_tids_;
  MiningStats* stats_;
  std::vector<ExtensionEvent> events_;
  bool has_same_count_extension_ = false;
};

}  // namespace pfci

#endif  // PFCI_CORE_EXTENSION_EVENTS_H_
