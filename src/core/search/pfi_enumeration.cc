#include "src/core/search/pfi_enumeration.h"

#include <algorithm>
#include <utility>

#include "src/core/eval_cache.h"
#include "src/core/frequent_probability.h"
#include "src/core/index_handle.h"
#include "src/core/search/candidate_oracle.h"
#include "src/data/vertical_index.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"

namespace pfci {

namespace {

/// The PrF measure: the CandidateOracle pipeline (count floor, warm-start
/// proofs, Chernoff bound, exact or approximate PrF), whose stages keep
/// their own pruning counters.
class PrFMeasure {
 public:
  using Entry = PfiEntry;
  static constexpr const char* kNodeFailpoint = "pfi/node";

  PrFMeasure(const VerticalIndex& index, const ExecutionContext& exec,
             MiningStats* stats, std::size_t min_sup, double pft,
             bool use_chernoff, FrequencyMode mode)
      : pft_(pft),
        stats_(stats),
        freq_(index, min_sup, exec.eval_cache, exec.table_band),
        oracle_(index, freq_, use_chernoff, mode,
                // Warm-start proofs are exact-PrF statements: sound to
                // prune with only when the run itself evaluates exactly.
                mode == FrequencyMode::kExactDp ? exec.warm_start
                                                : nullptr) {}

  /// Whether X (Tids(X) = `tids`) qualifies; `*value` receives PrF(X).
  /// `singleton` is X's one item at the first level (the warm-start key)
  /// and null deeper down.
  bool Qualify(const TidSet& tids, const Item* singleton, double* value) {
    QualifyRequest req;
    req.threshold = pft_;
    req.warm_item = singleton;
    *value = oracle_.Qualify(tids, req, stats_);
    return *value > pft_;
  }

  static Entry MakeEntry(const Itemset& items, const TidSet& tids,
                         double pr_f) {
    return Entry{items, pr_f, tids};
  }

  void MergeStats() const {
    if (stats_ == nullptr) return;
    stats_->dp_runs += freq_.dp_runs();
    stats_->cache_hits += freq_.cache_hits();
    stats_->cache_misses += freq_.cache_misses();
    stats_->dp_reused += freq_.dp_reused();
  }

 private:
  double pft_;
  MiningStats* stats_;
  FrequentProbability freq_;
  CandidateOracle oracle_;
};

/// The expected-support measure, with optional cross-request mu caching:
/// the cached mu is the same ascending-tid-order sum SumProbsOf computes,
/// so cache on/off returns bit-identical values (and one entry serves
/// both esup requests and PrF short circuits).
class EsupMeasure {
 public:
  using Entry = ExpectedSupportEntry;
  static constexpr const char* kNodeFailpoint = "esup/node";

  EsupMeasure(const VerticalIndex& index, const ExecutionContext& exec,
              MiningStats* stats, double min_esup)
      : index_(index),
        cache_(exec.eval_cache),
        stats_(stats),
        min_esup_(min_esup) {}

  bool Qualify(const TidSet& tids, const Item* /*singleton*/,
               double* value) {
    *value = Esup(tids);
    if (*value >= min_esup_) return true;
    if (stats_ != nullptr) ++stats_->pruned_by_frequency;
    return false;
  }

  static Entry MakeEntry(const Itemset& items, const TidSet& /*tids*/,
                         double esup) {
    return Entry{items, esup};
  }

  void MergeStats() const {
    if (stats_ == nullptr) return;
    stats_->cache_hits += hits_;
    stats_->cache_misses += misses_;
  }

 private:
  double Esup(const TidSet& tids) {
    if (cache_ == nullptr) return index_.SumProbsOf(tids);
    const EvalCache::Lookup hit = cache_->Probe(tids, 0);
    if (hit.found) {
      ++hits_;
      return hit.mu;
    }
    ++misses_;
    const double mu = index_.SumProbsOf(tids);
    cache_->Insert(tids, mu, 0, {});
    return mu;
  }

  const VerticalIndex& index_;
  EvalCache* cache_;
  MiningStats* stats_;
  double min_esup_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The one flat walk: a singleton pass, then a depth-first extension of
/// each qualifying singleton by the later qualifying items. `Measure`
/// decides qualification, builds the emitted entries, owns its counters
/// and names its node failpoint; the walk itself is measure-blind.
template <typename Measure>
class FlatEnumeration {
 public:
  using Entry = typename Measure::Entry;

  template <typename... MeasureArgs>
  FlatEnumeration(const UncertainDatabase& db, const TidSetPolicy& policy,
                  const ExecutionContext& exec, MiningStats* stats,
                  MeasureArgs... measure_args)
      : stats_(stats),
        rt_(exec.runtime),
        index_(db, policy, exec),
        measure_(index_.get(), exec, stats, measure_args...) {}

  std::vector<Entry> Run() {
    // Index bytes were charged by the handle; fail an undersized memory
    // budget before any search work.
    CheckpointAtRunStart(rt_);
    // Sequential enumeration: one logical work unit owns the whole
    // budget.
    unit_ = rt_ != nullptr ? rt_->UnitBudget(0, 1) : WorkUnitBudget{};

    if (!StopRequested(rt_)) {
      for (Item item : index_->occurring_items()) {
        const TidSet& tids = index_->TidsOfItem(item);
        double value = 0.0;
        if (measure_.Qualify(tids, &item, &value)) {
          candidates_.push_back(item);
          result_.push_back(Measure::MakeEntry(Itemset{item}, tids, value));
        }
      }
    }
    // The singleton pass above seeded `result_`; extend depth-first.
    for (std::size_t c = 0; c < candidates_.size() && !Stopped(); ++c) {
      const Item item = candidates_[c];
      Dfs(Itemset{item}, index_->TidsOfItem(item), c);
    }
    if (unit_.truncated && rt_ != nullptr) {
      rt_->RecordTruncation(Outcome::kBudgetExhausted);
    }
    measure_.MergeStats();
    std::sort(result_.begin(), result_.end());
    return std::move(result_);
  }

 private:
  /// Whether the run should wind down (budget cut or global stop).
  bool Stopped() const { return unit_.truncated || StopRequested(rt_); }

  void Dfs(const Itemset& x, const TidSet& tids, std::size_t candidate_pos) {
    // Node-expansion checkpoint: entries emit before recursing, so
    // cutting here leaves a verified prefix in `result_`.
    PFCI_FAILPOINT(Measure::kNodeFailpoint);
    if (CheckpointNow(rt_)) return;
    if (!unit_.TakeNode()) return;
    if (stats_ != nullptr) ++stats_->nodes_visited;
    for (std::size_t c = candidate_pos + 1; c < candidates_.size(); ++c) {
      if (Stopped()) return;
      const Item item = candidates_[c];
      TidSet child_tids = Intersect(tids, index_->TidsOfItem(item));
      if (stats_ != nullptr) ++stats_->intersections;
      double value = 0.0;
      if (!measure_.Qualify(child_tids, nullptr, &value)) continue;
      const Itemset child = x.WithItem(item);
      result_.push_back(Measure::MakeEntry(child, child_tids, value));
      Dfs(child, child_tids, c);
    }
  }

  MiningStats* stats_;
  RunController* rt_;
  IndexHandle index_;
  Measure measure_;
  WorkUnitBudget unit_;
  std::vector<Item> candidates_;
  std::vector<Entry> result_;
};

}  // namespace

std::vector<PfiEntry> EnumeratePfis(const UncertainDatabase& db,
                                    std::size_t min_sup, double pft,
                                    bool use_chernoff, FrequencyMode mode,
                                    MiningStats* stats,
                                    const TidSetPolicy& policy,
                                    const ExecutionContext& exec) {
  PFCI_CHECK(min_sup >= 1);
  return FlatEnumeration<PrFMeasure>(db, policy, exec, stats, min_sup, pft,
                                     use_chernoff, mode)
      .Run();
}

std::vector<ExpectedSupportEntry> EnumerateExpectedSupport(
    const UncertainDatabase& db, double min_esup, MiningStats* stats,
    const TidSetPolicy& policy, const ExecutionContext& exec) {
  PFCI_CHECK(min_esup > 0.0);
  return FlatEnumeration<EsupMeasure>(db, policy, exec, stats, min_esup)
      .Run();
}

}  // namespace pfci
