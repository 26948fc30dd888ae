#include "src/core/frequent_probability.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/prob/poisson_binomial.h"
#include "src/prob/tail_bounds.h"
#include "src/util/check.h"

namespace pfci {

namespace {

/// Tail-bound mass below which a probability is treated as exactly 0/1.
/// This is at the double rounding-noise level of the DP itself, so the
/// short circuit never changes a threshold comparison.
constexpr double kNegligible = 1e-15;

}  // namespace

FrequentProbability::FrequentProbability(const VerticalIndex& index,
                                         std::size_t min_sup,
                                         EvalCache* cache,
                                         ThresholdBand table_band)
    : index_(&index),
      min_sup_(min_sup),
      cache_(cache),
      table_band_(table_band) {
  PFCI_CHECK(min_sup >= 1);
  // A planned run's own threshold lies inside its group's band.
  PFCI_DCHECK(table_band.hi == 0 ||
              (table_band.lo <= min_sup && min_sup <= table_band.hi));
}

double FrequentProbability::PrFFromProbs(const std::vector<double>& probs,
                                         std::vector<double>* dp_scratch) const {
  if (probs.size() < min_sup_) return 0.0;
  const double mu = PoissonBinomialMean(probs);
  const double s = static_cast<double>(min_sup_);
  // Upper-tail short circuit: Pr{S >= min_sup} ~ 0.
  if (BestUpperTailBound(mu, probs.size(), s) < kNegligible) return 0.0;
  // Lower-tail short circuit: Pr{S <= min_sup - 1} ~ 0 -> PrF ~ 1.
  if (ChernoffLowerTail(mu, s - 1.0) < kNegligible) return 1.0;
  dp_runs_.fetch_add(1, std::memory_order_relaxed);
  return PoissonBinomialTailAtLeast(probs.data(), probs.size(), min_sup_,
                                    dp_scratch);
}

double FrequentProbability::PrFFromProbs(
    const std::vector<double>& probs) const {
  return PrFFromProbs(probs, &LocalDpWorkspace().dp);
}

double FrequentProbability::PrF(const TidSet& tids,
                                DpWorkspace& workspace) const {
  if (tids.size() < min_sup_) return 0.0;
  if (cache_ != nullptr) return CachedPrF(tids, workspace);
  index_->GatherProbs(tids, &workspace.probs);
  return PrFFromProbs(workspace.probs, &workspace.dp);
}

double FrequentProbability::CachedPrF(const TidSet& tids,
                                      DpWorkspace& workspace) const {
  const double s = static_cast<double>(min_sup_);
  const EvalCache::Lookup lookup = cache_->Probe(tids, min_sup_);
  if (lookup.found) {
    // Replay the short circuits off the cached mu first: the tail band
    // holds raw DP values, but an uncached run that short-circuits never
    // reaches the DP, and bit-identity means matching that path too. The
    // cached mu is the ascending-tid-order sum, the same value
    // PoissonBinomialMean produces from the gathered probabilities.
    if (BestUpperTailBound(lookup.mu, tids.size(), s) < kNegligible) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return 0.0;
    }
    if (ChernoffLowerTail(lookup.mu, s - 1.0) < kNegligible) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return 1.0;
    }
    if (lookup.has_table) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      dp_reused_.fetch_add(1, std::memory_order_relaxed);
      return lookup.tail;
    }
  }
  // Miss, or a stored band that does not contain this min_sup: gather
  // and compute the band min_sup..hi, where hi is the top of the run's
  // planned group clamped to |tids| (any probe above that size is
  // rejected by the tids.size() check before reaching the cache). Every
  // value in the band is bit-identical to a direct DP at its threshold,
  // so hi changes work done, never values.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  index_->GatherProbs(tids, &workspace.probs);
  const std::vector<double>& probs = workspace.probs;
  const double mu =
      lookup.found ? lookup.mu : PoissonBinomialMean(probs);
  const std::size_t hi =
      std::max(min_sup_, std::min(table_band_.hi, probs.size()));
  if (!lookup.found) {
    if (BestUpperTailBound(mu, probs.size(), s) < kNegligible) {
      // PrF ~ 0 here and even smaller at every higher threshold, where
      // the mu replay short-circuits again: no band needed.
      cache_->Insert(tids, mu, 0, {});
      return 0.0;
    }
    if (ChernoffLowerTail(mu, s - 1.0) < kNegligible) {
      // PrF ~ 1 here, but a HIGHER threshold of the group may not
      // short-circuit; prefill the band it will need — unless the short
      // circuit still fires at the band's top, in which case it fires at
      // every threshold up to it (the lower-tail mass only grows with the
      // threshold) and the band would never be read. The return value
      // stays the short-circuit 1.0 either way.
      if (hi > min_sup_ &&
          ChernoffLowerTail(mu, static_cast<double>(hi) - 1.0) >=
              kNegligible) {
        dp_runs_.fetch_add(1, std::memory_order_relaxed);
        std::vector<double> band;
        PoissonBinomialTailBand(probs.data(), probs.size(), min_sup_, hi,
                                &workspace.dp, &band);
        cache_->Insert(tids, mu, min_sup_, std::move(band));
      } else {
        cache_->Insert(tids, mu, 0, {});
      }
      return 1.0;
    }
  }
  dp_runs_.fetch_add(1, std::memory_order_relaxed);
  std::vector<double> band;
  PoissonBinomialTailBand(probs.data(), probs.size(), min_sup_, hi,
                          &workspace.dp, &band);
  const double result = band[0];
  cache_->Insert(tids, mu, min_sup_, std::move(band));
  return result;
}

double FrequentProbability::PrF(const TidSet& tids) const {
  return PrF(tids, LocalDpWorkspace());
}

double FrequentProbability::PrFUpperBound(const TidSet& tids) const {
  if (tids.size() < min_sup_) return 0.0;
  return BestUpperTailBound(index_->SumProbsOf(tids), tids.size(),
                            static_cast<double>(min_sup_));
}

}  // namespace pfci
