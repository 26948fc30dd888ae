#include "src/core/search/candidate_oracle.h"

namespace pfci {

double CandidateOracle::Qualify(const TidSet& tids, const QualifyRequest& req,
                                MiningStats* stats) const {
  // Support-count floor: fewer than min_sup possible occurrences means
  // PrF(X) = 0 unconditionally.
  if (tids.size() < freq_->min_sup()) {
    if (req.count_floor && stats != nullptr) ++stats->pruned_by_frequency;
    return 0.0;
  }

  // Session warm start: a proof recorded by an earlier run rejects the
  // item before any bound work. Sound by anti-monotonicity — the cold run
  // would reject it too, so the candidate set (and every downstream RNG
  // stream) is unchanged.
  if (warm_ != nullptr && req.warm_item != nullptr &&
      warm_->BoundFor(*req.warm_item, freq_->min_sup()) <= req.threshold) {
    if (stats != nullptr) ++stats->pruned_by_frequency;
    return 0.0;
  }

  // Lemma 4.1: the Chernoff-Hoeffding upper bound settles most
  // rejections without a DP.
  if (use_chernoff_) {
    const double upper = freq_->PrFUpperBound(tids);
    if (upper <= req.threshold) {
      if (stats != nullptr) ++stats->pruned_by_chernoff;
      if (warm_ != nullptr && req.warm_item != nullptr) {
        warm_->RecordBound(*req.warm_item, freq_->min_sup(), upper);
      }
      return 0.0;
    }
  }

  if (!req.exact_check) return kAdmittedByBounds;

  // The frequent probability itself: the exact Poisson-binomial DP, or a
  // distributional tail approximation for the approximate PFI modes.
  double pr_f;
  if (mode_ == FrequencyMode::kExactDp) {
    pr_f = freq_->PrF(
        tids, req.workspace != nullptr ? *req.workspace : LocalDpWorkspace(),
        stats);
  } else {
    DpWorkspace& ws =
        req.workspace != nullptr ? *req.workspace : LocalDpWorkspace();
    index_->GatherProbs(tids, &ws.probs);
    pr_f = TailAtLeastWithMode(ws.probs, freq_->min_sup(), mode_);
  }
  if (pr_f <= req.threshold) {
    if (stats != nullptr) ++stats->pruned_by_frequency;
    if (warm_ != nullptr && req.warm_item != nullptr) {
      warm_->RecordBound(*req.warm_item, freq_->min_sup(), pr_f);
    }
  }
  return pr_f;
}

}  // namespace pfci
