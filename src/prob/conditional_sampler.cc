#include "src/prob/conditional_sampler.h"

#include <algorithm>
#include <utility>

namespace pfci {

ConditionalBernoulliSampler::ConditionalBernoulliSampler(
    std::vector<double> probs, std::size_t min_sum)
    : n_(probs.size()),
      min_sum_(min_sum),
      width_(n_ >= min_sum ? n_ - min_sum + 1 : 0),
      // Every cell is written below, so no zero fill.
      pr_one_(std::make_unique_for_overwrite<double[]>((min_sum + 1) *
                                                       width_)) {
  if (width_ == 0) {
    // Fewer variables than min_sum: Tail(0, min_sum) is exactly 0.
    condition_probability_ = 0.0;
    return;
  }
  const std::size_t stride = min_sum_ + 1;
  // next[d] = Tail(i+1, d), cur[d] = Tail(i, d). Base case: with no
  // variables left, the residual requirement must be 0.
  std::vector<double> next(stride, 0.0);
  std::vector<double> cur(stride, 0.0);
  next[0] = 1.0;
  // Rows are computed i-descending, d-ascending (the recurrence runs along
  // d), into `tile`, kTile rows at a time; a full tile is then copied into
  // the deficit-major table as one contiguous run per deficit.
  constexpr std::size_t kTile = 64;
  std::vector<double> tile(std::min(kTile, n_) * stride);
  for (std::size_t i = n_; i-- > 0;) {
    const double p = probs[i];
    PFCI_DCHECK(p >= 0.0 && p <= 1.0);
    // Row i only needs the band of deficits a draw can reach, [lo, hi]:
    // at least min_sum - i (at most i ones so far) and at most n - i
    // (beyond that Tail is exactly 0). The band only widens as i falls, so
    // the tail-row cells above it still hold their initial 0.
    const std::size_t lo = min_sum_ > i ? min_sum_ - i : 0;
    const std::size_t hi = std::min(min_sum_, n_ - i);
    double* row = tile.data() + (i % kTile) * stride;
    std::size_t d = lo;
    if (d == 0) {
      cur[0] = p * next[0] + (1.0 - p) * next[0];
      row[0] = cur[0] == 0.0 ? 0.0 : p * next[0] / cur[0];
      d = 1;
    }
    // The same expressions a per-draw evaluation would use, so every
    // pr_one keeps its bits.
    for (; d <= hi; ++d) {
      cur[d] = p * next[d - 1] + (1.0 - p) * next[d];
      row[d] = cur[d] == 0.0 ? 0.0 : p * next[d - 1] / cur[d];
    }
    std::swap(cur, next);
    if (i % kTile != 0) continue;
    // Copy rows [i, end) of the tile: deficit row `deficit` of the table
    // holds the variables [min_sum - deficit, n - deficit].
    const std::size_t end = std::min(i + kTile, n_);
    for (std::size_t deficit = 0; deficit <= min_sum_; ++deficit) {
      const std::size_t first = std::max(i, min_sum_ - deficit);
      const std::size_t last = std::min(end, n_ - deficit + 1);
      if (first >= last) continue;
      double* out = pr_one_.get() + Index(first, deficit);
      for (std::size_t v = first; v < last; ++v) {
        *out++ = tile[(v - i) * stride + deficit];
      }
    }
  }
  // Deficit row 0's last cell would be variable n, which does not exist.
  pr_one_[Index(n_, 0)] = 0.0;
  condition_probability_ = next[min_sum_];
}

void ConditionalBernoulliSampler::Sample(Rng& rng,
                                         std::vector<std::uint8_t>* out) const {
  out->assign(n_, 0);
  SampleEach(rng, [out](std::size_t i) { (*out)[i] = 1; });
}

}  // namespace pfci
