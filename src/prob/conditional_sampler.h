// Sampling a Bernoulli vector conditioned on its sum reaching a threshold.
//
// The paper's ApproxFCP sampler (Sec. IV.B.4) must draw a possible world
// that satisfies an event C_i, i.e. the transactions of Tids(X + e_i) must
// be present at least min_sup times. That is exactly sampling independent
// Bernoulli indicators conditioned on {sum >= min_sup}, which this class
// performs exactly via a backward tail recurrence and a forward sequential
// scan.
#ifndef PFCI_PROB_CONDITIONAL_SAMPLER_H_
#define PFCI_PROB_CONDITIONAL_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/check.h"
#include "src/util/random.h"

namespace pfci {

/// Exact sampler for (X_1..X_n) ~ independent Bernoulli(p_i) conditioned on
/// sum X_i >= min_sum.
///
/// Construction runs the backward tail recurrence
/// Tail(i, d) = Pr{ X_i + ... + X_{n-1} >= d } row by row in
/// O(n * min_sum) time (two tail rows and a 64-row tile of scratch) and
/// keeps, for every state (i, d) a draw can reach, the conditional
/// probability that X_i = 1:
///
///   pr_one(i, d) = p_i * Tail(i+1, max(d-1, 0)) / Tail(i, d)
///
/// (0 where Tail(i, d) == 0). A draw can reach (i, d) only for
/// min_sum - i <= d <= n - i, so the table holds (min_sum + 1) deficit
/// rows of n - min_sum + 1 doubles each, no more than the full tail table
/// would. Within a deficit row the variables are consecutive, so a draw,
/// which moves from (i, d) to (i+1, d) or (i+1, d-1), reads forward
/// through each row it visits. Each draw is then O(n) with one table load
/// and at most one random value per variable, and no division. The
/// distribution is exact (no rejection).
class ConditionalBernoulliSampler {
 public:
  /// Builds the pr_one table. `min_sum` may be 0 (unconditional sampling).
  ConditionalBernoulliSampler(std::vector<double> probs, std::size_t min_sum);

  /// Pr{sum >= min_sum} under the unconditioned product measure. If this is
  /// 0 the condition is unsatisfiable and no draw may be made.
  double condition_probability() const { return condition_probability_; }

  /// Whether the conditioning event has positive probability.
  bool Feasible() const { return condition_probability_ > 0.0; }

  /// Draws one vector and calls `on_one(i)` for every i with X_i = 1, in
  /// increasing i. Consumes one rng value for every variable whose
  /// pr_one lies strictly between 0 and 1.
  template <typename OnOne>
  void SampleEach(Rng& rng, OnOne&& on_one) const {
    PFCI_CHECK(Feasible());
    // A local copy of the generator: `on_one` writes memory the compiler
    // cannot prove apart from `rng`, so drawing from the copy keeps the
    // state in registers across the loop. The stream is unchanged.
    Rng local = rng;
    // `cell` walks the table: +1 to (i+1, d), +1 - (width_ + 1) to
    // (i+1, d-1).
    const double* cell = pr_one_.get() + Index(0, min_sum_);
    std::size_t deficit = min_sum_;
    for (std::size_t i = 0; i < n_; ++i, ++cell) {
      if (local.NextBernoulli(*cell)) {
        on_one(i);
        if (deficit > 0) {
          --deficit;
          cell -= width_ + 1;
        }
      }
    }
    rng = local;
    PFCI_DCHECK(deficit == 0);
  }

  /// Draws one vector into `out` (resized to n; out[i] in {0,1}).
  void Sample(Rng& rng, std::vector<std::uint8_t>* out) const;

  std::size_t size() const { return n_; }

 private:
  // Deficit row d holds the variables a draw can be at with deficit d,
  // i in [min_sum - d, n - d]: width_ = n - min_sum + 1 cells, the first
  // for i = min_sum - d.
  std::size_t Index(std::size_t i, std::size_t d) const {
    return d * width_ + i + d - min_sum_;
  }

  std::size_t n_;
  std::size_t min_sum_;
  std::size_t width_;
  std::unique_ptr<double[]> pr_one_;  // pr_one_[Index(i, d)] = pr_one(i, d).
  double condition_probability_;
};

}  // namespace pfci

#endif  // PFCI_PROB_CONDITIONAL_SAMPLER_H_
