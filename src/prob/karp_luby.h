// Karp-Luby-Madras coverage estimator for the probability of a union of
// events (the classical FPRAS for DNF counting [14]).
//
// This is the engine behind the paper's ApproxFCP procedure (Fig. 2): the
// frequent non-closed probability is a union Pr(C_1 ∪ ... ∪ C_m), each
// Pr(C_i) is efficiently computable, a world can be sampled conditioned on
// C_i, and membership ω ∈ C_j is cheap to test. The estimator samples an
// event index i with probability Pr(C_i)/Z (Z = Σ Pr(C_i)), draws
// ω | C_i, and counts the sample iff i is the *first* event covering ω;
// then Pr(∪C_i) ≈ Z * successes / N.
#ifndef PFCI_PROB_KARP_LUBY_H_
#define PFCI_PROB_KARP_LUBY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/random.h"

namespace pfci {

/// Number of samples guaranteeing relative error epsilon with confidence
/// 1 - delta for k events: ceil(4 k ln(2/delta) / epsilon^2), as analysed
/// in the paper's Sec. IV.B.4 time-complexity discussion. Saturates to
/// UINT64_MAX when the count does not fit (a tiny epsilon).
std::uint64_t KarpLubyRequiredSamples(std::size_t k, double epsilon,
                                      double delta);

/// Outcome of a Karp-Luby estimation run.
struct KarpLubyResult {
  double estimate = 0.0;        ///< Estimated Pr(∪ C_i).
  std::uint64_t samples = 0;    ///< Samples actually drawn.
  std::uint64_t successes = 0;  ///< Canonical ("first cover") hits.
};

/// Runs the coverage estimator.
///
/// `event_probs` are the exact Pr(C_i) (entries may be 0; they are skipped).
/// `sample_is_canonical(i, rng)` must draw ω from the conditional
/// distribution given C_i and return whether no event with index < i (in
/// the same ordering as `event_probs`) also contains ω.
KarpLubyResult KarpLubyUnionEstimate(
    const std::vector<double>& event_probs, std::uint64_t num_samples,
    Rng& rng,
    const std::function<bool(std::size_t, Rng&)>& sample_is_canonical);

}  // namespace pfci

#endif  // PFCI_PROB_KARP_LUBY_H_
