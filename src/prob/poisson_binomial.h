// Poisson-binomial distribution: sum of independent, non-identical
// Bernoulli variables.
//
// Under the tuple-uncertainty model the support of an itemset X is exactly
// Poisson-binomial over the existence probabilities of the transactions that
// contain X, so this is the probabilistic core of the whole library
// (Definition 3.4 of the paper; the DP is the "dynamic programming approach
// [22]" the paper relies on).
#ifndef PFCI_PROB_POISSON_BINOMIAL_H_
#define PFCI_PROB_POISSON_BINOMIAL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace pfci {

// Every DP below is one kernel body compiled for several x86-64 ISA levels
// (AVX-512, AVX2, baseline); the widest this CPU runs is picked once, at
// first use. Each variant performs the same IEEE operations in the same
// order on every cell, so results are bit-identical whichever runs (see
// docs/ALGORITHM.md §1.1).

/// Full probability mass function of sum(Bernoulli(p_i)).
/// Returns a vector of size n+1 where element s is Pr{sum == s}.
/// O(n^2) time, O(n) space.
std::vector<double> PoissonBinomialPmf(const std::vector<double>& probs);

/// Pr{ sum(Bernoulli(p_i)) >= threshold }.
///
/// Uses the truncated dynamic program of the paper's frequent-probability
/// computation: states 0..threshold-1 plus one absorbing "reached threshold"
/// state, O(threshold) space. States that can no longer reach the
/// threshold with the items left are skipped, so each state lives for at
/// most n - threshold + 1 items: O(threshold * (n - threshold + 1)) time,
/// never more than O(n * threshold). threshold == 0 returns 1 exactly.
double PoissonBinomialTailAtLeast(const std::vector<double>& probs,
                                  std::size_t threshold);

/// As above, but reusing `*dp_scratch` (resized to `threshold`) as the DP
/// row so repeated evaluations allocate nothing once the scratch buffer
/// has reached the run's largest threshold. Arithmetic is identical to the
/// allocating overload (bit-identical results).
double PoissonBinomialTailAtLeast(const double* probs, std::size_t n,
                                  std::size_t threshold,
                                  std::vector<double>* dp_scratch);

/// Pr{ sum(Bernoulli(p_i)) >= t } for EVERY t in the band t_lo..t_hi
/// (t_lo <= t_hi), in one DP pass. `*band` is resized to t_hi - t_lo + 1
/// with band[t - t_lo] the tail probability at threshold t (1 exactly at
/// t == 0, 0 for t > n).
///
/// Bit-exactness contract (relied on by the evaluation cache): each
/// band[t - t_lo] is bit-identical to PoissonBinomialTailAtLeast(probs, n,
/// t, ...). The truncated DP's state s depends only on states <= s, so its
/// trajectory is the same under every truncation above s; maintaining one
/// absorbed-mass accumulator per threshold — updated with
/// `band[t - t_lo] += dp[t-1] * p` before each item's in-place state
/// update, exactly where the direct run adds to `reached` — replays each
/// direct run's floating-point addition sequence verbatim. The direct
/// form is the band [threshold, threshold] of the same kernel body.
///
/// Cost is O(t_hi * (n - t_lo + 1)) time, never more than O(n * t_hi), and
/// O(t_hi) space: states that cannot reach t_lo are skipped, so a band
/// near n is much cheaper than the full table 0..t_hi.
void PoissonBinomialTailBand(const double* probs, std::size_t n,
                             std::size_t t_lo, std::size_t t_hi,
                             std::vector<double>* dp_scratch,
                             std::vector<double>* band);

/// The band 0..threshold: table[t] = Pr{sum >= t} for every t <= threshold
/// (table[0] == 1 exactly). Allocating convenience form.
std::vector<double> PoissonBinomialTailTable(const std::vector<double>& probs,
                                             std::size_t threshold);

/// Expected value of the sum (sum of p_i).
double PoissonBinomialMean(const std::vector<double>& probs);

/// Variance of the sum (sum of p_i (1 - p_i)).
double PoissonBinomialVariance(const std::vector<double>& probs);

namespace internal {

/// One compilation of the DP kernels, named by the ISA level it targets
/// ("x86-64-v4", "x86-64-v3" or "baseline"). The entries behave exactly
/// as the public functions of the same name.
struct PoissonBinomialKernels {
  const char* isa;
  double (*tail_at_least)(const double* probs, std::size_t n,
                          std::size_t threshold,
                          std::vector<double>* dp_scratch);
  void (*tail_band)(const double* probs, std::size_t n, std::size_t t_lo,
                    std::size_t t_hi, std::vector<double>* dp_scratch,
                    std::vector<double>* band);
  /// The band 0..threshold (PoissonBinomialTailTable).
  void (*tail_table)(const double* probs, std::size_t n, std::size_t threshold,
                     std::vector<double>* dp_scratch,
                     std::vector<double>* table);
  void (*pmf)(const double* probs, std::size_t n, std::vector<double>* pmf);
};

/// The variants this CPU can run, widest first; the public functions run
/// the first. The last is always the baseline. Exposed so tests can hold
/// every variant to the baseline's bits.
std::span<const PoissonBinomialKernels> RunnablePoissonBinomialKernels();

}  // namespace internal

}  // namespace pfci

#endif  // PFCI_PROB_POISSON_BINOMIAL_H_
