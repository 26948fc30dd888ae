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
/// state, O(n * threshold) time and O(threshold) space. threshold == 0
/// returns 1 exactly.
double PoissonBinomialTailAtLeast(const std::vector<double>& probs,
                                  std::size_t threshold);

/// As above, but reusing `*dp_scratch` (resized to `threshold`) as the DP
/// row so repeated evaluations allocate nothing once the scratch buffer
/// has reached the run's largest threshold. Arithmetic is identical to the
/// allocating overload (bit-identical results).
double PoissonBinomialTailAtLeast(const double* probs, std::size_t n,
                                  std::size_t threshold,
                                  std::vector<double>* dp_scratch);

/// Pr{ sum(Bernoulli(p_i)) >= t } for EVERY t in 0..threshold, in one DP
/// pass. `*table` is resized to threshold + 1 with table[t] the tail
/// probability at threshold t (table[0] == 1 exactly, table[t] == 0 for
/// t > n).
///
/// Bit-exactness contract (relied on by the evaluation cache): each
/// table[t] is bit-identical to a direct PoissonBinomialTailAtLeast(probs,
/// n, t, ...) call. The truncated DP's state s depends only on states
/// <= s, so its trajectory is the same under every truncation above s;
/// maintaining one absorbed-mass accumulator per threshold — updated with
/// `table[t] += dp[t-1] * p` before each item's in-place state update,
/// exactly where the direct run adds to `reached` — replays each direct
/// run's floating-point addition sequence verbatim.
///
/// Cost is O(n * threshold) time and O(threshold) space — the same order
/// as the single largest direct evaluation, so precomputing the whole
/// table costs at most ~2x one direct run at `threshold`.
void PoissonBinomialTailTable(const double* probs, std::size_t n,
                              std::size_t threshold,
                              std::vector<double>* dp_scratch,
                              std::vector<double>* table);

/// Allocating convenience form of PoissonBinomialTailTable.
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
