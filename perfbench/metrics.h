// Metric math of the repository benchmark: percentile selection, the
// failed-request ratio, and the result digest that the correctness gate
// compares. Kept apart from the driver so metrics_test.cc can pin it.
#ifndef PFCI_PERFBENCH_METRICS_H_
#define PFCI_PERFBENCH_METRICS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/mining_result.h"

namespace perfbench {

/// Nearest-rank index of quantile `q` (0 < q <= 1) in a sorted sample of
/// size `n` >= 1: the smallest index i with (i + 1) / n >= q.
inline std::size_t NearestRankIndex(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, q);
}

/// Nearest-rank quantile of `values`; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t index = NearestRankIndex(values.size(), q);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

/// The highest of `candidates` (ascending quantiles) that leaves at least
/// `min_beyond` samples above it in a sample of `n`; 0 when none does.
inline double HighestReportablePercentile(std::size_t n,
                                          const std::vector<double>& candidates,
                                          std::size_t min_beyond = 10) {
  double best = 0.0;
  for (double q : candidates) {
    if (SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

/// Share of attempted requests that failed; 0 when nothing was attempted.
inline double FailedRatio(std::size_t failed, std::size_t attempted) {
  return attempted == 0
             ? 0.0
             : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// FNV-1a over the result's itemsets: every item, then the exact bits of
/// fcp and pr_f. Equal digests mean equal answers bit for bit (up to hash
/// collisions); the outcome is deliberately not hashed, see Matches().
inline std::uint64_t Digest(const pfci::MiningResult& result) {
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(result.itemsets.size());
  for (const pfci::PfciEntry& entry : result.itemsets) {
    mix(entry.items.size());
    for (pfci::Item item : entry.items.items()) mix(item);
    mix(std::bit_cast<std::uint64_t>(entry.fcp));
    mix(std::bit_cast<std::uint64_t>(entry.pr_f));
  }
  return hash;
}

/// Whether a timed result counts as correct: it ran to completion and its
/// digest equals the reference digest of a standalone cold Mine().
inline bool Matches(const pfci::MiningResult& result,
                    std::uint64_t reference_digest) {
  return result.ok() && Digest(result) == reference_digest;
}

}  // namespace perfbench

#endif  // PFCI_PERFBENCH_METRICS_H_
