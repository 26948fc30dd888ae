#include "src/prob/poisson_binomial.h"

#include <algorithm>

#include "src/util/check.h"

// The DP kernels below are compiled once per x86-64 ISA level and the widest
// one this CPU runs is picked at first use. Multiversioning needs GCC 12's
// ISA-level names in __builtin_cpu_supports, and a baseline compiled without
// AVX2 (a baseline built with -march=... is already as wide as it gets, and
// its extra ISA flags would keep the body from inlining into the v3 wrapper).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    __GNUC__ >= 12 && !defined(__AVX2__)
#define PFCI_PB_MULTIVERSION 1
#else
#define PFCI_PB_MULTIVERSION 0
#endif

namespace pfci {

namespace {

// Eight doubles: one AVX-512 register, two AVX2 registers or four SSE2
// registers, depending on the ISA a kernel body is compiled for. Every lane
// does the same IEEE multiplies and add as the scalar form, so the width
// changes no bit; -ffp-contract=off on this file (src/CMakeLists.txt) keeps
// the compiler from fusing them into FMAs, which would.
typedef double Lanes __attribute__((vector_size(64)));
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);

/// One item's in-place state update over the band lo..top:
/// dp[s] = dp[s]*(1-p) + dp[s-1]*p for s = top down to max(lo, 1), then
/// dp[0] *= 1-p when lo == 0. Blocks of kLanes cells go top-down, so each
/// block reads its neighbour dp[s-1] before the next block overwrites it,
/// exactly as the descending scalar loop does. Returns the new lower band
/// (see below).
[[gnu::always_inline]] inline std::size_t StepStates(double* dp,
                                                     std::size_t lo,
                                                     std::size_t top,
                                                     double p) {
  const double q = 1.0 - p;
  const std::size_t first = std::max<std::size_t>(lo, 1);
  std::size_t s = top + 1;  // Cells s..top are updated.
  while (s - first >= kLanes) {
    s -= kLanes;
    Lanes cur;
    Lanes below;
    __builtin_memcpy(&cur, dp + s, sizeof cur);
    __builtin_memcpy(&below, dp + s - 1, sizeof below);
    const Lanes next = cur * q + below * p;
    __builtin_memcpy(dp + s, &next, sizeof next);
  }
  for (; s > first; --s) dp[s - 1] = dp[s - 1] * q + dp[s - 2] * p;
  if (lo == 0) dp[0] *= q;
  // The lower band. Every probability is >= 0, so a run of exact +0 cells
  // at the bottom of the row stays +0 (0*(1-p) + 0*p == +0) and adds +0
  // to any accumulator it feeds (x + +0 == x). Later updates start at the
  // first cell that is not exactly zero; that cell still reads its zero
  // neighbour, so no value changes by a bit.
  while (lo < top && dp[lo] == 0.0) ++lo;
  return lo;
}

/// out[k] += dp[k] * p for k = 0..count-1 (each cell independent).
[[gnu::always_inline]] inline void Absorb(double* out, const double* dp,
                                          std::size_t count, double p) {
  std::size_t k = 0;
  for (; k + kLanes <= count; k += kLanes) {
    Lanes acc;
    Lanes below;
    __builtin_memcpy(&acc, out + k, sizeof acc);
    __builtin_memcpy(&below, dp + k, sizeof below);
    acc += below * p;
    __builtin_memcpy(out + k, &acc, sizeof acc);
  }
  for (; k < count; ++k) out[k] += dp[k] * p;
}

[[gnu::always_inline]] inline void PmfBody(const double* probs, std::size_t n,
                                           std::vector<double>* out) {
  out->assign(n + 1, 0.0);
  double* pmf = out->data();
  pmf[0] = 1.0;
  std::size_t lo = 0;     // Cells below lo are exactly zero.
  std::size_t upper = 0;  // Highest index with possibly non-zero mass.
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    PFCI_DCHECK(p >= 0.0 && p <= 1.0);
    ++upper;
    lo = StepStates(pmf, lo, upper, p);
  }
}

/// Pr{sum >= t} for every t in t_lo..t_hi, added into band[t - t_lo]
/// (which the caller zeroes). One DP row serves the whole band: state s
/// depends only on states <= s, so a cell's value is the same under every
/// truncation above it, and each threshold's accumulator receives
/// `dp[t-1] * p` before each item's state update, exactly where a run
/// over states 0..t-1 alone adds to its absorbing state. Two kinds of
/// cells are skipped, and neither changes a bit of what is read:
///  * the lower band of exact zeros (see StepStates);
///  * dead states: with n-1-i items left after item i, a state below
///    t_lo-(n-1-i) can no longer reach t_lo, so it only ever feeds other
///    dead states (docs/ALGORITHM.md §1.1). The row after the last item
///    is never read at all.
[[gnu::always_inline]] inline void TailBandBody(
    const double* probs, std::size_t n, std::size_t t_lo, std::size_t t_hi,
    std::vector<double>* dp_scratch, double* band) {
  PFCI_DCHECK(t_lo <= t_hi);
  if (t_lo == 0) {
    band[0] = 1.0;  // Threshold 0 is certain.
    ++band;
    t_lo = 1;
  }
  // Thresholds above n keep their exact-zero initialization, so the
  // shared DP row only needs states 0..cap-1.
  const std::size_t cap = std::min(t_hi, n);
  if (t_lo > cap) return;
  dp_scratch->assign(cap, 0.0);
  double* dp = dp_scratch->data();
  dp[0] = 1.0;
  std::size_t lo = 0;     // Cells below lo are exactly zero or dead.
  std::size_t upper = 0;  // Highest state index that can currently be live.
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    PFCI_DCHECK(p >= 0.0 && p <= 1.0);
    // Thresholds whose state t-1 lies outside the live band lo..upper
    // would add +0 here, so they are skipped.
    const std::size_t first = std::max(lo + 1, t_lo);
    const std::size_t last = std::min(upper + 1, cap);
    if (first <= last) {
      Absorb(band + (first - t_lo), dp + (first - 1), last - first + 1, p);
    }
    const std::size_t left = n - 1 - i;  // Items after this one.
    if (left == 0) break;
    if (t_lo > left) lo = std::max(lo, t_lo - left);
    const std::size_t top = std::min(upper + 1, cap - 1);
    PFCI_DCHECK(lo <= top);
    lo = StepStates(dp, lo, top, p);
    upper = top;
  }
}

// One thin wrapper per entry point and ISA; each inlines the shared body.
// The direct tail is the band [threshold, threshold] into a local
// accumulator, so it allocates no table. Only reached[0] is ever written;
// the array is one vector wide so that the compiler, which cannot see
// that the band has one cell, finds Absorb's vector path in bounds.
#define PFCI_PB_KERNELS(name, isa, ...)                                     \
  __VA_ARGS__ double TailAtLeast_##name(const double* probs, std::size_t n, \
                                        std::size_t threshold,              \
                                        std::vector<double>* dp_scratch) {  \
    double reached[kLanes] = {};                                            \
    TailBandBody(probs, n, threshold, threshold, dp_scratch, reached);      \
    return reached[0];                                                      \
  }                                                                         \
  __VA_ARGS__ void TailBand_##name(const double* probs, std::size_t n,      \
                                   std::size_t t_lo, std::size_t t_hi,      \
                                   std::vector<double>* dp_scratch,         \
                                   std::vector<double>* band) {             \
    band->assign(t_hi - t_lo + 1, 0.0);                                     \
    TailBandBody(probs, n, t_lo, t_hi, dp_scratch, band->data());           \
  }                                                                         \
  __VA_ARGS__ void TailTable_##name(const double* probs, std::size_t n,     \
                                    std::size_t threshold,                  \
                                    std::vector<double>* dp_scratch,        \
                                    std::vector<double>* table) {           \
    TailBand_##name(probs, n, 0, threshold, dp_scratch, table);             \
  }                                                                         \
  __VA_ARGS__ void Pmf_##name(const double* probs, std::size_t n,           \
                              std::vector<double>* pmf) {                   \
    PmfBody(probs, n, pmf);                                                 \
  }                                                                         \
  constexpr internal::PoissonBinomialKernels k##name{                      \
      isa, TailAtLeast_##name, TailBand_##name, TailTable_##name,          \
      Pmf_##name};

PFCI_PB_KERNELS(Baseline, "baseline")
#if PFCI_PB_MULTIVERSION
PFCI_PB_KERNELS(V3, "x86-64-v3", [[gnu::target("arch=x86-64-v3")]])
PFCI_PB_KERNELS(V4, "x86-64-v4", [[gnu::target("arch=x86-64-v4")]])
#endif

#undef PFCI_PB_KERNELS

/// The variant the public entry points run: the widest this CPU supports.
const internal::PoissonBinomialKernels& Kernels() {
  return internal::RunnablePoissonBinomialKernels().front();
}

}  // namespace

namespace internal {

std::span<const PoissonBinomialKernels> RunnablePoissonBinomialKernels() {
  static const std::vector<PoissonBinomialKernels> runnable = [] {
    std::vector<PoissonBinomialKernels> variants;
#if PFCI_PB_MULTIVERSION
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) variants.push_back(kV4);
    if (__builtin_cpu_supports("x86-64-v3")) variants.push_back(kV3);
#endif
    variants.push_back(kBaseline);
    return variants;
  }();
  return runnable;
}

}  // namespace internal

std::vector<double> PoissonBinomialPmf(const std::vector<double>& probs) {
  std::vector<double> pmf;
  Kernels().pmf(probs.data(), probs.size(), &pmf);
  return pmf;
}

double PoissonBinomialTailAtLeast(const std::vector<double>& probs,
                                  std::size_t threshold) {
  std::vector<double> dp;
  return PoissonBinomialTailAtLeast(probs.data(), probs.size(), threshold,
                                    &dp);
}

double PoissonBinomialTailAtLeast(const double* probs, std::size_t n,
                                  std::size_t threshold,
                                  std::vector<double>* dp_scratch) {
  return Kernels().tail_at_least(probs, n, threshold, dp_scratch);
}

void PoissonBinomialTailBand(const double* probs, std::size_t n,
                             std::size_t t_lo, std::size_t t_hi,
                             std::vector<double>* dp_scratch,
                             std::vector<double>* band) {
  Kernels().tail_band(probs, n, t_lo, t_hi, dp_scratch, band);
}

std::vector<double> PoissonBinomialTailTable(const std::vector<double>& probs,
                                             std::size_t threshold) {
  std::vector<double> dp;
  std::vector<double> table;
  Kernels().tail_table(probs.data(), probs.size(), threshold, &dp, &table);
  return table;
}

double PoissonBinomialMean(const std::vector<double>& probs) {
  double mean = 0.0;
  for (double p : probs) mean += p;
  return mean;
}

double PoissonBinomialVariance(const std::vector<double>& probs) {
  double var = 0.0;
  for (double p : probs) var += p * (1.0 - p);
  return var;
}

}  // namespace pfci
