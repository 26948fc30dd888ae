#include "src/harness/oracle/invariants.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "src/core/eval_cache.h"
#include "src/core/stream_miner.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace pfci {

namespace {

/// The interval a reported entry provably confines the true PrFC to:
/// exact evaluations pin it to a point, bounds-decided entries only to
/// their Lemma 4.4 interval.
struct FcpInterval {
  double lo = 0.0;
  double hi = 1.0;
};

FcpInterval IntervalOf(const PfciEntry& entry) {
  if (entry.method == FcpMethod::kExact ||
      entry.method == FcpMethod::kZeroByCount) {
    return {entry.fcp, entry.fcp};
  }
  return {entry.fcp_lower, entry.fcp_upper};
}

bool IntervalsConsistent(const FcpInterval& a, const FcpInterval& b,
                         double tol) {
  return a.lo <= b.hi + tol && b.lo <= a.hi + tol;
}

/// Whether the entry's provable interval straddles the qualification
/// threshold: membership may then legitimately differ between two
/// equally-sound evaluation orders.
bool StraddlesThreshold(const FcpInterval& interval, double pfct,
                        double tol) {
  return interval.lo <= pfct + tol && interval.hi >= pfct - tol;
}

MiningRequest MakeRequest(const MiningParams& params, Algorithm algorithm,
                          std::size_t top_k = 0) {
  MiningRequest request;
  request.params = params;
  request.algorithm = algorithm;
  request.execution.num_threads = 1;
  request.top_k = top_k;
  return request;
}

void AddFinding(std::vector<OracleFinding>* findings, const char* check,
                std::string detail, const MiningRequest& request) {
  OracleFinding finding;
  finding.check = check;
  finding.detail = std::move(detail);
  finding.request = request;
  findings->push_back(std::move(finding));
}

std::string EntryLabel(const PfciEntry& entry) {
  return entry.items.ToString() + " fcp=" + FormatDoubleRoundTrip(entry.fcp) +
         " [" + FormatDoubleRoundTrip(entry.fcp_lower) + ", " +
         FormatDoubleRoundTrip(entry.fcp_upper) + "] (" +
         FcpMethodName(entry.method) + ")";
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Strict comparison for the bit-identical contracts (thread count,
/// tid-set mode, eval cache, repeated run): every field of every entry
/// must match to the bit.
void CompareBitwise(const MiningResult& ref, const MiningResult& alt,
                    const char* check, const char* what,
                    const MiningRequest& alt_request,
                    std::vector<OracleFinding>* findings) {
  if (ref.itemsets.size() != alt.itemsets.size()) {
    AddFinding(findings, check,
               std::string(what) + ": " + std::to_string(ref.itemsets.size()) +
                   " vs " + std::to_string(alt.itemsets.size()) + " itemsets",
               alt_request);
    return;
  }
  for (std::size_t i = 0; i < ref.itemsets.size(); ++i) {
    const PfciEntry& a = ref.itemsets[i];
    const PfciEntry& b = alt.itemsets[i];
    if (a.items != b.items || !SameBits(a.fcp, b.fcp) ||
        !SameBits(a.pr_f, b.pr_f) || !SameBits(a.fcp_lower, b.fcp_lower) ||
        !SameBits(a.fcp_upper, b.fcp_upper) || a.method != b.method) {
      AddFinding(findings, check,
                 std::string(what) + ": entry " + std::to_string(i) +
                     " differs: " + EntryLabel(a) + " vs " + EntryLabel(b),
                 alt_request);
      return;
    }
  }
}

/// Rounding slack a reported probability may carry (docs/ALGORITHM.md
/// §1.1): 64 ulp of 1, above 1 and across the Lemma 4.4 interval (an
/// exact fcp and its bounds are rounded along different paths).
constexpr double kRoundingSlack = 64 * std::numeric_limits<double>::epsilon();

/// The range every reported entry keeps: 0 <= pr_f, 0 <= fcp_lower <=
/// fcp <= fcp_upper, and neither pr_f nor fcp_upper above 1, each up to
/// the rounding slack. Written so that a NaN fails every comparison.
void CheckProbabilityRanges(const MiningResult& result, const char* what,
                            const MiningRequest& request,
                            std::vector<OracleFinding>* findings) {
  for (const PfciEntry& entry : result.itemsets) {
    if (!(entry.pr_f >= 0.0 && entry.pr_f <= 1.0 + kRoundingSlack &&
          entry.fcp_lower >= 0.0 &&
          entry.fcp_lower <= entry.fcp + kRoundingSlack &&
          entry.fcp <= entry.fcp_upper + kRoundingSlack &&
          entry.fcp_upper <= 1.0 + kRoundingSlack)) {
      AddFinding(findings, "range/probability",
                 std::string(what) + ": " + EntryLabel(entry) +
                     " pr_f=" + FormatDoubleRoundTrip(entry.pr_f),
                 request);
      return;
    }
  }
}

/// Tolerant comparison for runs that are mathematically equal but may
/// order floating-point work differently (DFS vs BFS, permuted
/// transactions, the brute-force world sum). Set membership must agree
/// except for entries whose provable interval straddles pfct; matched
/// entries must have consistent intervals (and equal fcp to `tol` when
/// both sides evaluated exactly).
void CompareExact(const MiningResult& ref, const MiningResult& alt,
                  double pfct, double tol, bool compare_pr_f,
                  const char* check, const char* what,
                  const MiningRequest& alt_request,
                  std::vector<OracleFinding>* findings) {
  std::map<Itemset, const PfciEntry*> alt_map;
  for (const PfciEntry& entry : alt.itemsets) alt_map[entry.items] = &entry;
  std::size_t matched = 0;
  for (const PfciEntry& a : ref.itemsets) {
    auto it = alt_map.find(a.items);
    if (it == alt_map.end()) {
      if (StraddlesThreshold(IntervalOf(a), pfct, tol)) continue;
      AddFinding(findings, check,
                 std::string(what) + ": " + EntryLabel(a) +
                     " missing from the other run",
                 alt_request);
      continue;
    }
    ++matched;
    const PfciEntry& b = *it->second;
    const FcpInterval ia = IntervalOf(a);
    const FcpInterval ib = IntervalOf(b);
    if (!IntervalsConsistent(ia, ib, tol)) {
      AddFinding(findings, check,
                 std::string(what) + ": inconsistent fcp for " +
                     EntryLabel(a) + " vs " + EntryLabel(b),
                 alt_request);
    } else if (ia.lo == ia.hi && ib.lo == ib.hi &&
               std::fabs(a.fcp - b.fcp) > tol) {
      AddFinding(findings, check,
                 std::string(what) + ": exact fcp mismatch for " +
                     EntryLabel(a) + " vs " + EntryLabel(b),
                 alt_request);
    }
    if (compare_pr_f && std::fabs(a.pr_f - b.pr_f) > tol) {
      AddFinding(findings, check,
                 std::string(what) + ": pr_f mismatch for " +
                     a.items.ToString() + ": " +
                     FormatDoubleRoundTrip(a.pr_f) + " vs " +
                     FormatDoubleRoundTrip(b.pr_f),
                 alt_request);
    }
  }
  if (matched != alt.itemsets.size()) {
    for (const PfciEntry& b : alt.itemsets) {
      if (alt_map.find(b.items) == alt_map.end()) continue;
      bool in_ref = false;
      for (const PfciEntry& a : ref.itemsets) {
        if (a.items == b.items) {
          in_ref = true;
          break;
        }
      }
      if (!in_ref && !StraddlesThreshold(IntervalOf(b), pfct, tol)) {
        AddFinding(findings, check,
                   std::string(what) + ": extra entry " + EntryLabel(b),
                   alt_request);
      }
    }
  }
}

/// The certain closure of X over its supporting transactions: the items
/// present in EVERY transaction containing X. A reported itemset with
/// PrFC > 0 must be a fixed point (otherwise a same-tidset superset
/// exists and X is closed in no possible world — Lemma 4.2's limit).
Itemset CertainClosure(const UncertainDatabase& db, const Itemset& x) {
  Itemset closure;
  bool first = true;
  for (const UncertainTransaction& t : db.transactions()) {
    if (!x.IsSubsetOf(t.items)) continue;
    closure = first ? t.items : closure.IntersectWith(t.items);
    first = false;
  }
  return first ? x : closure;
}

void CheckClosureFixedPoint(const UncertainDatabase& db,
                            const MiningResult& result,
                            const MiningRequest& request, const char* what,
                            std::vector<OracleFinding>* findings) {
  for (const PfciEntry& entry : result.itemsets) {
    const Itemset closure = CertainClosure(db, entry.items);
    if (!(closure == entry.items)) {
      AddFinding(findings, "meta/closure",
                 std::string(what) + ": reported " + EntryLabel(entry) +
                     " is not closure-idempotent (certain closure is " +
                     closure.ToString() + ", so PrFC is exactly 0)",
                 request);
    }
  }
}

UncertainDatabase PermuteTransactions(const UncertainDatabase& db,
                                      std::uint64_t seed) {
  std::vector<std::size_t> order(db.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(DeriveSeed(seed, 0x5e0f1e));
  rng.Shuffle(order);
  UncertainDatabase permuted;
  for (std::size_t i : order) {
    const UncertainTransaction& t = db.transaction(static_cast<Tid>(i));
    permuted.Add(t.items, t.prob);
  }
  return permuted;
}

}  // namespace

double SampledTolerance(double epsilon, std::size_t num_items) {
  // 6-sigma envelope of the Karp-Luby estimate Z * p_hat: sigma <=
  // Z / (2 sqrt(N)) with N = 4 m ln(2/delta) / eps^2 and Z <= m, so
  // sigma <= eps sqrt(m) / 4 (already at delta ~ 0.27). m is bounded by
  // the item count; the additive term absorbs degenerate cases.
  const double m = static_cast<double>(std::max<std::size_t>(1, num_items));
  return 1.5 * epsilon * std::sqrt(m) + 1e-6;
}

std::vector<OracleFinding> CheckDatabase(const UncertainDatabase& db,
                                         const MiningParams& params,
                                         const OracleOptions& options) {
  std::vector<OracleFinding> findings;
  const double tol = options.exact_tolerance;
  const double pfct = params.pfct;
  const std::size_t num_items = db.ItemUniverse().size();

  const MiningRequest base = MakeRequest(params, Algorithm::kMpfci);
  const MiningResult reference = Mine(db, base);
  if (reference.outcome() != Outcome::kComplete) {
    AddFinding(&findings, "run/incomplete",
               std::string("mpfci run did not complete: ") +
                   reference.status_message,
               base);
    return findings;
  }

  // --- Range: every reported probability lies in [0, 1] up to rounding.
  CheckProbabilityRanges(reference, "mpfci", base, &findings);

  // --- Determinism: the same request must reproduce itself bit-exactly.
  CompareBitwise(reference, Mine(db, base), "determinism/rerun",
                 "identical request, second run", base, &findings);

  // --- Pruning-toggle invariance (the paper's Table VII variants): each
  // rule only skips work, never changes the answer. The bounds-off run
  // doubles as the catalog's high-precision reference: without Lemma 4.4
  // shortcuts every reported fcp is an exact point, so the comparisons
  // below bite at 1e-9 instead of at interval width.
  MiningParams no_bounds_params = params;
  no_bounds_params.pruning.fcp_bounds = false;
  const MiningRequest no_bounds =
      MakeRequest(no_bounds_params, Algorithm::kMpfci);
  const MiningResult exact_ref = Mine(db, no_bounds);
  CheckProbabilityRanges(exact_ref, "mpfci, fcp_bounds off", no_bounds,
                         &findings);
  CompareExact(reference, exact_ref, pfct, tol, /*compare_pr_f=*/true,
               "invariance/pruning", "fcp_bounds on vs off", no_bounds,
               &findings);
  for (int toggle = 0; toggle < 3; ++toggle) {
    MiningParams toggled = params;
    const char* what = nullptr;
    if (toggle == 0) {
      toggled.pruning.chernoff = false;
      what = "chernoff pruning on vs off";
    } else if (toggle == 1) {
      toggled.pruning.superset = false;
      what = "superset pruning on vs off";
    } else {
      toggled.pruning.subset = false;
      what = "subset pruning on vs off";
    }
    const MiningRequest request = MakeRequest(toggled, Algorithm::kMpfci);
    CompareExact(reference, Mine(db, request), pfct, tol,
                 /*compare_pr_f=*/true, "invariance/pruning", what, request,
                 &findings);
  }

  // --- Cross-algorithm: the BFS framework answers the same problem.
  const MiningRequest bfs = MakeRequest(params, Algorithm::kMpfciBfs);
  CompareExact(reference, Mine(db, bfs), pfct, tol, /*compare_pr_f=*/true,
               "cross/bfs", "mpfci vs bfs", bfs, &findings);

  // --- Ground truth: explicit possible-world enumeration on small inputs.
  // The default run is compared at interval consistency (bounds-decided
  // entries only pin an interval); the bounds-off run must then match
  // the enumerated PrFC point-for-point.
  if (db.size() <= options.brute_max_transactions) {
    const MiningRequest brute = MakeRequest(params, Algorithm::kBruteForce);
    const MiningResult truth = Mine(db, brute);
    // Brute-force entries carry no pr_f (the enumerator reports PrFC
    // only), so the frequency comparison is skipped.
    CompareExact(reference, truth, pfct, tol, /*compare_pr_f=*/false,
                 "cross/brute", "mpfci vs possible-world enumeration", brute,
                 &findings);
    CompareExact(exact_ref, truth, pfct, tol, /*compare_pr_f=*/false,
                 "cross/brute", "bounds-off mpfci vs possible-world "
                 "enumeration", brute, &findings);
    CheckClosureFixedPoint(db, truth, brute, "brute", &findings);
  }

  // --- PFI containment: every PFCI is probabilistically frequent.
  const MiningRequest pfi = MakeRequest(params, Algorithm::kPfi);
  const MiningResult pfi_result = Mine(db, pfi);
  CheckProbabilityRanges(pfi_result, "pfi", pfi, &findings);
  {
    std::map<Itemset, double> pfi_prf;
    for (const PfciEntry& entry : pfi_result.itemsets) {
      pfi_prf[entry.items] = entry.pr_f;
    }
    for (const PfciEntry& entry : reference.itemsets) {
      auto it = pfi_prf.find(entry.items);
      if (it == pfi_prf.end()) {
        AddFinding(&findings, "pfi/superset",
                   "PFCI " + EntryLabel(entry) +
                       " is missing from the PFI result (PrFC <= PrF)",
                   pfi);
      } else if (std::fabs(it->second - entry.pr_f) > tol) {
        AddFinding(&findings, "pfi/superset",
                   "pr_f mismatch for " + entry.items.ToString() + ": pfi " +
                       FormatDoubleRoundTrip(it->second) + " vs mpfci " +
                       FormatDoubleRoundTrip(entry.pr_f),
                   pfi);
      }
    }
  }

  // --- Top-k is a fcp-ranked prefix of the full answer.
  {
    const MiningRequest topk =
        MakeRequest(params, Algorithm::kTopK, options.top_k);
    const MiningResult top = Mine(db, topk);
    const std::size_t expected =
        std::min(options.top_k, reference.itemsets.size());
    if (top.itemsets.size() != expected) {
      AddFinding(&findings, "topk/prefix",
                 "top-" + std::to_string(options.top_k) + " returned " +
                     std::to_string(top.itemsets.size()) + " entries, full "
                     "run has " +
                     std::to_string(reference.itemsets.size()),
                 topk);
    } else {
      std::map<Itemset, const PfciEntry*> full;
      for (const PfciEntry& entry : reference.itemsets) {
        full[entry.items] = &entry;
      }
      double min_selected_hi = 2.0;
      std::map<Itemset, bool> selected;
      for (const PfciEntry& entry : top.itemsets) {
        selected[entry.items] = true;
        auto it = full.find(entry.items);
        if (it == full.end()) {
          AddFinding(&findings, "topk/prefix",
                     "top-k entry " + EntryLabel(entry) +
                         " is absent from the full result",
                     topk);
          continue;
        }
        if (!IntervalsConsistent(IntervalOf(entry), IntervalOf(*it->second),
                                 tol)) {
          AddFinding(&findings, "topk/prefix",
                     "inconsistent fcp for " + EntryLabel(entry) + " vs " +
                         EntryLabel(*it->second),
                     topk);
        }
        min_selected_hi = std::min(min_selected_hi, IntervalOf(entry).hi);
      }
      for (const PfciEntry& entry : reference.itemsets) {
        if (selected.count(entry.items)) continue;
        if (IntervalOf(entry).lo > min_selected_hi + tol) {
          AddFinding(&findings, "topk/prefix",
                     "excluded entry " + EntryLabel(entry) +
                         " provably outranks a selected one",
                     topk);
        }
      }
    }
  }

  // --- Metamorphic: raising pfct can only shrink the result set.
  {
    MiningParams tighter = params;
    tighter.pfct = pfct + 0.5 * (1.0 - pfct);
    const MiningRequest tight = MakeRequest(tighter, Algorithm::kMpfci);
    const MiningResult shrunk = Mine(db, tight);
    std::map<Itemset, bool> in_base;
    for (const PfciEntry& entry : reference.itemsets) {
      in_base[entry.items] = true;
    }
    for (const PfciEntry& entry : shrunk.itemsets) {
      if (!in_base.count(entry.items)) {
        AddFinding(&findings, "meta/pfct",
                   "raising pfct " + FormatDoubleRoundTrip(pfct) + " -> " +
                       FormatDoubleRoundTrip(tighter.pfct) +
                       " grew the result set by " + EntryLabel(entry),
                   tight);
      }
    }
  }

  // --- Metamorphic: PrF (and the PFI set) is anti-monotone in min_sup.
  {
    MiningParams higher = params;
    higher.min_sup = params.min_sup + 1;
    const MiningRequest tight = MakeRequest(higher, Algorithm::kPfi);
    const MiningResult shrunk = Mine(db, tight);
    std::map<Itemset, double> base_prf;
    for (const PfciEntry& entry : pfi_result.itemsets) {
      base_prf[entry.items] = entry.pr_f;
    }
    for (const PfciEntry& entry : shrunk.itemsets) {
      auto it = base_prf.find(entry.items);
      if (it == base_prf.end()) {
        AddFinding(&findings, "meta/minsup",
                   "PFI at min_sup " + std::to_string(higher.min_sup) +
                       " contains " + entry.items.ToString() +
                       ", absent at min_sup " +
                       std::to_string(params.min_sup),
                   tight);
      } else if (entry.pr_f > it->second + 1e-12) {
        AddFinding(&findings, "meta/minsup",
                   "PrF(" + entry.items.ToString() + ") grew with min_sup: " +
                       FormatDoubleRoundTrip(it->second) + " -> " +
                       FormatDoubleRoundTrip(entry.pr_f),
                   tight);
      }
    }
  }

  // --- Metamorphic: reported itemsets are closure fixed points.
  CheckClosureFixedPoint(db, reference, base, "mpfci", &findings);

  // --- Invariance: transaction order is irrelevant (1e-9 — the DP's
  // summation order moves with the permutation).
  if (options.check_permutation && db.size() > 1) {
    const UncertainDatabase permuted = PermuteTransactions(db, params.seed);
    CompareExact(reference, Mine(permuted, base), pfct, tol,
                 /*compare_pr_f=*/true, "invariance/permutation",
                 "original vs permuted transactions", base, &findings);
  }

  // --- Invariance: thread count and tid-set mode are bit-identical.
  {
    MiningRequest threaded = base;
    threaded.execution.num_threads = options.alt_threads;
    CompareBitwise(reference, Mine(db, threaded), "invariance/threads",
                   "1 vs alt threads", threaded, &findings);
  }
  for (TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    MiningRequest moded = base;
    moded.params.tidset_mode = mode;
    CompareBitwise(reference, Mine(db, moded), "invariance/tidset",
                   mode == TidSetMode::kSparse ? "adaptive vs sparse"
                                               : "adaptive vs dense",
                   moded, &findings);
  }

  // --- Invariance: suspend → snapshot → resume equals uninterrupted
  // (DESIGN.md §14). A node budget drains the run at a unit boundary and
  // persists the frontier; resuming must reproduce the reference result
  // bit-for-bit with matching deterministic work counters (dp_runs and
  // the cache counters are per-run evaluator state, not snapshot state,
  // so they are exempt).
  if (options.check_resume && reference.stats.nodes_visited > 1) {
    const std::string snapshot_path =
        "/tmp/pfci_oracle_resume_" + std::to_string(::getpid()) + "_" +
        std::to_string(params.seed) + ".snapshot";
    MiningRequest suspending = base;
    suspending.budget.max_nodes = reference.stats.nodes_visited / 2;
    suspending.snapshot.save_path = snapshot_path;
    const MiningResult part = Mine(db, suspending);
    // A run whose first unit already covers the budget completes anyway;
    // there is then no snapshot to resume and nothing to check.
    if (!part.ok() && part.stats.snapshot_bytes > 0) {
      MiningRequest resuming = base;
      resuming.snapshot.resume_path = snapshot_path;
      const MiningResult resumed = Mine(db, resuming);
      CompareBitwise(reference, resumed, "invariance/resume",
                     "uninterrupted vs suspend+resume", resuming, &findings);
      const MiningStats& r = reference.stats;
      const MiningStats& s = resumed.stats;
      if (s.nodes_visited != r.nodes_visited ||
          s.intersections != r.intersections ||
          s.total_samples != r.total_samples ||
          s.sampled_fcp_computations != r.sampled_fcp_computations ||
          s.exact_fcp_computations != r.exact_fcp_computations) {
        AddFinding(&findings, "invariance/resume",
                   "suspend+resume counter drift: nodes " +
                       std::to_string(r.nodes_visited) + " vs " +
                       std::to_string(s.nodes_visited) + ", intersections " +
                       std::to_string(r.intersections) + " vs " +
                       std::to_string(s.intersections) + ", samples " +
                       std::to_string(r.total_samples) + " vs " +
                       std::to_string(s.total_samples),
                   resuming);
      }
    }
    std::remove(snapshot_path.c_str());
  }

  // --- Invariance: the session evaluation caches never change results
  // (cold fill, then a warm replay answered from the cache).
  if (options.check_session_cache) {
    EvalCache cache(EvalCache::Options{});
    ItemWarmStart warm_start;
    SessionBindings bindings;
    bindings.eval_cache = &cache;
    bindings.warm_start = &warm_start;
    bindings.table_band = {params.min_sup, params.min_sup + 2};
    CompareBitwise(reference, MineWithBindings(db, base, bindings),
                   "invariance/cache", "unbound vs cold eval cache", base,
                   &findings);
    CompareBitwise(reference, MineWithBindings(db, base, bindings),
                   "invariance/cache", "unbound vs warm eval cache", base,
                   &findings);
  }

  // --- Invariance: a full streaming window equals direct mining. Exact
  // paths only (the stream advances its sampling seed by design).
  if (options.check_streaming && !db.empty() &&
      num_items <= params.exact_event_limit &&
      reference.stats.total_samples == 0) {
    StreamingPfciMiner stream(params, db.size());
    for (const UncertainTransaction& t : db.transactions()) {
      stream.Observe(t.items, t.prob);
    }
    const MiningResult windowed = stream.MineWindow();
    CompareBitwise(reference, windowed, "invariance/stream",
                   "direct vs full-window streaming", base, &findings);
  }

  // --- Cross-algorithm: the two expected-support miners agree exactly.
  {
    const MiningRequest esup = MakeRequest(params, Algorithm::kExpectedSupport);
    const MiningRequest esup_fp =
        MakeRequest(params, Algorithm::kExpectedSupportFpGrowth);
    const MiningResult a = Mine(db, esup);
    const MiningResult b = Mine(db, esup_fp);
    std::map<Itemset, double> fp_map;
    for (const PfciEntry& entry : b.itemsets) fp_map[entry.items] = entry.pr_f;
    if (a.itemsets.size() != b.itemsets.size()) {
      AddFinding(&findings, "cross/esup",
                 "esup found " + std::to_string(a.itemsets.size()) +
                     " itemsets, esup-fp " + std::to_string(b.itemsets.size()),
                 esup_fp);
    } else {
      for (const PfciEntry& entry : a.itemsets) {
        auto it = fp_map.find(entry.items);
        if (it == fp_map.end()) {
          AddFinding(&findings, "cross/esup",
                     "esup itemset " + entry.items.ToString() +
                         " missing from esup-fp",
                     esup_fp);
        } else if (std::fabs(it->second - entry.pr_f) > tol) {
          AddFinding(&findings, "cross/esup",
                     "expected support mismatch for " +
                         entry.items.ToString() + ": " +
                         FormatDoubleRoundTrip(entry.pr_f) + " vs " +
                         FormatDoubleRoundTrip(it->second),
                     esup_fp);
        }
      }
    }
  }

  // --- Cross-algorithm: the Naive baseline, at its statistical
  // tolerance. Its stage-1 PrF is an exact DP (tight check); its fcp is
  // a Karp-Luby estimate, so membership may flip only within tau of the
  // threshold and values must land within tau of the exact answer.
  if (options.check_naive) {
    MiningParams naive_params = params;
    naive_params.epsilon = options.naive_epsilon;
    naive_params.delta = options.naive_delta;
    const MiningRequest naive = MakeRequest(naive_params, Algorithm::kNaive);
    const MiningResult sampled = Mine(db, naive);
    CheckProbabilityRanges(sampled, "naive", naive, &findings);
    const double tau = SampledTolerance(options.naive_epsilon, num_items);
    // The bounds-off run is the comparison baseline: its fcp values are
    // exact points, so the statistical envelope is anchored tightly.
    std::map<Itemset, const PfciEntry*> exact;
    for (const PfciEntry& entry : exact_ref.itemsets) {
      exact[entry.items] = &entry;
    }
    for (const PfciEntry& entry : sampled.itemsets) {
      auto it = exact.find(entry.items);
      if (it == exact.end()) {
        // A false positive: only tolerable when the estimate itself is
        // within tau of the threshold (true fcp <= pfct < estimate).
        if (entry.fcp > pfct + tau) {
          AddFinding(&findings, "cross/naive",
                     "naive reported " + EntryLabel(entry) +
                         " well above pfct, absent from the exact answer",
                     naive);
        }
        continue;
      }
      const FcpInterval truth = IntervalOf(*it->second);
      if (entry.fcp < truth.lo - tau || entry.fcp > truth.hi + tau) {
        AddFinding(&findings, "cross/naive",
                   "naive fcp estimate " + EntryLabel(entry) +
                       " outside the statistical envelope of " +
                       EntryLabel(*it->second),
                   naive);
      }
      if (std::fabs(entry.pr_f - it->second->pr_f) > tol) {
        AddFinding(&findings, "cross/naive",
                   "naive pr_f mismatch for " + entry.items.ToString() +
                       ": " + FormatDoubleRoundTrip(entry.pr_f) + " vs " +
                       FormatDoubleRoundTrip(it->second->pr_f),
                   naive);
      }
    }
    for (const PfciEntry& entry : reference.itemsets) {
      bool in_sampled = false;
      for (const PfciEntry& s : sampled.itemsets) {
        if (s.items == entry.items) {
          in_sampled = true;
          break;
        }
      }
      // A false negative: tolerable only when the exact fcp sits within
      // tau of the threshold.
      if (!in_sampled && IntervalOf(entry).lo > pfct + tau) {
        AddFinding(&findings, "cross/naive",
                   "naive missed " + EntryLabel(entry) +
                       " despite fcp well above pfct",
                   naive);
      }
    }
  }

  return findings;
}

std::string FindingsToString(const std::vector<OracleFinding>& findings) {
  std::string out;
  for (const OracleFinding& finding : findings) {
    out += finding.check + ": " + finding.detail + "\n";
  }
  return out;
}

}  // namespace pfci
