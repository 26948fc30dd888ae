// Regenerates Fig. 11 (a, b): approximation quality of the mining result
// as epsilon and delta vary — precision and recall of the result set
// against the "true" set, which (as in the paper, where the problem is
// #P-hard) is the result at epsilon = delta = 0.01.
//
// Sampling is forced (exact shortcut and bound-clamping would otherwise
// make every run exact and the curves trivially flat at 1).
//
// Expected shape (paper): recall stays ~1 across both sweeps; precision
// degrades slowly as epsilon grows and is nearly insensitive to delta.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/mine.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"

namespace pfci {
namespace {

// pfct sits inside the decision-dense band of the fcp distribution (the
// default 0.8 leaves no borderline itemsets on the quick dataset, which
// would pin both curves at 1.0 regardless of the tolerances).
constexpr double kQualityPfct = 0.7;

MiningParams SamplingParams(const UncertainDatabase& db, double rel,
                            double epsilon, double delta,
                            std::uint64_t rep) {
  MiningParams params = bench::PaperDefaultParams(db, rel);
  params.pfct = kQualityPfct;
  params.epsilon = epsilon;
  params.delta = delta;
  params.force_sampling = true;
  // The Lemma 4.4 bounds are disabled: on these datasets they are tight
  // enough to decide every itemset outright, which would make the curves
  // trivially flat. With bounds off, every surviving itemset is decided
  // by its sampled estimate, as in the paper's quality study. The seed
  // varies with the tolerance so runs are independent.
  params.pruning.fcp_bounds = false;
  params.seed = 7 + static_cast<std::uint64_t>(epsilon * 1000) * 1000003 +
                static_cast<std::uint64_t>(delta * 1000) * 7919 + rep;
  return params;
}

constexpr int kRepetitions = 3;

// Bench runs go through the Mine() front door.
MiningResult MineMpfciViaRequest(const UncertainDatabase& db,
                                 const MiningParams& params) {
  MiningRequest request;
  request.algorithm = Algorithm::kMpfci;
  request.params = params;
  return Mine(db, request);
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Fig. 11",
              std::string("approximation quality (scale=") +
                  ScaleName(scale) + ")");
  const UncertainDatabase db = MakeUncertainMushroom(scale);
  const double rel = bench::DefaultRelMinSup(scale, /*mushroom=*/true);
  std::printf("[Mushroom-like] %zu transactions, rel_min_sup=%.2f\n",
              db.size(), rel);

  // Ground truth. The paper, lacking an exact checker, used the result at
  // epsilon = delta = 0.01; this library has the exact
  // inclusion-exclusion engine, so the truth set comes from the default
  // (bounds + exact) pipeline instead — strictly more accurate and far
  // cheaper than a 0.01-tolerance sampling run.
  MiningParams truth_params = bench::PaperDefaultParams(db, rel);
  truth_params.pfct = kQualityPfct;
  truth_params.exact_event_limit = 25;
  const MiningResult truth_result = MineMpfciViaRequest(db, truth_params);
  const std::vector<Itemset> truth = ItemsetsOf(truth_result);
  std::printf("truth set (exact engine, pfct=%.2f): %zu itemsets\n\n",
              kQualityPfct, truth.size());

  // In addition to precision/recall, report the estimation error of the
  // sampled PrFC values against the exact engine's values: if the
  // result-set metrics sit at 1.0 (the estimator is far inside its
  // guarantee on this data), the error columns still expose the epsilon
  // dependence the experiment is about.
  const auto sweep_row = [&](double epsilon, double delta) {
    double precision = 0.0, recall = 0.0, found_avg = 0.0;
    double mean_err = 0.0, max_err = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const MiningResult result = MineMpfciViaRequest(
          db, SamplingParams(db, rel, epsilon, delta,
                             static_cast<std::uint64_t>(rep)));
      const std::vector<Itemset> found = ItemsetsOf(result);
      precision += ResultPrecision(found, truth);
      recall += ResultRecall(found, truth);
      found_avg += static_cast<double>(found.size());
      double err_sum = 0.0;
      std::size_t matched = 0;
      for (const PfciEntry& entry : result.itemsets) {
        const PfciEntry* exact = truth_result.Find(entry.items);
        if (exact == nullptr) continue;
        const double err = std::abs(entry.fcp - exact->fcp);
        err_sum += err;
        max_err = std::max(max_err, err);
        ++matched;
      }
      if (matched > 0) mean_err += err_sum / static_cast<double>(matched);
    }
    char p[16], r[16], f[16], me[16], xe[16];
    std::snprintf(p, sizeof(p), "%.4f", precision / kRepetitions);
    std::snprintf(r, sizeof(r), "%.4f", recall / kRepetitions);
    std::snprintf(f, sizeof(f), "%.1f", found_avg / kRepetitions);
    std::snprintf(me, sizeof(me), "%.2e", mean_err / kRepetitions);
    std::snprintf(xe, sizeof(xe), "%.2e", max_err);
    return std::vector<std::string>{p, r, f, me, xe};
  };

  {
    TablePrinter table;
    table.SetHeader({"epsilon (delta=0.1)", "precision", "recall", "found", "mean|err|", "max|err|"});
    for (double epsilon : bench::ToleranceSweep()) {
      std::vector<std::string> row = {std::to_string(epsilon)};
      for (std::string& cell : sweep_row(epsilon, 0.1)) {
        row.push_back(std::move(cell));
      }
      table.AddRow(row);
    }
    std::printf("(a) varying epsilon (mean of %d runs)\n%s\n", kRepetitions,
                table.Render().c_str());
  }
  {
    TablePrinter table;
    table.SetHeader({"delta (epsilon=0.1)", "precision", "recall", "found", "mean|err|", "max|err|"});
    for (double delta : bench::ToleranceSweep()) {
      std::vector<std::string> row = {std::to_string(delta)};
      for (std::string& cell : sweep_row(0.1, delta)) {
        row.push_back(std::move(cell));
      }
      table.AddRow(row);
    }
    std::printf("(b) varying delta (mean of %d runs)\n%s", kRepetitions,
                table.Render().c_str());
  }
  std::printf(
      "\nExpected shape: recall ~1 throughout; precision dips mildly as "
      "epsilon grows, nearly flat in delta.\n");
  return 0;
}
