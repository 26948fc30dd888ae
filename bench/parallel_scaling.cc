// Thread-scaling of the parallel mining engine: wall-clock of Mine() at
// 1, 2, 4, 8 threads on the Fig. 5 workloads (MPFCI and Naive), plus a
// Mushroom MPFCI point at rel. min_sup 0.14 where the paper checker
// samples. Each row is the median of kRuns runs, and every run is checked
// against the single-thread baseline: every PfciEntry field and every
// deterministic MiningStats counter must be identical.
//
// Expected shape: near-linear speedup of the Naive stage-2 fan-out, and
// of MPFCI's first-level subtrees plus the nodes explored ahead inside a
// skewed subtree (DESIGN.md §7), while physical cores last, then flat.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/mine.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"

namespace pfci {
namespace {

constexpr int kRuns = 5;

/// Every reported entry field, bit for bit.
bool SameEntries(const MiningResult& a, const MiningResult& b) {
  if (a.itemsets.size() != b.itemsets.size()) return false;
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    const PfciEntry& x = a.itemsets[i];
    const PfciEntry& y = b.itemsets[i];
    if (!(x.items == y.items) || x.fcp != y.fcp || x.pr_f != y.pr_f ||
        x.fcp_lower != y.fcp_lower || x.fcp_upper != y.fcp_upper ||
        x.method != y.method) {
      return false;
    }
  }
  return true;
}

/// The deterministic work counters (wall-clock fields excluded).
bool SameCounters(const MiningStats& a, const MiningStats& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.pruned_by_chernoff == b.pruned_by_chernoff &&
         a.pruned_by_frequency == b.pruned_by_frequency &&
         a.pruned_by_superset == b.pruned_by_superset &&
         a.pruned_by_subset == b.pruned_by_subset &&
         a.decided_by_bounds == b.decided_by_bounds &&
         a.zero_by_count == b.zero_by_count &&
         a.exact_fcp_computations == b.exact_fcp_computations &&
         a.sampled_fcp_computations == b.sampled_fcp_computations &&
         a.total_samples == b.total_samples && a.dp_runs == b.dp_runs &&
         a.degraded_fcp_evals == b.degraded_fcp_evals &&
         a.intersections == b.intersections && a.outcome == b.outcome &&
         a.truncated == b.truncated;
}

void RunDataset(const char* name, const UncertainDatabase& db,
                Algorithm algorithm, double rel) {
  MiningRequest request;
  request.params = bench::PaperDefaultParams(db, rel);
  request.algorithm = algorithm;

  std::printf("\n[%s / %s] %zu transactions, rel min_sup=%.3g (%zu)\n", name,
              AlgorithmName(algorithm), db.size(), rel,
              request.params.min_sup);
  TablePrinter table;
  table.SetHeader({"threads", "seconds", "speedup", "num_PFCI", "samples",
                   "identical"});

  double base_seconds = 0.0;
  MiningResult baseline;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    request.execution.num_threads = threads;
    std::vector<double> seconds;
    bool identical = true;
    MiningResult result;
    for (int run = 0; run < kRuns; ++run) {
      result = Mine(db, request);
      seconds.push_back(result.stats.seconds);
      if (threads == 1 && run == 0) baseline = result;
      identical = identical && SameEntries(baseline, result) &&
                  SameCounters(baseline.stats, result.stats);
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[seconds.size() / 2];
    if (threads == 1) base_seconds = median;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  median > 0.0 ? base_seconds / median : 0.0);
    table.AddRow({std::to_string(threads), bench::FormatSeconds(median),
                  speedup, std::to_string(result.itemsets.size()),
                  std::to_string(result.stats.total_samples),
                  identical ? "yes" : "NO"});
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace
}  // namespace pfci

int main() {
  using namespace pfci;
  const BenchScale scale = ScaleFromEnv();
  PrintBanner("Parallel scaling",
              std::string("Mine() thread sweep (scale=") + ScaleName(scale) +
                  ", hardware threads=" +
                  std::to_string(std::thread::hardware_concurrency()) + ")");
  const UncertainDatabase mushroom = MakeUncertainMushroom(scale);
  const UncertainDatabase quest = MakeUncertainQuest(scale);
  const double mushroom_rel = bench::DefaultRelMinSup(scale, true);
  const double quest_rel = bench::DefaultRelMinSup(scale, false);
  RunDataset("Mushroom-like", mushroom, Algorithm::kMpfci, mushroom_rel);
  // Just below it the paper checker samples (quick scale, rel 0.14: 4
  // sampled checks), so the sampler's RNG path is in the sweep.
  RunDataset("Mushroom-like", mushroom, Algorithm::kMpfci,
             mushroom_rel - 0.01);
  RunDataset("Mushroom-like", mushroom, Algorithm::kNaive, mushroom_rel);
  RunDataset("T20I10D30KP40-like", quest, Algorithm::kMpfci, quest_rel);
  RunDataset("T20I10D30KP40-like", quest, Algorithm::kNaive, quest_rel);
  std::printf(
      "\nAll rows must report identical=yes: the deterministic execution "
      "policy guarantees bit-identical entries and work counters for every "
      "thread count (median of %d runs per row).\n",
      kRuns);
  return 0;
}
