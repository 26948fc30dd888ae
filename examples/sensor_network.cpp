// Sensor-network monitoring at scale: generate a correlated categorical
// dataset (unreliable sensor readings with Gaussian existence
// probabilities), mine it with MPFCI, and show the compression the paper
// advertises: a handful of probabilistic frequent closed itemsets standing
// in for a much larger set of probabilistic frequent itemsets.
//
//   $ ./sensor_network [rel_min_sup]     (default 0.15)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/core/mine.h"
#include "src/data/database_stats.h"
#include "src/datagen/mushroom_generator.h"
#include "src/datagen/probability_assigner.h"
#include "src/harness/dataset_factory.h"

int main(int argc, char** argv) {
  using namespace pfci;
  const double rel = argc > 1 ? std::atof(argv[1]) : 0.15;

  // A fleet of sensors reporting 12 categorical attributes per reading
  // (location cell, weather, congestion level, ...), with readings
  // dropped or corrupted so each row only exists with some probability.
  MushroomParams gen;
  gen.num_transactions = 1500;
  gen.num_attributes = 12;
  gen.values_per_attribute = 4;
  gen.num_species = 8;  // Latent "traffic regimes".
  gen.seed = 99;
  GaussianAssignerParams assign;
  assign.mean = 0.7;
  assign.spread = 0.2;
  assign.seed = 17;
  const UncertainDatabase db =
      AssignGaussianProbabilities(GenerateMushroomLike(gen), assign);
  std::printf("sensor log: %s\n", ComputeStats(db).ToString().c_str());

  MiningParams params;
  params.min_sup = AbsoluteMinSup(db.size(), rel);
  params.pfct = 0.8;
  std::printf("mining with min_sup=%zu (%.0f%% of rows), pfct=%.2f\n",
              params.min_sup, rel * 100, params.pfct);

  MiningRequest request;
  request.algorithm = Algorithm::kPfi;
  request.params = params;
  const std::size_t num_pfis = Mine(db, request).itemsets.size();
  request.algorithm = Algorithm::kMpfci;
  const MiningResult result = Mine(db, request);

  std::printf("\nprobabilistic frequent itemsets:        %6zu\n",
              num_pfis);
  std::printf("probabilistic frequent CLOSED itemsets: %6zu  (%.1f%%)\n",
              result.itemsets.size(),
              num_pfis == 0 ? 0.0
                           : 100.0 * static_cast<double>(
                                         result.itemsets.size()) /
                                 static_cast<double>(num_pfis));

  std::printf("\ntop patterns (by frequent closed probability):\n");
  std::vector<PfciEntry> sorted = result.itemsets;
  std::sort(sorted.begin(), sorted.end(),
            [](const PfciEntry& a, const PfciEntry& b) {
              return a.fcp > b.fcp;
            });
  const std::size_t show = sorted.size() < 10 ? sorted.size() : 10;
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("  %2zu. %-28s PrFC=%.4f  PrF=%.4f\n", i + 1,
                sorted[i].items.ToString().c_str(), sorted[i].fcp,
                sorted[i].pr_f);
  }
  std::printf("\nmining stats: %s\n", result.stats.ToString().c_str());
  return 0;
}
