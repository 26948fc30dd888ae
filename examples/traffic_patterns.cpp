// The paper's motivating scenario (Sec. I): mining hidden traffic patterns
// from unreliable sensor logs. Reproduces Tables I-III end to end:
// the uncertain database, all 16 possible worlds with their frequent
// closed itemsets, and the resulting probabilistic frequent closed
// itemsets — including the exact values PrFC({a b c}) = 0.8754 and
// PrFC({a b c d}) = 0.81 from Examples 1.2/4.3.
//
//   $ ./traffic_patterns
#include <cstdio>
#include <string>

#include "src/core/brute_force.h"
#include "src/core/mine.h"
#include "src/data/world_enumerator.h"
#include "src/exact/closed_miner.h"
#include "src/harness/dataset_factory.h"

int main() {
  using namespace pfci;

  // Table I / II: four sensor readings of the HKUST crossroad, with
  // symbols a = "HKUST", b = "Rain", c = "2:30-3:00", d = "speed 80".
  const UncertainDatabase db = MakePaperExampleDb();
  std::printf("Table II — uncertain transaction database:\n");
  for (Tid tid = 0; tid < db.size(); ++tid) {
    std::printf("  T%u  %-10s  %.1f\n", tid + 1,
                db.transaction(tid).items.ToString(true).c_str(),
                db.prob(tid));
  }

  // Table III: every possible world, its probability, and its frequent
  // closed itemsets at min_sup = 2.
  const std::size_t min_sup = 2;
  std::printf("\nTable III — possible worlds (min_sup=%zu):\n", min_sup);
  int world_id = 0;
  EnumerateWorlds(db, [&](const PossibleWorld& world, double prob) {
    ++world_id;
    std::string transactions;
    for (Tid tid : world.PresentTids()) {
      transactions += "T" + std::to_string(tid + 1) + " ";
    }
    if (transactions.empty()) transactions = "(empty)";
    std::string closed_sets;
    const TransactionDatabase world_db =
        TransactionDatabase::FromWorld(db, world);
    MineClosedItemsetsInto(world_db, min_sup,
                           [&](const Itemset& itemset, std::size_t) {
                             closed_sets += itemset.ToString(true) + " ";
                           });
    if (closed_sets.empty()) closed_sets = "{}";
    std::printf("  PW%-2d  %-14s %.4f   %s\n", world_id, transactions.c_str(),
                prob, closed_sets.c_str());
  });

  // Example 1.1: there are 15 probabilistic frequent itemsets at
  // pft = 0.8 — too many, and with indistinguishable probabilities.
  MiningRequest request;
  request.algorithm = Algorithm::kPfi;
  request.params.min_sup = min_sup;
  request.params.pfct = 0.8;
  const std::size_t num_pfis = Mine(db, request).itemsets.size();
  std::printf("\nProbabilistic frequent itemsets (pft=0.8): %zu\n",
              num_pfis);

  // Examples 1.2 / 4.3: only {a b c} and {a b c d} are probabilistic
  // frequent CLOSED itemsets — the compressed answer.
  request.algorithm = Algorithm::kMpfci;
  const MiningResult result = Mine(db, request);
  std::printf("Probabilistic frequent closed itemsets (pfct=0.8): %zu\n",
              result.itemsets.size());
  for (const PfciEntry& entry : result.itemsets) {
    const WorldProbabilities truth =
        BruteForceItemsetProbabilities(db, entry.items, min_sup);
    std::printf("  %-12s  PrFC=%.4f  (exact by world enumeration: %.4f)\n",
                entry.items.ToString(true).c_str(), entry.fcp, truth.pr_fc);
  }
  std::printf(
      "\nReading: the %zu-itemset answer compresses the %zu probabilistic "
      "frequent itemsets while keeping exact probabilistic semantics.\n",
      result.itemsets.size(), num_pfis);
  return 0;
}
