// Micro-benchmarks of the library's primitives (google-benchmark): the
// Poisson-binomial DP, tid-list intersection, conditional sampling,
// extension-event construction, FCP bounds vs exact vs sampled, and the
// exact miners. These quantify the constants behind the figure-level
// results (e.g. why Lemma 4.4's O(m^2) bounds beat one ApproxFCP call).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/extension_events.h"
#include "src/core/fcp_bounds.h"
#include "src/core/fcp_exact.h"
#include "src/core/fcp_sampler.h"
#include "src/core/frequent_probability.h"
#include "src/data/vertical_index.h"
#include "src/exact/closed_miner.h"
#include "src/exact/fp_growth.h"
#include "src/harness/dataset_factory.h"
#include "src/prob/conditional_sampler.h"
#include "src/prob/poisson_binomial.h"
#include "src/util/random.h"
#include "src/util/runtime.h"

namespace pfci {
namespace {

std::vector<double> RandomProbs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(n);
  for (double& p : probs) p = rng.NextDouble();
  return probs;
}

/// The ISA variant the Poisson-binomial DP dispatched to on this CPU.
const char* DpIsa() {
  return internal::RunnablePoissonBinomialKernels().front().isa;
}

/// The direct tail at threshold range(1) percent of n. At 25 % the
/// dead-state cut skips little; at 90 % each state lives for only the
/// last ~n/10 items before it can no longer reach the threshold.
void BM_PoissonBinomialTail(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threshold =
      n * static_cast<std::size_t>(state.range(1)) / 100;
  const std::vector<double> probs = RandomProbs(n, 1);
  std::vector<double> dp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PoissonBinomialTailAtLeast(probs.data(), n, threshold, &dp));
  }
  state.SetLabel(DpIsa());
}
BENCHMARK(BM_PoissonBinomialTail)
    ->ArgsProduct({benchmark::CreateRange(64, 8192, 8), {25, 90}});

/// The whole tail table 0..n/4 (PoissonBinomialTailTable's band), with
/// the DP row and table reused across iterations.
void BM_PoissonBinomialTailTable(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> probs = RandomProbs(n, 1);
  std::vector<double> dp;
  std::vector<double> table;
  for (auto _ : state) {
    PoissonBinomialTailBand(probs.data(), n, 0, n / 4, &dp, &table);
    benchmark::DoNotOptimize(table.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.SetLabel(DpIsa());
}
BENCHMARK(BM_PoissonBinomialTailTable)->Range(64, 8192)->Complexity();

/// The band 0.8n..0.9n an EvalCache entry of a batch group stores: one
/// DP pass for a whole ladder of high thresholds.
void BM_PoissonBinomialTailBand(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> probs = RandomProbs(n, 1);
  std::vector<double> dp;
  std::vector<double> band;
  for (auto _ : state) {
    PoissonBinomialTailBand(probs.data(), n, n * 8 / 10, n * 9 / 10, &dp,
                            &band);
    benchmark::DoNotOptimize(band.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
  state.SetLabel(DpIsa());
}
BENCHMARK(BM_PoissonBinomialTailBand)->Range(64, 8192)->Complexity();

void BM_PoissonBinomialPmf(benchmark::State& state) {
  const std::vector<double> probs =
      RandomProbs(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialPmf(probs));
  }
  state.SetLabel(DpIsa());
}
BENCHMARK(BM_PoissonBinomialPmf)->Range(64, 2048);

void BM_TidListIntersect(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  TidList a, b;
  for (Tid t = 0; t < n; ++t) {
    if (rng.NextBernoulli(0.6)) a.push_back(t);
    if (rng.NextBernoulli(0.6)) b.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectTids(a, b));
  }
}
BENCHMARK(BM_TidListIntersect)->Range(256, 65536);

void BM_ConditionalSamplerBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> probs = RandomProbs(n, 4);
  for (auto _ : state) {
    const ConditionalBernoulliSampler sampler(probs, n / 4);
    benchmark::DoNotOptimize(sampler.condition_probability());
  }
}
BENCHMARK(BM_ConditionalSamplerBuild)->Range(64, 2048);

void BM_ConditionalSamplerDraw(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> probs = RandomProbs(n, 5);
  const ConditionalBernoulliSampler sampler(probs, n / 4);
  Rng rng(6);
  // The fused draw as ApproxFcp runs it: present variables go straight
  // into a bitmask.
  std::vector<std::uint64_t> mask((n + 63) / 64);
  for (auto _ : state) {
    std::fill(mask.begin(), mask.end(), 0);
    sampler.SampleEach(rng, [&mask](std::size_t i) {
      mask[i / 64] |= std::uint64_t{1} << (i % 64);
    });
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_ConditionalSamplerDraw)->Range(64, 2048);

/// Fixture for the FCP benchmarks: a database small enough that extension
/// events retain non-negligible probabilities (on large databases the
/// forced-absence products underflow and every event vanishes, which
/// would make these benchmarks measure the empty case).
struct FcpFixture {
  FcpFixture() {
    Rng rng(99);
    for (int t = 0; t < 48; ++t) {
      std::vector<Item> items = {0};
      for (Item i = 1; i < 10; ++i) {
        if (rng.NextBernoulli(0.7)) items.push_back(i);
      }
      db.Add(Itemset(std::move(items)), 0.3 + 0.6 * rng.NextDouble());
    }
    index = std::make_unique<VerticalIndex>(db);
    freq = std::make_unique<FrequentProbability>(*index, 12);
  }

  UncertainDatabase db;
  std::unique_ptr<VerticalIndex> index;
  std::unique_ptr<FrequentProbability> freq;
};

FcpFixture& Fixture() {
  static FcpFixture* fixture = new FcpFixture();
  return *fixture;
}

void BM_ExtensionEventsBuild(benchmark::State& state) {
  FcpFixture& f = Fixture();
  const Itemset x{0};
  const TidSet tids = f.index->TidsOf(x);
  for (auto _ : state) {
    const ExtensionEventSet events(*f.index, *f.freq, x, tids);
    benchmark::DoNotOptimize(events.size());
  }
}
BENCHMARK(BM_ExtensionEventsBuild);

void BM_FcpBounds(benchmark::State& state) {
  FcpFixture& f = Fixture();
  const Itemset x{0};
  const TidSet tids = f.index->TidsOf(x);
  const double pr_f = f.freq->PrF(tids);
  const ExtensionEventSet events(*f.index, *f.freq, x, tids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeFcpBounds(pr_f, events));
  }
}
BENCHMARK(BM_FcpBounds);

void BM_FcpSampled(benchmark::State& state) {
  FcpFixture& f = Fixture();
  const Itemset x{0};
  const TidSet tids = f.index->TidsOf(x);
  const double pr_f = f.freq->PrF(tids);
  const ExtensionEventSet events(*f.index, *f.freq, x, tids);
  Rng rng(7);
  const double epsilon = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxFcp(pr_f, events, epsilon, 0.1, rng));
  }
}
BENCHMARK(BM_FcpSampled)->Arg(4)->Arg(10)->Arg(20);

void BM_FpGrowthQuickMushroom(benchmark::State& state) {
  const TransactionDatabase db = MakeExactMushroom(BenchScale::kQuick);
  const std::size_t min_sup = AbsoluteMinSup(db.size(), 0.2);
  for (auto _ : state) {
    std::size_t count = 0;
    FpGrowth(db, min_sup, [&count](const Itemset&, std::size_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FpGrowthQuickMushroom);

void BM_ClosedMinerQuickMushroom(benchmark::State& state) {
  const TransactionDatabase db = MakeExactMushroom(BenchScale::kQuick);
  const std::size_t min_sup = AbsoluteMinSup(db.size(), 0.2);
  for (auto _ : state) {
    std::size_t count = 0;
    MineClosedItemsetsInto(
        db, min_sup, [&count](const Itemset&, std::size_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_ClosedMinerQuickMushroom);

// The per-node Checkpoint() under a far-away deadline: the hot-loop
// configuration every budgeted run pays. The exponential poll stride
// (src/util/runtime.h) amortizes the steady-clock syscall to at most one
// read per kClockCheckStride calls; `clock_poll_ratio` reports the
// measured polls-per-checkpoint and the benchmark FAILS (SkipWithError)
// if the ratio regresses above 1/16 — twice the steady-state 1/32, so
// the warm-up polls of short runs never trip it.
void BM_RunControllerCheckpoint(benchmark::State& state) {
  RunBudget budget;
  budget.deadline_seconds = 3600.0;
  RunController controller(budget, nullptr);
  std::uint64_t calls = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.Checkpoint());
    ++calls;
  }
  const double ratio = calls == 0 ? 0.0
                                  : static_cast<double>(controller.clock_polls()) /
                                        static_cast<double>(calls);
  state.counters["clock_poll_ratio"] = ratio;
  if (calls > 1024 && ratio > 1.0 / 16.0) {
    state.SkipWithError(
        "clock-poll ratio regressed: Checkpoint() is reading the clock "
        "more than once per 16 calls (expected <= 1/32 steady-state)");
  }
}
BENCHMARK(BM_RunControllerCheckpoint);

}  // namespace
}  // namespace pfci

BENCHMARK_MAIN();
