#include "src/core/fcp_sampler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/prob/conditional_sampler.h"
#include "src/prob/karp_luby.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

namespace pfci {

namespace {

/// Fixed number of sample batches in deterministic mode. Independent of
/// the thread count by design: the batch split defines the RNG streams, so
/// it must be a constant for results to be reproducible on any machine.
/// 32 keeps per-batch work large (required sample counts are in the
/// thousands) while oversubscribing typical core counts for stealing.
constexpr std::size_t kDeterministicBatches = 32;

/// Bitmask over the dense positions of Tids(X).
class PositionMask {
 public:
  explicit PositionMask(std::size_t num_positions)
      : blocks_((num_positions + 63) / 64, 0) {}

  void Set(std::size_t pos) {
    blocks_[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }

  /// Whether every set bit of `other` is also set here.
  bool Covers(const PositionMask& other) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if ((other.blocks_[b] & ~blocks_[b]) != 0) return false;
    }
    return true;
  }

  void Clear() { std::fill(blocks_.begin(), blocks_.end(), 0); }

 private:
  std::vector<std::uint64_t> blocks_;
};

}  // namespace

ApproxFcpResult ApproxFcp(double pr_f, const ExtensionEventSet& events,
                          double epsilon, double delta, Rng& rng,
                          ThreadPool* pool, bool deterministic,
                          RunController* runtime) {
  ApproxFcpResult result;
  const std::size_t m = events.size();
  if (m == 0) {
    // No superset can co-occur with X: PrFC == PrF exactly.
    result.fcp = pr_f;
    return result;
  }

  const TidSet& x_tids = events.x_tids();
  const std::size_t num_positions = x_tids.size();
  const VerticalIndex& index = events.index();
  const std::size_t min_sup = events.min_sup();

  // Per-call position vectors and membership masks over the dense
  // positions of Tids(X). positions[j][k] is the position within Tids(X)
  // of the k-th tid of Tids(X+e_j), so a draw over Tids(X+e_j) lands in
  // the world mask without any tid lookup. A sampled world ω (also a mask)
  // lies in C_j iff event_mask[j] covers ω (all present transactions
  // contain e_j; the support condition then follows from the conditioning,
  // which guarantees >= min_sup present transactions). Both come from one
  // merge walk of each Tids(X+e_j) ⊆ Tids(X) against Tids(X).
  std::vector<Tid> x_order;
  x_order.reserve(num_positions);
  x_tids.ForEach([&x_order](Tid tid) { x_order.push_back(tid); });
  std::vector<std::vector<std::uint32_t>> positions(m);
  std::vector<PositionMask> event_mask(m, PositionMask(num_positions));
  for (std::size_t j = 0; j < m; ++j) {
    const TidSet& tids = events.events()[j].tids;
    positions[j].reserve(tids.size());
    std::uint32_t pos = 0;
    tids.ForEach([&](Tid tid) {
      while (x_order[pos] < tid) ++pos;
      PFCI_DCHECK(x_order[pos] == tid);
      positions[j].push_back(pos);
      event_mask[j].Set(pos);
    });
  }

  // Conditional world samplers, built lazily per event: an event that is
  // never drawn never pays the O(|tids| * min_sup) table construction.
  // Shared across batches (construction is deterministic and does not
  // consume randomness); call_once makes the lazy build race-free.
  std::vector<std::unique_ptr<ConditionalBernoulliSampler>> samplers(m);
  std::unique_ptr<std::once_flag[]> sampler_once(new std::once_flag[m]);
  const auto sampler_of = [&](std::size_t i)
      -> const ConditionalBernoulliSampler& {
    std::call_once(sampler_once[i], [&] {
      const ExtensionEvent& event = events.events()[i];
      samplers[i] = std::make_unique<ConditionalBernoulliSampler>(
          index.ProbsOf(event.tids), min_sup);
      PFCI_CHECK(samplers[i]->Feasible());
    });
    return *samplers[i];
  };

  std::vector<double> event_probs;
  event_probs.reserve(m);
  for (const ExtensionEvent& event : events.events()) {
    event_probs.push_back(event.prob);
  }

  const std::uint64_t num_samples = KarpLubyRequiredSamples(m, epsilon, delta);

  // Batch split: one base value from the caller's rng defines every
  // batch's stream; the split itself depends only on the sample count (in
  // deterministic mode), never on the thread count.
  const std::uint64_t base_seed = rng();
  std::size_t num_batches = kDeterministicBatches;
  if (!deterministic && pool != nullptr) {
    num_batches = pool->num_threads() * 4;
  }
  num_batches = static_cast<std::size_t>(
      std::min<std::uint64_t>(num_batches, std::max<std::uint64_t>(
                                               1, num_samples)));

  std::vector<KarpLubyResult> batch(num_batches);
  std::atomic<bool> aborted{false};
  const auto run_batch = [&](std::size_t b) {
    // Sample-batch checkpoint: a cancelled/expired run abandons its
    // remaining batches; the whole estimate is then discarded (aborted).
    PFCI_FAILPOINT("sampler/batch");
    if (runtime != nullptr && runtime->Checkpoint()) {
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t batch_samples =
        num_samples / num_batches + (b < num_samples % num_batches ? 1 : 0);
    Rng batch_rng(DeriveSeed(base_seed, b));
    // Per-batch scratch: one world mask, reused across the batch's samples.
    PositionMask world(num_positions);
    const auto sample_is_canonical = [&](std::size_t i, Rng& sample_rng) {
      // Conditional world given C_i: transactions of Tids(X) \ Tids(X+e_i)
      // are forced absent, the Tids(X+e_i) indicators are drawn
      // conditioned on reaching min_sup, straight into the world mask.
      const std::uint32_t* position = positions[i].data();
      world.Clear();
      sampler_of(i).SampleEach(
          sample_rng, [&](std::size_t k) { world.Set(position[k]); });
      // Canonical iff no earlier event also covers the world.
      for (std::size_t j = 0; j < i; ++j) {
        if (event_probs[j] > 0.0 && event_mask[j].Covers(world)) return false;
      }
      return true;
    };
    batch[b] = KarpLubyUnionEstimate(event_probs, batch_samples, batch_rng,
                                     sample_is_canonical);
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_batches > 1) {
    pool->ParallelFor(num_batches, run_batch, /*grain=*/1);
  } else {
    for (std::size_t b = 0; b < num_batches; ++b) run_batch(b);
  }

  // Reduce in batch order (fixed regardless of which thread ran what).
  // Each batch estimate is z * successes_b / samples_b, so the combined
  // estimate z * Σ successes / Σ samples is the samples-weighted mean.
  double weighted = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t successes = 0;
  for (const KarpLubyResult& kl : batch) {
    weighted += kl.estimate * static_cast<double>(kl.samples);
    samples += kl.samples;
    successes += kl.successes;
  }
  const double estimate =
      samples == 0 ? 0.0 : weighted / static_cast<double>(samples);

  result.fnc = estimate;
  result.samples = samples;
  result.successes = successes;
  result.fcp = std::clamp(pr_f - estimate, 0.0, 1.0);
  result.aborted = aborted.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pfci
