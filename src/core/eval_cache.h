// Cross-request evaluation caches for the serving layer (DESIGN.md §11).
//
// A MiningSession answers many requests over one fixed database, and the
// dominant cost of every request is re-deriving the same per-tidset
// quantities: mu = sum of existence probabilities (expected support) and
// the truncated Poisson-binomial tail PrF (Definition 3.4). Both are pure
// functions of the tidset contents, so they are safe to memoize across
// requests — unlike sampled FCP values, which stay seed-derived per run
// and are never cached.
//
// EvalCache stores, per canonical tidset, the cached mu plus one BAND of
// tail probabilities computed by PoissonBinomialTailBand: band[t - lo] is
// bit-identical to a direct DP run at threshold t for every t in lo..hi,
// so a probe at any min_sup inside the band is answered without
// re-running the DP (a band hit); a probe outside it misses. Only the
// band is stored, never the table below it. Entries are keyed by a
// 64-bit fingerprint of the tid contents and verified by exact tid
// comparison — a fingerprint collision degrades to a miss, never to a
// wrong answer. The cache is sharded (one mutex + LRU list per shard) and
// bounded by a byte budget with least-recently-used eviction.
//
// ItemWarmStart keeps per-item infrequency proofs for threshold sweeps:
// a verified statement "PrF({item}; min_sup) <= bound" answers any later
// request with min_sup' >= min_sup by the paper's anti-monotonicity
// (Lemma: PrF is non-increasing in min_sup), letting candidate builders
// reject the item without touching the index. Proofs are true statements
// about the database, so warm-start pruning never changes which
// candidates survive — results stay bit-identical; only per-run work
// counters (dp_runs, cache probes) shrink.
#ifndef PFCI_CORE_EVAL_CACHE_H_
#define PFCI_CORE_EVAL_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/data/item.h"
#include "src/data/tidlist.h"
#include "src/data/tidset.h"

namespace pfci {

/// Sharded, byte-bounded cache of per-tidset evaluation results shared by
/// every run of one MiningSession. Thread-safe; all methods may be called
/// concurrently from worker threads of one or several runs.
class EvalCache {
 public:
  struct Options {
    /// Byte budget across all shards; least-recently-used entries are
    /// evicted when an insert pushes past it. 0 is clamped to 1 (a
    /// budget nothing fits in: every insert is rejected, the cache
    /// degrades to all-miss).
    std::size_t max_bytes = std::size_t{64} << 20;

    /// Lock shards. More shards, less contention; 0 is clamped to 1.
    std::size_t shards = 8;
  };

  /// Result of one cache probe. All fields are copies: they stay valid
  /// after the entry is evicted.
  struct Lookup {
    bool found = false;      ///< An entry with exactly these tids exists.
    bool has_table = false;  ///< Its tail band covers the threshold.
    double mu = 0.0;         ///< Cached expected support (when found).
    double tail = 0.0;       ///< PrF at `threshold` (when has_table).
  };

  explicit EvalCache(const Options& options);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Looks up `tids`. On found, `mu` is always usable; `has_table`/`tail`
  /// are set when the stored band lo..hi contains `threshold` (its value
  /// there is bit-identical to a direct DP run at `threshold`).
  Lookup Probe(const TidSet& tids, std::size_t threshold) const;

  /// Stores (or updates) the entry for `tids`. `band` must be the
  /// PoissonBinomialTailBand output for thresholds table_lo..table_lo +
  /// band.size() - 1; pass an empty band to cache mu alone. For an
  /// existing entry, a band that overlaps or touches the stored one is
  /// merged with it (both hold exact tail values, so the union does too),
  /// a disjoint band replaces it, and an empty or already-covered band
  /// leaves it as-is. An entry (or update) that would alone exceed
  /// max_bytes is rejected — counted in rejections(), existing entries
  /// untouched — so the cache never admits something it would have to
  /// evict everything for.
  void Insert(const TidSet& tids, double mu, std::size_t table_lo,
              std::vector<double> band);

  /// Current resident bytes across all shards (tids + bands + entry
  /// overhead; the value MiningStats reports as cache_bytes).
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  std::size_t max_bytes() const { return options_.max_bytes; }

  /// Lifetime counters (across every run served by this cache).
  std::uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Inserts refused because the entry alone would exceed max_bytes.
  std::uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

  /// Entries currently exempt from eviction (see PinScope).
  std::uint64_t pinned_entries() const {
    return pinned_.load(std::memory_order_relaxed);
  }

  /// Batch-lifetime pinning (DESIGN.md §15). Entries inserted or upgraded
  /// while at least one pin scope is open are exempt from LRU eviction
  /// until every scope closes: a batch group's lowest-threshold run
  /// prefills tail bands that every later member depends on, and byte-
  /// budget pressure from concurrent traffic must not evict them between
  /// the prefill and the last consumer. Pinned bytes may overshoot
  /// max_bytes by the pinned working set; unpinned entries keep being
  /// evicted, and the oversized-entry rejection rule still applies. When
  /// the last scope closes, pins are cleared and the budget re-enforced.
  /// Scopes nest (a batch inside a batch just extends the pin window).
  void BeginPinScope();
  void EndPinScope();

  /// RAII pin scope. Null-safe: constructing over a null cache is a
  /// no-op, so callers can pin unconditionally.
  class PinScope {
   public:
    explicit PinScope(EvalCache* cache) : cache_(cache) {
      if (cache_ != nullptr) cache_->BeginPinScope();
    }
    ~PinScope() {
      if (cache_ != nullptr) cache_->EndPinScope();
    }
    PinScope(const PinScope&) = delete;
    PinScope& operator=(const PinScope&) = delete;

   private:
    EvalCache* cache_;
  };

 private:
  struct Entry {
    TidList tids;              ///< Exact key (collision guard).
    double mu = 0.0;           ///< Sum of probs, ascending tid order.
    std::size_t table_lo = 0;  ///< Threshold of band[0].
    bool pinned = false;       ///< Exempt from eviction while pins open.
    std::vector<double> band;  ///< band[t - table_lo] = PrF at threshold t.

    std::size_t Bytes() const;
  };

  /// LRU list (front = most recent) plus fingerprint -> node map.
  struct Shard {
    mutable std::mutex mutex;
    std::list<std::pair<std::uint64_t, Entry>> lru;
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t, Entry>>::iterator>
        map;
  };

  Shard& ShardFor(std::uint64_t fingerprint) const {
    return shards_[static_cast<std::size_t>(fingerprint % shards_.size())];
  }

  /// Evicts this shard's least-recent entries while the global byte count
  /// exceeds the budget. Caller holds the shard mutex.
  void EvictLocked(Shard& shard);

  Options options_;
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rejections_{0};
  std::atomic<std::uint64_t> pinned_{0};
  std::atomic<std::uint64_t> pin_depth_{0};
};

/// Content fingerprint of a tidset (FNV-1a over the ascending tids).
/// Representation-independent: sparse and dense sets with equal contents
/// hash equal.
std::uint64_t TidSetFingerprint(const TidSet& tids);

/// Per-item infrequency proofs for warm-starting threshold sweeps. Each
/// proof (min_sup, bound) asserts PrF({item}; min_sup) <= bound; by
/// anti-monotonicity it also bounds PrF at every min_sup' >= min_sup.
/// Only a Pareto frontier (ascending min_sup, descending bound) is kept.
/// Thread-safe.
class ItemWarmStart {
 public:
  ItemWarmStart() = default;
  ItemWarmStart(const ItemWarmStart&) = delete;
  ItemWarmStart& operator=(const ItemWarmStart&) = delete;

  /// Records the verified statement PrF({item}; min_sup) <= bound (e.g.
  /// the exact PrF computed when a candidate builder rejected the item,
  /// or its Chernoff upper bound).
  void RecordBound(Item item, std::size_t min_sup, double bound);

  /// Tightest provable upper bound on PrF({item}; min_sup) from the
  /// recorded proofs, or +infinity when nothing applies. Callers prune
  /// with their own comparison (`<= pfct` for MPFCI-family candidate
  /// tests, `< pft` for PFI's strict threshold).
  double BoundFor(Item item, std::size_t min_sup) const;

  /// Number of items with at least one recorded proof.
  std::size_t items_recorded() const;

 private:
  struct Proof {
    std::size_t min_sup;
    double bound;
  };

  mutable std::mutex mutex_;
  std::unordered_map<Item, std::vector<Proof>> proofs_;
};

}  // namespace pfci

#endif  // PFCI_CORE_EVAL_CACHE_H_
