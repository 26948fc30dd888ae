#include "src/core/eval_cache.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/check.h"

namespace pfci {

namespace {

/// Fixed per-entry overhead charged on top of the payload vectors: the
/// LRU node, the map slot, and the Entry struct itself. An estimate —
/// the budget bounds the order of magnitude, not malloc's exact ledger.
constexpr std::size_t kEntryOverheadBytes = 128;

/// Whether the stored tids equal the probe's contents. Walks the TidSet
/// in ascending order against the stored list without materializing.
bool SameTids(const TidSet& tids, const TidList& stored) {
  if (tids.size() != stored.size()) return false;
  std::size_t i = 0;
  bool equal = true;
  tids.ForEach([&](Tid tid) {
    if (equal && stored[i++] != tid) equal = false;
  });
  return equal;
}

/// Folds a stored band (stored_lo, stored) into an incoming one (*lo,
/// *band) under Insert's rule: overlapping or adjacent bands are
/// concatenated (every value in either is an exact tail, so the two
/// agree bit for bit where they overlap), a disjoint band stands alone.
/// Returns false when the incoming band answers nothing the stored one
/// does not (it is empty, or inside the stored band).
bool MergeBands(std::size_t stored_lo, const std::vector<double>& stored,
                std::size_t* lo, std::vector<double>* band) {
  if (band->empty()) return false;
  if (stored.empty()) return true;
  const std::size_t stored_end = stored_lo + stored.size();  // One past.
  const std::size_t end = *lo + band->size();
  if (stored_lo <= *lo && end <= stored_end) return false;
  if (end < stored_lo || stored_end < *lo) return true;
  const std::size_t merged_lo = std::min(stored_lo, *lo);
  std::vector<double> merged(std::max(end, stored_end) - merged_lo);
  std::copy(stored.begin(), stored.end(),
            merged.data() + (stored_lo - merged_lo));
  std::copy(band->begin(), band->end(), merged.data() + (*lo - merged_lo));
  *lo = merged_lo;
  *band = std::move(merged);
  return true;
}

}  // namespace

std::uint64_t TidSetFingerprint(const TidSet& tids) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis.
  tids.ForEach([&h](Tid tid) {
    h ^= static_cast<std::uint64_t>(tid) + 1;  // +1 keeps tid 0 mixing.
    h *= 1099511628211ull;
  });
  // Finalize so the low bits (shard selector) depend on every tid.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

std::size_t EvalCache::Entry::Bytes() const {
  return kEntryOverheadBytes + tids.capacity() * sizeof(Tid) +
         band.capacity() * sizeof(double);
}

EvalCache::EvalCache(const Options& options) : options_(options) {
  // Degenerate budgets are clamped, not aborted on: a cache is an
  // optimization, so "shards = 0" means "one shard" and "max_bytes = 0"
  // means "a budget no entry fits in" (every insert is rejected below).
  if (options_.shards == 0) options_.shards = 1;
  if (options_.max_bytes == 0) options_.max_bytes = 1;
  shards_ = std::vector<Shard>(options_.shards);
}

EvalCache::Lookup EvalCache::Probe(const TidSet& tids,
                                   std::size_t threshold) const {
  const std::uint64_t fp = TidSetFingerprint(tids);
  Shard& shard = ShardFor(fp);
  Lookup lookup;
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(fp);
  if (it == shard.map.end()) return lookup;
  const Entry& entry = it->second->second;
  // A fingerprint collision is treated as a miss: correctness never
  // depends on the hash.
  if (!SameTids(tids, entry.tids)) return lookup;
  lookup.found = true;
  lookup.mu = entry.mu;
  if (threshold >= entry.table_lo &&
      threshold - entry.table_lo < entry.band.size()) {
    lookup.has_table = true;
    lookup.tail = entry.band[threshold - entry.table_lo];
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // Touch.
  return lookup;
}

void EvalCache::Insert(const TidSet& tids, double mu, std::size_t table_lo,
                       std::vector<double> band) {
  const std::uint64_t fp = TidSetFingerprint(tids);
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(fp);
  if (it != shard.map.end()) {
    Entry& entry = it->second->second;
    if (SameTids(tids, entry.tids)) {
      // Update in place only when the new band answers thresholds the
      // stored one does not AND the updated entry still fits the budget
      // on its own; an over-budget update is rejected and the stored
      // band kept (it keeps answering what it already answered).
      if (MergeBands(entry.table_lo, entry.band, &table_lo, &band)) {
        const std::size_t updated_bytes =
            kEntryOverheadBytes + entry.tids.capacity() * sizeof(Tid) +
            band.capacity() * sizeof(double);
        if (updated_bytes > options_.max_bytes) {
          rejections_.fetch_add(1, std::memory_order_relaxed);
        } else {
          bytes_.fetch_sub(entry.Bytes(), std::memory_order_relaxed);
          entry.table_lo = table_lo;
          entry.band = std::move(band);
          bytes_.fetch_add(entry.Bytes(), std::memory_order_relaxed);
          // An update during a batch is the shared-DP prefill later
          // members depend on — pin it for the batch lifetime.
          if (!entry.pinned &&
              pin_depth_.load(std::memory_order_relaxed) > 0) {
            entry.pinned = true;
            pinned_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      EvictLocked(shard);
      return;
    }
  }
  Entry entry;
  entry.tids = tids.ToTidList();
  entry.mu = mu;
  entry.table_lo = table_lo;
  entry.pinned = pin_depth_.load(std::memory_order_relaxed) > 0;
  entry.band = std::move(band);
  // An entry that alone exceeds the whole budget can never become
  // resident; admitting it would evict the entire shard and still leave
  // the cache over budget (the historical evict-everything-then-stay-
  // over-budget inconsistency). Reject it as a stats event instead,
  // before any existing entry is disturbed.
  if (entry.Bytes() > options_.max_bytes) {
    rejections_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (it != shard.map.end()) {
    // Fingerprint collision with different contents: drop the old entry
    // (the slot can only hold one) — rare, and only a perf event.
    bytes_.fetch_sub(it->second->second.Bytes(), std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    if (it->second->second.pinned) {
      pinned_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  bytes_.fetch_add(entry.Bytes(), std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  if (entry.pinned) pinned_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.emplace_front(fp, std::move(entry));
  shard.map[fp] = shard.lru.begin();
  EvictLocked(shard);
}

void EvalCache::EvictLocked(Shard& shard) {
  // Global budget, shard-local eviction: each shard sheds its own LRU
  // tail while the aggregate is over budget. Never evicts the entry just
  // touched (front): it is the one the caller is actively using, and
  // over-budget pressure from other shards should not starve this one.
  // Pinned entries are skipped — the batch that pinned them still needs
  // their bands — so resident bytes may overshoot the budget by the
  // pinned working set until the pin scope closes and re-evicts.
  while (bytes_.load(std::memory_order_relaxed) > options_.max_bytes &&
         shard.lru.size() > 1) {
    auto victim = std::prev(shard.lru.end());
    while (victim != shard.lru.begin() && victim->second.pinned) {
      --victim;
    }
    if (victim == shard.lru.begin()) return;  // Only pinned (or front) left.
    bytes_.fetch_sub(victim->second.Bytes(), std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.map.erase(victim->first);
    shard.lru.erase(victim);
  }
}

void EvalCache::BeginPinScope() {
  pin_depth_.fetch_add(1, std::memory_order_relaxed);
}

void EvalCache::EndPinScope() {
  const std::uint64_t before =
      pin_depth_.fetch_sub(1, std::memory_order_acq_rel);
  PFCI_DCHECK(before > 0);
  if (before != 1) return;  // An enclosing scope is still open.
  // Last scope out: clear every pin, then re-enforce the byte budget the
  // pins were allowed to overshoot. Entries inserted by a scope that
  // races this sweep may stay pinned until the racer's own EndPinScope —
  // pinning is a retention hint, not a correctness property.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& node : shard.lru) {
      if (node.second.pinned) {
        node.second.pinned = false;
        pinned_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    EvictLocked(shard);
  }
}

void ItemWarmStart::RecordBound(Item item, std::size_t min_sup,
                                double bound) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Proof>& proofs = proofs_[item];
  // Dominated if an existing proof applies at least as widely (smaller or
  // equal min_sup) with an at-least-as-tight bound.
  for (const Proof& proof : proofs) {
    if (proof.min_sup <= min_sup && proof.bound <= bound) return;
  }
  // The new proof may dominate existing ones in turn.
  proofs.erase(std::remove_if(proofs.begin(), proofs.end(),
                              [&](const Proof& proof) {
                                return min_sup <= proof.min_sup &&
                                       bound <= proof.bound;
                              }),
               proofs.end());
  proofs.push_back(Proof{min_sup, bound});
}

double ItemWarmStart::BoundFor(Item item, std::size_t min_sup) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = proofs_.find(item);
  if (it == proofs_.end()) return std::numeric_limits<double>::infinity();
  double best = std::numeric_limits<double>::infinity();
  for (const Proof& proof : it->second) {
    // Anti-monotonicity: a proof at min_sup s bounds every s' >= s.
    if (proof.min_sup <= min_sup) best = std::min(best, proof.bound);
  }
  return best;
}

std::size_t ItemWarmStart::items_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return proofs_.size();
}

}  // namespace pfci
