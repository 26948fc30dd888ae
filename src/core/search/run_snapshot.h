// Crash-consistent run snapshots for checkpoint/resume (DESIGN.md §14).
//
// A suspend-armed run drains at its next unit boundary (node subtree /
// BFS level / top-k candidate / naive check — RunController::ArmSuspend)
// and the search driver captures frontier + decided-entry state here.
// Because no unit is ever half-done at a drain, the snapshot's base
// counters are exactly the suspended run's deterministic work counters,
// and resuming replays only the unfinished units: the resumed result is
// bit-identical to an uninterrupted run across thread counts and tid-set
// modes.
//
// On disk the snapshot is a versioned line-based text file. Probabilities
// go through FormatDoubleRoundTrip so every double survives the
// round-trip bit-exactly (including 1e-12 and 1.0 atoms — pinned by
// tests/repros). The data ends with an explicit end marker, and the last
// line is an FNV-1a checksum of every byte before it: a parse only
// succeeds on a complete, unaltered file, so a torn write or a flipped
// byte is refused rather than silently resumed. SaveRunSnapshotAtomic writes to a
// sibling temp file and renames it into place — a crash at any point
// (exercised by the PFCI_FAILPOINT sites inside) leaves the target
// either the old complete snapshot or the new complete one, never torn.
//
// The fingerprint refuses mismatched resumes: FNV-1a over the database
// contents (FingerprintDatabase) folded with the request's
// result-relevant fields (composed by Mine() with FnvMix*). Execution
// policy is deliberately excluded — results are bit-identical across
// thread counts and tid-set modes, so resuming under a different
// parallelism or layout is sound and supported.
#ifndef PFCI_CORE_SEARCH_RUN_SNAPSHOT_H_
#define PFCI_CORE_SEARCH_RUN_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/mining_result.h"
#include "src/data/itemset.h"
#include "src/data/uncertain_database.h"
#include "src/util/random.h"

namespace pfci {

/// One frontier element: an itemset plus the probability the candidate
/// stage attached to it (frequent probability; unused weights stay 0).
struct WeightedItemset {
  Itemset items;
  double weight = 0.0;
};

/// Serialized state of one suspended (or merely restartable) run. The
/// frontier containers are shaped generically; each policy documents its
/// own use in frontier_policies.h:
///   * mpfci: frontier = first-level candidates (+ PrF), done = per-unit
///     completion bits;
///   * bfs:   frontier = the pending level (+ PrF), cursor = the global
///     RNG entry counter at that level's start;
///   * topk:  frontier = candidate items (+ PrF), cursor = next candidate
///     position, rng = the shared stream's state, entries = the pool;
///   * naive: frontier = the enumerated PFIs (+ PrF), done = per-check
///     decision bits.
struct RunSnapshot {
  /// Format version written/accepted by this build.
  static constexpr int kVersion = 1;

  /// Algorithm wire name (kAlgorithmNames); resumes are refused when it
  /// differs from the resuming request's algorithm.
  std::string algorithm;

  /// FNV-1a fingerprint of database + result-relevant request fields.
  std::uint64_t fingerprint = 0;

  /// False: restart-only marker (algorithms without Save/Restore write
  /// one so `--snapshot` still produces a file; resuming from it simply
  /// reruns from scratch, which is trivially bit-identical).
  bool has_frontier = false;

  /// Deterministic work counters of the suspended run (the 13 merge-able
  /// counters of MiningStats; cache/wall-clock/outcome fields are not
  /// snapshot state). Resume seeds the run's stats with these.
  MiningStats base;

  /// Decided entries of the suspended run (for topk: the current pool,
  /// decided only relative to the rising threshold).
  std::vector<PfciEntry> entries;

  std::vector<WeightedItemset> frontier;
  std::vector<std::uint8_t> done;  ///< Parallel to frontier when used.
  std::uint64_t cursor = 0;

  bool has_rng = false;
  Rng::State rng;
};

/// Adds the snapshot's 13 deterministic base counters into `stats`
/// (resume seeding: the restored run then accumulates only new work, and
/// the totals match an uninterrupted run). Exactly the counters the
/// snapshot format carries, dp_runs included (for a completed prior
/// session it is a settled deterministic total that must carry over);
/// the cache_* counters describe one session's cache and do not.
void AddBaseStats(const MiningStats& base, MiningStats* stats);

/// Renders the snapshot in the versioned text format (ends with the
/// completeness marker and the checksum line).
std::string SerializeRunSnapshot(const RunSnapshot& snapshot);

/// Parses `text`; returns false (with a diagnostic in *error) on any
/// malformed, version-mismatched, or incomplete (torn) input.
bool ParseRunSnapshot(std::string_view text, RunSnapshot* snapshot,
                      std::string* error);

/// Writes the snapshot crash-consistently: serialize, write `path`.tmp,
/// flush to stable storage, rename over `path`. Returns an empty string
/// on success and a diagnostic on failure (compose with RetryWithBackoff
/// for transient errors). Failpoint sites, in order: "snapshot/open",
/// "snapshot/write", "snapshot/flush", "snapshot/rename" — killing or
/// throwing at any of them leaves `path` old-complete or new-complete.
std::string SaveRunSnapshotAtomic(const RunSnapshot& snapshot,
                                  const std::string& path);

/// Loads and parses `path`; empty string on success, diagnostic on
/// failure (missing file, torn content, version mismatch).
std::string LoadRunSnapshot(const std::string& path, RunSnapshot* snapshot);

/// FNV-1a offset basis for composing fingerprints.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// Folds a 64-bit value / the bytes of a string into an FNV-1a hash.
std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value);
std::uint64_t FnvMixString(std::uint64_t hash, std::string_view text);

/// Folds a double by bit pattern (so 0.0 vs -0.0 and every NaN payload
/// are distinguished exactly like the round-trip serialization is).
std::uint64_t FnvMixDouble(std::uint64_t hash, double value);

/// Fingerprint of the database contents: size plus every transaction's
/// items and existence probability (bit patterns). Pure function of the
/// data.
std::uint64_t FingerprintDatabase(const UncertainDatabase& db);

}  // namespace pfci

#endif  // PFCI_CORE_SEARCH_RUN_SNAPSHOT_H_
