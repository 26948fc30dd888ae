// Adaptive transaction-id set: the columnar tid-set layer.
//
// Every vertical-mining operation (count(X) of Definition 4.2, the
// tid-list intersection that extends an itemset, Lemma 4.2's superset
// check) runs over sets of transaction ids drawn from one fixed universe
// [0, |db|). A TidSet stores such a set either as a sorted Tid vector
// (sparse) or as a word-aligned bitmap (dense), and picks the
// representation adaptively by density: dense sets get popcount-based
// counting and word-parallel intersect/difference/subset, sparse sets get
// merge intersection with a galloping (exponential-search) fallback when
// one side is much shorter than the other.
//
// Determinism: the representation affects memory layout only, never the
// set contents, iteration order (always ascending tid), or any derived
// floating-point value — forcing sparse-only or dense-only via
// TidSetPolicy yields bit-identical mining results (asserted by
// tests/parallel_determinism_test.cc).
#ifndef PFCI_DATA_TIDSET_H_
#define PFCI_DATA_TIDSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/data/item.h"
#include "src/data/tidlist.h"

namespace pfci {

/// Representation choice for TidSets derived from one index.
enum class TidSetMode : std::uint8_t {
  kAdaptive = 0,  ///< Per-set density rule (default).
  kSparse = 1,    ///< Force sorted-vector representation everywhere.
  kDense = 2,     ///< Force bitmap representation everywhere.
};

/// Display name ("adaptive", "sparse", "dense").
const char* TidSetModeName(TidSetMode mode);

/// Parses "adaptive" | "sparse" | "dense"; returns false on anything else.
bool ParseTidSetMode(const std::string& text, TidSetMode* mode);

/// Representation policy shared by all TidSets of one index. Adaptive
/// mode applies the fixed density rule of tidset_internal::kDenseDivisor
/// and kMinDenseUniverse.
struct TidSetPolicy {
  TidSetMode mode = TidSetMode::kAdaptive;
};

/// A set of transaction ids over the universe [0, universe()).
///
/// Value type: copyable, movable. All operations keep the invariant that
/// iteration yields strictly increasing tids regardless of representation.
class TidSet {
 public:
  /// Empty set over an empty universe.
  TidSet() = default;

  /// Builds from a sorted, duplicate-free tid list; every tid must lie in
  /// [0, universe).
  TidSet(TidList sorted_tids, std::size_t universe,
         const TidSetPolicy& policy = TidSetPolicy{});

  /// The full set {0, ..., universe - 1}.
  static TidSet All(std::size_t universe,
                    const TidSetPolicy& policy = TidSetPolicy{});

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t universe() const { return universe_; }
  bool dense() const { return dense_; }
  const TidSetPolicy& policy() const { return policy_; }

  /// Membership test: O(1) dense, O(log size) sparse.
  bool Contains(Tid tid) const;

  /// Invokes `fn(Tid)` for every member in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!dense_) {
      for (Tid tid : sparse_) fn(tid);
      return;
    }
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        fn(static_cast<Tid>(w * 64 +
                            static_cast<unsigned>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

  /// Materializes the members as a sorted tid list.
  TidList ToTidList() const;

  /// Heap bytes held by this set's representation (the resource the
  /// RunBudget memory limit accounts; see src/util/runtime.h).
  std::size_t MemoryBytes() const {
    return sparse_.capacity() * sizeof(Tid) +
           words_.capacity() * sizeof(std::uint64_t);
  }

  friend TidSet Intersect(const TidSet& a, const TidSet& b);
  friend std::size_t IntersectSize(const TidSet& a, const TidSet& b);
  friend TidSet Difference(const TidSet& a, const TidSet& b);
  friend bool IsSubsetOf(const TidSet& a, const TidSet& b);
  friend bool operator==(const TidSet& a, const TidSet& b);

 private:
  /// Converts to the representation the policy prescribes for size().
  void Normalize();
  void ToDense();
  void ToSparse();

  std::size_t universe_ = 0;
  std::size_t size_ = 0;
  bool dense_ = false;
  TidSetPolicy policy_;
  TidList sparse_;                    ///< Sorted members (sparse rep).
  std::vector<std::uint64_t> words_;  ///< Bitmap (dense rep).
};

/// a ∩ b. The operands must share a universe (an empty set of any universe
/// is also accepted); the result carries `a`'s policy.
TidSet Intersect(const TidSet& a, const TidSet& b);

/// |a ∩ b| without materializing the intersection.
std::size_t IntersectSize(const TidSet& a, const TidSet& b);

/// a \ b.
TidSet Difference(const TidSet& a, const TidSet& b);

/// Whether a ⊆ b.
bool IsSubsetOf(const TidSet& a, const TidSet& b);

/// Content equality (representation-independent).
bool operator==(const TidSet& a, const TidSet& b);

/// Convenience for tests: compares contents against a sorted tid list.
bool operator==(const TidSet& a, const TidList& b);

namespace tidset_internal {

/// Adaptive-mode density rule: a set is a bitmap when size * kDenseDivisor
/// >= universe. A bitmap of u bits costs u/64 words and a sparse set of s
/// 32-bit tids ~s/2 words, so the bitmap is smaller from s >= u/32 on and
/// its word-parallel operations win a little earlier.
constexpr std::size_t kDenseDivisor = 16;

/// Universes below this size stay sparse in adaptive mode: a short merge
/// beats any fixed bitmap setup cost.
constexpr std::size_t kMinDenseUniverse = 256;

/// Size skew from which the sparse kernels switch from linear merge to
/// galloping: per-element exponential search costs ~2 log2(skew)
/// comparisons, which beats the merge's O(na + nb) scan when the long
/// side is a few dozen times the short side.
constexpr std::size_t kGallopSkewRatio = 32;

/// Sparse intersection kernel: appends a ∩ b to `out` (when non-null) and
/// returns |a ∩ b|. Exposed so the unit tests can exercise the merge and
/// galloping paths directly on either side of the crossover.
std::size_t IntersectSorted(const Tid* a, std::size_t na, const Tid* b,
                            std::size_t nb, TidList* out);

/// Sparse subset kernel: whether sorted `a` ⊆ sorted `b`, galloping under
/// the same skew rule.
bool SubsetSorted(const Tid* a, std::size_t na, const Tid* b, std::size_t nb);

}  // namespace tidset_internal

}  // namespace pfci

#endif  // PFCI_DATA_TIDSET_H_
