// TidSet unit tests: representation selection, the core set algebra on
// hand-built cases, and the sparse kernels' merge/galloping crossover.
#include "src/data/tidset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/data/tidlist.h"

namespace pfci {
namespace {

TidSetPolicy Forced(TidSetMode mode) {
  TidSetPolicy policy;
  policy.mode = mode;
  return policy;
}

TEST(TidSetMode, Names) {
  EXPECT_STREQ(TidSetModeName(TidSetMode::kAdaptive), "adaptive");
  EXPECT_STREQ(TidSetModeName(TidSetMode::kSparse), "sparse");
  EXPECT_STREQ(TidSetModeName(TidSetMode::kDense), "dense");

  TidSetMode mode = TidSetMode::kAdaptive;
  EXPECT_TRUE(ParseTidSetMode("dense", &mode));
  EXPECT_EQ(mode, TidSetMode::kDense);
  EXPECT_TRUE(ParseTidSetMode("sparse", &mode));
  EXPECT_EQ(mode, TidSetMode::kSparse);
  EXPECT_TRUE(ParseTidSetMode("adaptive", &mode));
  EXPECT_EQ(mode, TidSetMode::kAdaptive);
  EXPECT_FALSE(ParseTidSetMode("bitmap", &mode));
  EXPECT_FALSE(ParseTidSetMode("", &mode));
}

TEST(TidSet, AdaptiveRepresentationSelection) {
  // Universe below kMinDenseUniverse: always sparse, however dense.
  TidList all_small(128);
  for (Tid t = 0; t < 128; ++t) all_small[t] = t;
  EXPECT_FALSE(TidSet(all_small, 128).dense());

  // Universe 1024, kDenseDivisor 16: dense from size 64 up.
  TidList just_below(63), at_threshold(64);
  for (Tid t = 0; t < 63; ++t) just_below[t] = t;
  for (Tid t = 0; t < 64; ++t) at_threshold[t] = t;
  EXPECT_FALSE(TidSet(just_below, 1024).dense());
  EXPECT_TRUE(TidSet(at_threshold, 1024).dense());
}

TEST(TidSet, ForcedModesOverrideDensity) {
  TidList tids = {0, 5, 1000};
  EXPECT_TRUE(TidSet(tids, 1024, Forced(TidSetMode::kDense)).dense());
  TidList most(1000);
  for (Tid t = 0; t < 1000; ++t) most[t] = t;
  EXPECT_FALSE(TidSet(most, 1024, Forced(TidSetMode::kSparse)).dense());
}

TEST(TidSet, ContainsForEachRoundtrip) {
  const TidList tids = {0, 3, 63, 64, 65, 127, 500, 1023};
  for (const TidSetMode mode :
       {TidSetMode::kSparse, TidSetMode::kDense, TidSetMode::kAdaptive}) {
    const TidSet set(tids, 1024, Forced(mode));
    EXPECT_EQ(set.size(), tids.size());
    EXPECT_EQ(set.universe(), 1024u);
    EXPECT_EQ(set.ToTidList(), tids);
    EXPECT_EQ(set, tids);
    for (Tid t : tids) EXPECT_TRUE(set.Contains(t));
    EXPECT_FALSE(set.Contains(1));
    EXPECT_FALSE(set.Contains(62));
    EXPECT_FALSE(set.Contains(1022));
    TidList seen;
    set.ForEach([&seen](Tid t) { seen.push_back(t); });
    EXPECT_EQ(seen, tids);  // Ascending order in every representation.
  }
}

TEST(TidSet, AllAndEmpty) {
  for (const TidSetMode mode : {TidSetMode::kSparse, TidSetMode::kDense}) {
    const TidSet all = TidSet::All(130, Forced(mode));
    EXPECT_EQ(all.size(), 130u);
    EXPECT_TRUE(all.Contains(0));
    EXPECT_TRUE(all.Contains(129));
    TidList expect(130);
    for (Tid t = 0; t < 130; ++t) expect[t] = t;
    EXPECT_EQ(all.ToTidList(), expect);
  }
  const TidSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.ToTidList(), TidList{});
  const TidSet all = TidSet::All(64, Forced(TidSetMode::kDense));
  // Empty-set ops against any universe are accepted.
  EXPECT_TRUE(Intersect(all, empty).empty());
  EXPECT_EQ(Difference(all, empty), all);
  EXPECT_TRUE(IsSubsetOf(empty, all));
}

TEST(TidSet, AlgebraAcrossMixedRepresentations) {
  const TidList a_tids = {1, 3, 5, 7, 64, 65, 300};
  const TidList b_tids = {3, 4, 5, 8, 65, 299, 300};
  const TidList both = IntersectTids(a_tids, b_tids);
  const TidList a_minus_b = DifferenceTids(a_tids, b_tids);
  for (const TidSetMode ma : {TidSetMode::kSparse, TidSetMode::kDense}) {
    for (const TidSetMode mb : {TidSetMode::kSparse, TidSetMode::kDense}) {
      SCOPED_TRACE(std::string(TidSetModeName(ma)) + " x " +
                   TidSetModeName(mb));
      const TidSet a(a_tids, 512, Forced(ma));
      const TidSet b(b_tids, 512, Forced(mb));
      EXPECT_EQ(Intersect(a, b), both);
      EXPECT_EQ(IntersectSize(a, b), both.size());
      EXPECT_EQ(Difference(a, b), a_minus_b);
      EXPECT_FALSE(IsSubsetOf(a, b));
      EXPECT_TRUE(IsSubsetOf(TidSet(both, 512, Forced(ma)), b));
      EXPECT_TRUE(IsSubsetOf(a, a));
    }
  }
}

TEST(TidSet, EqualityIsRepresentationIndependent) {
  const TidList tids = {2, 9, 77, 400};
  const TidSet sparse(tids, 512, Forced(TidSetMode::kSparse));
  const TidSet dense(tids, 512, Forced(TidSetMode::kDense));
  EXPECT_EQ(sparse, dense);
  EXPECT_EQ(dense, sparse);
  const TidSet other(TidList{2, 9, 77, 401}, 512, Forced(TidSetMode::kDense));
  EXPECT_FALSE(sparse == other);
}

// ---------------------------------------------------------------------
// Galloping crossover: the sparse kernels must agree with the std
// reference on either side of kGallopSkewRatio.
// ---------------------------------------------------------------------

TidList EveryKth(std::size_t universe, std::size_t k, Tid offset) {
  TidList out;
  for (Tid t = offset; t < universe; t += static_cast<Tid>(k)) {
    out.push_back(t);
  }
  return out;
}

void CheckIntersectKernel(const TidList& a, const TidList& b) {
  TidList out;
  const std::size_t n = tidset_internal::IntersectSorted(
      a.data(), a.size(), b.data(), b.size(), &out);
  const TidList expect = IntersectTids(a, b);
  EXPECT_EQ(out, expect);
  EXPECT_EQ(n, expect.size());
  // Count-only form agrees.
  EXPECT_EQ(tidset_internal::IntersectSorted(a.data(), a.size(), b.data(),
                                             b.size(), nullptr),
            expect.size());
}

TEST(TidSetGalloping, IntersectAgreesAcrossTheSkewCrossover) {
  const std::size_t universe = 1u << 16;
  const TidList big = EveryKth(universe, 2, 0);  // 32768 even tids.
  const std::size_t ratio = tidset_internal::kGallopSkewRatio;
  // Sizes straddling the crossover: na * 32 <= nb gallops, above merges.
  for (const std::size_t small_size :
       {big.size() / ratio / 4, big.size() / ratio - 1, big.size() / ratio,
        big.size() / ratio + 1, big.size() / ratio * 4}) {
    SCOPED_TRACE(small_size);
    // Mixed hits (even) and misses (odd).
    TidList small;
    for (std::size_t i = 0; i < small_size; ++i) {
      small.push_back(static_cast<Tid>(i * (universe / small_size) + i % 2));
    }
    CheckIntersectKernel(small, big);
    CheckIntersectKernel(big, small);  // Kernel swaps internally.
  }
}

TEST(TidSetGalloping, ExtremeSkewAndBoundaries) {
  const TidList big = EveryKth(1u << 14, 1, 0);
  CheckIntersectKernel(TidList{0}, big);                // First element.
  CheckIntersectKernel(TidList{(1u << 14) - 1}, big);   // Last element.
  CheckIntersectKernel(TidList{1u << 14}, big);         // Past the end.
  CheckIntersectKernel(TidList{}, big);                 // Empty short side.
  CheckIntersectKernel(TidList{5, 100, 16000}, big);
}

TEST(TidSetGalloping, SubsetKernelAgreesAcrossTheSkewCrossover) {
  const std::size_t universe = 1u << 15;
  const TidList big = EveryKth(universe, 2, 0);
  const std::size_t ratio = tidset_internal::kGallopSkewRatio;
  for (const std::size_t small_size :
       {big.size() / ratio - 1, big.size() / ratio, big.size() / ratio + 1}) {
    TidList inside, outside;
    for (std::size_t i = 0; i < small_size; ++i) {
      inside.push_back(static_cast<Tid>(2 * i * (big.size() / small_size)));
      outside.push_back(static_cast<Tid>(2 * i + (i == small_size / 2)));
    }
    SCOPED_TRACE(small_size);
    EXPECT_TRUE(tidset_internal::SubsetSorted(inside.data(), inside.size(),
                                              big.data(), big.size()));
    EXPECT_FALSE(tidset_internal::SubsetSorted(outside.data(), outside.size(),
                                               big.data(), big.size()));
    EXPECT_EQ(tidset_internal::SubsetSorted(inside.data(), inside.size(),
                                            big.data(), big.size()),
              std::includes(big.begin(), big.end(), inside.begin(),
                            inside.end()));
  }
}

TEST(TidSet, GallopingPathReachedThroughTidSetOps) {
  // End-to-end through the TidSet API with a >=32x size skew, both
  // operands sparse so the galloping kernel is the one that runs.
  const std::size_t universe = 1u << 16;
  const TidList big_tids = EveryKth(universe, 4, 0);
  const TidList small_tids = {0, 3, 4, 4096, 4097, 65532};
  ASSERT_GE(big_tids.size(),
            small_tids.size() * tidset_internal::kGallopSkewRatio);
  const TidSet big(big_tids, universe, Forced(TidSetMode::kSparse));
  const TidSet small(small_tids, universe, Forced(TidSetMode::kSparse));
  EXPECT_EQ(Intersect(small, big), IntersectTids(small_tids, big_tids));
  EXPECT_EQ(IntersectSize(big, small),
            IntersectTids(small_tids, big_tids).size());
  EXPECT_FALSE(IsSubsetOf(small, big));
  EXPECT_TRUE(IsSubsetOf(
      TidSet(TidList{0, 4, 4096, 65532}, universe, Forced(TidSetMode::kSparse)),
      big));
}

}  // namespace
}  // namespace pfci
