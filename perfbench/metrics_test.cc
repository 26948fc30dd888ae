// Tests of the benchmark's metric math (perfbench/metrics.h): percentile
// selection and its ten-samples-beyond rule, the failed-request ratio, and
// the digest comparison behind the correctness gate.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/metrics.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, \
                   #cond);                                        \
      ++failures;                                                 \
    }                                                             \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted input.
  return values;
}

void TestPercentileSelection() {
  EXPECT(perfbench::Percentile(OneTo(100), 0.5) == 50.0);
  EXPECT(perfbench::Percentile(OneTo(100), 0.9) == 90.0);
  EXPECT(perfbench::Percentile(OneTo(101), 0.9) == 91.0);
  EXPECT(perfbench::Percentile(OneTo(10), 0.9) == 9.0);
  EXPECT(perfbench::Percentile(OneTo(1), 0.9) == 1.0);
  EXPECT(perfbench::Percentile({}, 0.5) == 0.0);
  EXPECT(perfbench::Percentile(OneTo(4), 1.0) == 4.0);
}

void TestTenSamplesBeyond() {
  // p90 of 100 samples leaves exactly ten above it; of 99, only nine.
  EXPECT(perfbench::SamplesBeyond(100, 0.9) == 10);
  EXPECT(perfbench::SamplesBeyond(99, 0.9) == 9);
  EXPECT(perfbench::SamplesBeyond(1000, 0.99) == 10);
  EXPECT(perfbench::SamplesBeyond(0, 0.9) == 0);
  const std::vector<double> ladder = {0.5, 0.9, 0.99};
  EXPECT(perfbench::HighestReportablePercentile(100, ladder) == 0.9);
  EXPECT(perfbench::HighestReportablePercentile(99, ladder) == 0.5);
  EXPECT(perfbench::HighestReportablePercentile(1000, ladder) == 0.99);
  EXPECT(perfbench::HighestReportablePercentile(5, ladder) == 0.0);
}

void TestFailedRatio() {
  EXPECT(perfbench::FailedRatio(0, 120) == 0.0);
  EXPECT(perfbench::FailedRatio(3, 120) == 0.025);
  EXPECT(perfbench::FailedRatio(0, 0) == 0.0);
}

pfci::MiningResult SampleResult() {
  pfci::MiningResult result;
  pfci::PfciEntry entry;
  entry.items = pfci::Itemset{1, 4, 7};
  entry.fcp = 0.8125;
  entry.pr_f = 0.9;
  result.itemsets.push_back(entry);
  entry.items = pfci::Itemset{2};
  entry.fcp = 0.95;
  entry.pr_f = 0.97;
  result.itemsets.push_back(entry);
  return result;
}

void TestDigestComparison() {
  const pfci::MiningResult reference = SampleResult();
  const std::uint64_t digest = perfbench::Digest(reference);
  EXPECT(perfbench::Matches(SampleResult(), digest));

  // One ulp in one fcp is a mismatch.
  pfci::MiningResult nudged = SampleResult();
  nudged.itemsets[0].fcp = std::nextafter(nudged.itemsets[0].fcp, 1.0);
  EXPECT(!perfbench::Matches(nudged, digest));

  // So is a changed pr_f, a changed item, or a dropped itemset.
  pfci::MiningResult other = SampleResult();
  other.itemsets[1].pr_f = 0.96;
  EXPECT(!perfbench::Matches(other, digest));
  other = SampleResult();
  other.itemsets[1].items = pfci::Itemset{3};
  EXPECT(!perfbench::Matches(other, digest));
  other = SampleResult();
  other.itemsets.pop_back();
  EXPECT(!perfbench::Matches(other, digest));

  // Bounds and method are not part of the answer.
  other = SampleResult();
  other.itemsets[0].fcp_lower = 0.5;
  other.itemsets[0].method = pfci::FcpMethod::kSampled;
  EXPECT(perfbench::Matches(other, digest));

  // The same answer from a run that did not complete is a failure.
  other = SampleResult();
  other.stats.outcome = pfci::Outcome::kRejected;
  EXPECT(!perfbench::Matches(other, digest));

  // An altered reference digest is a mismatch.
  EXPECT(!perfbench::Matches(SampleResult(), digest ^ 1));
}

}  // namespace

int main() {
  TestPercentileSelection();
  TestTenSamplesBeyond();
  TestFailedRatio();
  TestDigestComparison();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("metrics_test: all checks passed\n");
  return EXIT_SUCCESS;
}
