// Robustness of the text loaders: random byte soup, truncated files, and
// boundary values must never crash, and must either parse cleanly or fail
// with an error while leaving the output empty.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/database_io.h"
#include "src/util/random.h"

namespace pfci {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(IoRobustness, RandomByteSoupNeverCrashes) {
  const std::string path = TempPath("pfci_fuzz.utd");
  Rng rng(4096);
  for (int trial = 0; trial < 200; ++trial) {
    std::string content;
    const std::size_t length = rng.NextBelow(200);
    for (std::size_t i = 0; i < length; ++i) {
      // Printable-ish bytes plus newlines and separators.
      const char alphabet[] =
          "0123456789 .eE+-#\nabcxyz\t\r";
      content += alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
    }
    WriteFile(path, content);
    UncertainDatabase db;
    std::string error;
    const bool ok = LoadUncertainDatabase(path, &db, &error);
    if (!ok) {
      EXPECT_TRUE(db.empty()) << "failed load must leave db empty";
      EXPECT_FALSE(error.empty());
    } else {
      for (const auto& t : db.transactions()) {
        EXPECT_GT(t.prob, 0.0);
        EXPECT_LE(t.prob, 1.0);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IoRobustness, BoundaryProbabilities) {
  const std::string path = TempPath("pfci_boundary.utd");
  WriteFile(path, "1.0 1 2\n0.0000001 3\n");
  UncertainDatabase db;
  std::string error;
  ASSERT_TRUE(LoadUncertainDatabase(path, &db, &error)) << error;
  EXPECT_DOUBLE_EQ(db.prob(0), 1.0);
  EXPECT_GT(db.prob(1), 0.0);

  WriteFile(path, "0 1 2\n");  // Zero probability: rejected.
  EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error));
  WriteFile(path, "1.0000001 1\n");  // Above one: rejected.
  EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error));
  WriteFile(path, "-0.5 1\n");  // Negative: rejected.
  EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error));
  std::remove(path.c_str());
}

TEST(IoRobustness, NonFiniteProbabilitiesAreRejected) {
  // NaN and infinities are parseable as doubles but meaningless as
  // probabilities; the loader must refuse them with the offending line.
  const std::string path = TempPath("pfci_nonfinite.utd");
  for (const char* bad : {"nan 1\n", "NaN 1 2\n", "inf 1\n", "-inf 1\n",
                          "infinity 1\n", "1e309 1\n"}) {
    WriteFile(path, std::string("0.5 9\n") + bad);
    UncertainDatabase db;
    std::string error;
    EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error)) << bad;
    EXPECT_TRUE(db.empty()) << "failed load must leave db empty";
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("probability"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(IoRobustness, DuplicateItemsWithinLineAreRejected) {
  // The Itemset constructor silently dedupes, so without an explicit
  // check a corrupted file would load "successfully" with the wrong
  // transaction lengths. Both loaders must reject with the line number
  // and the duplicated item.
  const std::string path = TempPath("pfci_dup.utd");
  WriteFile(path, "0.5 1 2\n0.25 7 3 7\n");
  UncertainDatabase db;
  std::string error;
  EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error));
  EXPECT_TRUE(db.empty()) << "failed load must leave db empty";
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("duplicate item '7'"), std::string::npos) << error;

  const std::string dat_path = TempPath("pfci_dup.dat");
  WriteFile(dat_path, "1 2 3\n4 4\n");
  std::vector<Itemset> transactions;
  EXPECT_FALSE(LoadExactTransactions(dat_path, &transactions, &error));
  EXPECT_TRUE(transactions.empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("duplicate item '4'"), std::string::npos) << error;
  std::remove(path.c_str());
  std::remove(dat_path.c_str());
}

TEST(IoRobustness, ProbabilityOnlyLinesAreRejected) {
  // A line with a probability and no items is almost always a formatting
  // accident (a transaction line that lost its items); reject it with a
  // line-numbered error instead of silently adding an empty transaction.
  const std::string path = TempPath("pfci_empty_tx.utd");
  WriteFile(path, "0.5\n0.25 7\n");
  UncertainDatabase db;
  std::string error;
  EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error));
  EXPECT_TRUE(db.empty()) << "failed load must leave db empty";
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("no items"), std::string::npos) << error;

  // The line number must point at the offending line, not a count of
  // parsed transactions: comments and blank lines still advance it.
  WriteFile(path, "# header\n0.25 7\n\n0.5\n");
  EXPECT_FALSE(LoadUncertainDatabase(path, &db, &error));
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(IoRobustness, ProbabilitiesRoundTripBitExact) {
  // Save/Load must be lossless: reloaded probabilities must match the
  // originals bit-for-bit, including values that need all 17 significant
  // digits (0.1 + 0.2, nextafter neighbours, random doubles).
  const std::string path = TempPath("pfci_prob_roundtrip.utd");
  UncertainDatabase db;
  db.Add(Itemset{0}, 0.1 + 0.2);
  db.Add(Itemset{1}, std::nextafter(0.5, 1.0));
  db.Add(Itemset{2}, std::nextafter(1.0, 0.0));
  db.Add(Itemset{3}, 1.0);
  db.Add(Itemset{4}, std::numeric_limits<double>::min());
  Rng rng(20240806);
  for (Item item = 5; item < 205; ++item) {
    double p = rng.NextDouble();
    if (!(p > 0.0)) p = 0.5;
    db.Add(Itemset{item}, p);
  }
  ASSERT_TRUE(SaveUncertainDatabase(db, path));
  UncertainDatabase loaded;
  std::string error;
  ASSERT_TRUE(LoadUncertainDatabase(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    std::uint64_t saved_bits = 0;
    std::uint64_t loaded_bits = 0;
    const double saved = db.prob(i);
    const double reloaded = loaded.prob(i);
    std::memcpy(&saved_bits, &saved, sizeof(saved_bits));
    std::memcpy(&loaded_bits, &reloaded, sizeof(loaded_bits));
    EXPECT_EQ(saved_bits, loaded_bits)
        << "transaction " << i << ": " << saved << " != " << reloaded;
  }
  std::remove(path.c_str());
}

TEST(IoRobustness, CommentsAndBlankLinesIgnoredEverywhere) {
  const std::string path = TempPath("pfci_comments.utd");
  WriteFile(path, "# header\n\n   \n0.5 1 2\n# middle\n0.25 3\n");
  UncertainDatabase db;
  std::string error;
  ASSERT_TRUE(LoadUncertainDatabase(path, &db, &error)) << error;
  EXPECT_EQ(db.size(), 2u);
  std::remove(path.c_str());
}

TEST(IoRobustness, ExactLoaderRejectsNegativeItems) {
  const std::string path = TempPath("pfci_neg.dat");
  WriteFile(path, "1 2 -3\n");
  std::vector<Itemset> transactions;
  std::string error;
  EXPECT_FALSE(LoadExactTransactions(path, &transactions, &error));
  EXPECT_TRUE(transactions.empty());
  std::remove(path.c_str());
}

TEST(IoRobustness, LargeItemIdsRoundTrip) {
  const std::string path = TempPath("pfci_large_ids.utd");
  UncertainDatabase db;
  db.Add(Itemset{0, kMaxItemId}, 0.5);
  ASSERT_TRUE(SaveUncertainDatabase(db, path));
  UncertainDatabase loaded;
  std::string error;
  ASSERT_TRUE(LoadUncertainDatabase(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.transaction(0).items, (Itemset{0, kMaxItemId}));

  // Ids past the bound are refused with a line-numbered error by both
  // loaders: per-item arrays are sized by the largest id, and 2^32 - 1
  // used to wrap MaxItemPlusOne() to 0.
  const std::string exact_path = TempPath("pfci_large_ids.dat");
  for (const std::string& id :
       {std::to_string(std::uint64_t{kMaxItemId} + 1),
        std::string("4294967295")}) {
    WriteFile(path, "# header\n0.5 1\n0.5 " + id + "\n");
    EXPECT_FALSE(LoadUncertainDatabase(path, &loaded, &error)) << id;
    EXPECT_TRUE(loaded.empty());
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("maximum item id"), std::string::npos) << error;

    std::vector<Itemset> transactions;
    WriteFile(exact_path, "1 2\n" + id + "\n");
    EXPECT_FALSE(LoadExactTransactions(exact_path, &transactions, &error))
        << id;
    EXPECT_TRUE(transactions.empty());
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
  std::remove(path.c_str());
  std::remove(exact_path.c_str());
}

}  // namespace
}  // namespace pfci
