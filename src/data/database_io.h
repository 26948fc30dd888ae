// Text I/O for uncertain and exact transaction databases.
//
// Formats:
//  * `.utd` (uncertain): one transaction per line, `prob item item ...`,
//    `#`-prefixed comment lines ignored.
//  * `.dat` (exact, FIMI basket format): one transaction per line,
//    whitespace-separated item ids.
#ifndef PFCI_DATA_DATABASE_IO_H_
#define PFCI_DATA_DATABASE_IO_H_

#include <string>
#include <vector>

#include "src/data/itemset.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// Writes `db` in `.utd` format. Returns false on I/O failure.
bool SaveUncertainDatabase(const UncertainDatabase& db,
                           const std::string& path);

/// Reads a `.utd` file. Returns false on I/O failure or malformed content;
/// on failure `*db` is left empty and `*error` (if non-null) describes the
/// first problem with its line number. Rejected content: probabilities
/// that are not finite numbers in (0, 1] (NaN, inf, 0, negative, > 1),
/// probability-only lines, non-numeric items, item ids above kMaxItemId,
/// and duplicate items within one transaction line.
bool LoadUncertainDatabase(const std::string& path, UncertainDatabase* db,
                           std::string* error = nullptr);

/// Writes exact transactions in `.dat` format.
bool SaveExactTransactions(const std::vector<Itemset>& transactions,
                           const std::string& path);

/// Reads a `.dat` file of exact transactions. Rejects non-numeric items,
/// item ids above kMaxItemId, and duplicate items within one line, with
/// line-numbered errors.
bool LoadExactTransactions(const std::string& path,
                           std::vector<Itemset>* transactions,
                           std::string* error = nullptr);

}  // namespace pfci

#endif  // PFCI_DATA_DATABASE_IO_H_
