#include "src/data/database_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/util/string_util.h"

namespace pfci {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// Returns true and reports the offending item when a transaction line
/// lists the same item twice. The Itemset constructor would silently
/// dedupe, but a duplicate almost always means a corrupted or
/// mis-generated file, so the loaders reject it with a line number
/// instead of papering over it.
bool FindDuplicateItem(const std::vector<Item>& items, Item* duplicate) {
  std::vector<Item> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  const auto it = std::adjacent_find(sorted.begin(), sorted.end());
  if (it == sorted.end()) return false;
  *duplicate = *it;
  return true;
}

/// Parses one item token of line `line_number`. Returns "" on success, or
/// the line-numbered error for a non-numeric id or one above kMaxItemId.
std::string ParseItem(const std::string& token, int line_number, Item* item) {
  const std::string where = "line " + std::to_string(line_number) + ": ";
  unsigned int value = 0;
  if (!ParseUint32(token, &value)) return where + "bad item '" + token + "'";
  if (value > kMaxItemId) {
    return where + "item id '" + token + "' exceeds the maximum item id " +
           std::to_string(kMaxItemId);
  }
  *item = value;
  return "";
}

}  // namespace

bool SaveUncertainDatabase(const UncertainDatabase& db,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# pfci uncertain transaction database: prob item item ...\n";
  for (const auto& t : db.transactions()) {
    out << FormatDoubleRoundTrip(t.prob);
    for (Item item : t.items.items()) out << ' ' << item;
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool LoadUncertainDatabase(const std::string& path, UncertainDatabase* db,
                           std::string* error) {
  *db = UncertainDatabase();
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::vector<std::string> tokens = SplitTokens(stripped);
    double prob = 0.0;
    // The negated comparison also rejects NaN.
    if (!ParseDouble(tokens[0], &prob) || !(prob > 0.0 && prob <= 1.0)) {
      SetError(error, "line " + std::to_string(line_number) +
                          ": bad probability '" + tokens[0] + "'");
      *db = UncertainDatabase();
      return false;
    }
    if (tokens.size() == 1) {
      SetError(error, "line " + std::to_string(line_number) +
                          ": transaction has no items (probability-only "
                          "line)");
      *db = UncertainDatabase();
      return false;
    }
    std::vector<Item> items;
    items.reserve(tokens.size() - 1);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      Item item = 0;
      const std::string item_error = ParseItem(tokens[i], line_number, &item);
      if (!item_error.empty()) {
        SetError(error, item_error);
        *db = UncertainDatabase();
        return false;
      }
      items.push_back(item);
    }
    Item duplicate = 0;
    if (FindDuplicateItem(items, &duplicate)) {
      SetError(error, "line " + std::to_string(line_number) +
                          ": duplicate item '" + std::to_string(duplicate) +
                          "' in transaction");
      *db = UncertainDatabase();
      return false;
    }
    db->Add(Itemset(std::move(items)), prob);
  }
  return true;
}

bool SaveExactTransactions(const std::vector<Itemset>& transactions,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Itemset& t : transactions) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << ' ';
      out << t[i];
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool LoadExactTransactions(const std::string& path,
                           std::vector<Itemset>* transactions,
                           std::string* error) {
  transactions->clear();
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::vector<Item> items;
    for (const std::string& token : SplitTokens(stripped)) {
      Item item = 0;
      const std::string item_error = ParseItem(token, line_number, &item);
      if (!item_error.empty()) {
        SetError(error, item_error);
        transactions->clear();
        return false;
      }
      items.push_back(item);
    }
    Item duplicate = 0;
    if (FindDuplicateItem(items, &duplicate)) {
      SetError(error, "line " + std::to_string(line_number) +
                          ": duplicate item '" + std::to_string(duplicate) +
                          "' in transaction");
      transactions->clear();
      return false;
    }
    transactions->push_back(Itemset(std::move(items)));
  }
  return true;
}

}  // namespace pfci
