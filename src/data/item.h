// Basic item and transaction-identifier types.
#ifndef PFCI_DATA_ITEM_H_
#define PFCI_DATA_ITEM_H_

#include <cstdint>

namespace pfci {

/// An item is a dense non-negative integer id. The paper's running example
/// items a, b, c, d map to 0, 1, 2, 3; the "alphabetic order" used by the
/// enumeration and the pruning lemmas is the natural order on these ids.
using Item = std::uint32_t;

/// Largest item id the text loaders accept (2^20 - 1). Per-item arrays
/// (index columns, FP-growth weights) are sized by the largest id, so the
/// bound keeps a hostile file from sizing them by a 32-bit id; every
/// dataset the repository generates uses fewer than 120 items.
constexpr Item kMaxItemId = (Item{1} << 20) - 1;

/// Transaction identifier: index into an (uncertain) database.
using Tid = std::uint32_t;

}  // namespace pfci

#endif  // PFCI_DATA_ITEM_H_
