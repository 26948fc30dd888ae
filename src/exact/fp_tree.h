// FP-tree: the prefix-tree structure behind FP-growth [13], generic over
// the node weight — exact multiplicities (std::size_t) for FP-growth,
// real-valued existence probabilities (double) for the UF-growth-style
// expected-support miner [15].
#ifndef PFCI_EXACT_FP_TREE_H_
#define PFCI_EXACT_FP_TREE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/data/item.h"

namespace pfci {

/// A transaction (already filtered and ordered) with a weight, as
/// inserted into an FP-tree. Conditional pattern bases are weighted,
/// hence the count.
template <typename Weight>
struct WeightedItemList {
  std::vector<Item> items;  ///< In tree insertion order.
  Weight count = 1;
};

/// Prefix tree with per-item node links and a header table.
template <typename Weight>
class FpTree {
 public:
  struct Node {
    Item item = 0;
    Weight count = 0;
    Node* parent = nullptr;
    Node* next_same_item = nullptr;  ///< Node-link chain.
    std::vector<std::unique_ptr<Node>> children;

    Node* FindChild(Item child_item) const {
      for (const auto& child : children) {
        if (child->item == child_item) return child.get();
      }
      return nullptr;
    }
  };

  /// Header entry: an item, its total count in the tree, and the head of
  /// its node-link chain.
  struct HeaderEntry {
    Item item = 0;
    Weight total_count = 0;
    Node* head = nullptr;
  };

  /// Builds the tree from weighted item lists. Items inside each list must
  /// already be ordered consistently (the caller orders by descending
  /// global weight, the classic FP-growth heuristic).
  explicit FpTree(const std::vector<WeightedItemList<Weight>>& rows) {
    std::size_t max_item_plus_one = 0;
    for (const auto& row : rows) {
      for (Item item : row.items) {
        max_item_plus_one = std::max(max_item_plus_one, std::size_t{item} + 1);
      }
    }
    header_slot_.assign(max_item_plus_one, -1);
    for (const auto& row : rows) {
      if (!row.items.empty()) Insert(row.items, row.count);
    }
  }

  /// Header entries present in this tree, in insertion order of the item
  /// ordering used by the caller (ascending item-rank).
  const std::vector<HeaderEntry>& header() const { return header_; }

  /// The conditional pattern base of `item`: for every node carrying the
  /// item, the path from its parent up to the root (reversed into root-
  /// first order) weighted by the node count.
  std::vector<WeightedItemList<Weight>> ConditionalPatternBase(
      Item item) const {
    std::vector<WeightedItemList<Weight>> base;
    if (item >= header_slot_.size() || header_slot_[item] < 0) return base;
    for (const Node* node = header_[header_slot_[item]].head;
         node != nullptr; node = node->next_same_item) {
      WeightedItemList<Weight> row;
      row.count = node->count;
      for (const Node* up = node->parent;
           up != nullptr && up->parent != nullptr; up = up->parent) {
        row.items.push_back(up->item);
      }
      std::reverse(row.items.begin(), row.items.end());
      if (!row.items.empty()) base.push_back(std::move(row));
    }
    return base;
  }

 private:
  void Insert(const std::vector<Item>& items, Weight count) {
    Node* node = &root_;
    for (Item item : items) {
      Node* child = node->FindChild(item);
      if (child == nullptr) {
        auto owned = std::make_unique<Node>();
        child = owned.get();
        child->item = item;
        child->parent = node;
        node->children.push_back(std::move(owned));
        // Thread the node into the header chain.
        int slot = header_slot_[item];
        if (slot < 0) {
          slot = static_cast<int>(header_.size());
          header_slot_[item] = slot;
          header_.push_back(HeaderEntry{item, 0, nullptr});
        }
        child->next_same_item = header_[slot].head;
        header_[slot].head = child;
      }
      child->count += count;
      header_[header_slot_[item]].total_count += count;
      node = child;
    }
  }

  Node root_;
  std::vector<HeaderEntry> header_;
  std::vector<int> header_slot_;  ///< item -> index into header_, or -1.
};

}  // namespace pfci

#endif  // PFCI_EXACT_FP_TREE_H_
