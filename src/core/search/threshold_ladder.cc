#include "src/core/search/threshold_ladder.h"

#include <algorithm>
#include <numeric>

namespace pfci {

ThresholdLadder PlanThresholdLadder(
    std::span<const std::size_t> thresholds) {
  ThresholdLadder ladder;
  if (thresholds.empty()) return ladder;
  ladder.order.resize(thresholds.size());
  std::iota(ladder.order.begin(), ladder.order.end(), std::size_t{0});
  // stable_sort keeps equal thresholds in submission order: two requests
  // at the same min_sup execute (and stamp queue counters) in the order
  // they arrived, independent of the sort implementation.
  std::stable_sort(ladder.order.begin(), ladder.order.end(),
                   [&thresholds](std::size_t a, std::size_t b) {
                     return thresholds[a] < thresholds[b];
                   });
  ladder.band = {thresholds[ladder.order.front()],
                 thresholds[ladder.order.back()]};
  return ladder;
}

}  // namespace pfci
