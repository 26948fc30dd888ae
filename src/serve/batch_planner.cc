#include "src/serve/batch_planner.h"

#include <map>
#include <utility>

#include "src/core/search/threshold_ladder.h"

namespace pfci {

BatchPlan PlanBatch(std::span<const MiningRequest> requests) {
  BatchPlan plan;
  plan.size = requests.size();
  // Key -> position in plan.groups; std::map only resolves repeats of a
  // key, group order itself is first-appearance (submission) order.
  std::map<std::pair<Algorithm, TidSetMode>, std::size_t> group_index;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const MiningRequest& request = requests[i];
    std::string error = ValidateRequest(request);
    if (!error.empty()) {
      plan.invalid.push_back(i);
      plan.invalid_reasons.push_back(std::move(error));
      continue;
    }
    const std::pair<Algorithm, TidSetMode> key(request.algorithm,
                                               request.params.tidset_mode);
    auto it = group_index.find(key);
    if (it == group_index.end()) {
      it = group_index.emplace(key, plan.groups.size()).first;
      BatchGroup group;
      group.algorithm = request.algorithm;
      group.tidset_mode = request.params.tidset_mode;
      plan.groups.push_back(std::move(group));
    }
    plan.groups[it->second].members.push_back(i);
  }
  // Order each group on the kernel's threshold ladder: ascending
  // min_sup, stable in submission order, band = lowest..highest.
  for (BatchGroup& group : plan.groups) {
    std::vector<std::size_t> thresholds;
    thresholds.reserve(group.members.size());
    for (const std::size_t index : group.members) {
      thresholds.push_back(requests[index].params.min_sup);
    }
    const ThresholdLadder ladder = PlanThresholdLadder(thresholds);
    std::vector<std::size_t> ordered;
    ordered.reserve(group.members.size());
    for (const std::size_t position : ladder.order) {
      ordered.push_back(group.members[position]);
    }
    group.members = std::move(ordered);
    group.band = ladder.band;
  }
  return plan;
}

}  // namespace pfci
