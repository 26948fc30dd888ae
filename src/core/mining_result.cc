#include "src/core/mining_result.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace pfci {

const char* FcpMethodName(FcpMethod method) {
  switch (method) {
    case FcpMethod::kUndecided:
      return "undecided";
    case FcpMethod::kZeroByCount:
      return "zero-by-count";
    case FcpMethod::kBoundsDecided:
      return "bounds";
    case FcpMethod::kExact:
      return "exact";
    case FcpMethod::kSampled:
      return "sampled";
  }
  return "unknown";
}

// Counter-count guard for MergeCounters: 22 std::uint64_t counters + 4
// doubles + (Outcome + 2 bools, padded to one word). Adding a field
// changes the size and fails this assert — update MergeCounters (and
// ToString / ToJson / EmitTrace) before adjusting the constant, so a new
// counter can never silently skip the merge. The batch_* / queued_micros
// quartet (schema v6) is deliberately NOT merged: the serving layer
// stamps it once per member after the deterministic merge.
static_assert(sizeof(MiningStats) ==
                  22 * sizeof(std::uint64_t) + 4 * sizeof(double) + 8,
              "MiningStats layout changed: audit MergeCounters, ToString, "
              "ToJson, and EmitTrace, then update this size guard");

void MiningStats::MergeCounters(const MiningStats& part) {
  nodes_visited += part.nodes_visited;
  pruned_by_chernoff += part.pruned_by_chernoff;
  pruned_by_frequency += part.pruned_by_frequency;
  pruned_by_superset += part.pruned_by_superset;
  pruned_by_subset += part.pruned_by_subset;
  decided_by_bounds += part.decided_by_bounds;
  zero_by_count += part.zero_by_count;
  exact_fcp_computations += part.exact_fcp_computations;
  sampled_fcp_computations += part.sampled_fcp_computations;
  total_samples += part.total_samples;
  dp_runs += part.dp_runs;
  intersections += part.intersections;
  degraded_fcp_evals += part.degraded_fcp_evals;
  cache_hits += part.cache_hits;
  cache_misses += part.cache_misses;
  dp_reused += part.dp_reused;
}

std::string MiningStats::ToString() const {
  return "nodes=" + std::to_string(nodes_visited) +
         " ch_pruned=" + std::to_string(pruned_by_chernoff) +
         " freq_pruned=" + std::to_string(pruned_by_frequency) +
         " super_pruned=" + std::to_string(pruned_by_superset) +
         " sub_pruned=" + std::to_string(pruned_by_subset) +
         " bounds_decided=" + std::to_string(decided_by_bounds) +
         " zero_by_count=" + std::to_string(zero_by_count) +
         " exact_fcp=" + std::to_string(exact_fcp_computations) +
         " sampled_fcp=" + std::to_string(sampled_fcp_computations) +
         " samples=" + std::to_string(total_samples) +
         " dp_runs=" + std::to_string(dp_runs) +
         " intersections=" + std::to_string(intersections) +
         " degraded_fcp=" + std::to_string(degraded_fcp_evals) +
         " cache_hits=" + std::to_string(cache_hits) +
         " cache_misses=" + std::to_string(cache_misses) +
         " dp_reused=" + std::to_string(dp_reused) +
         " outcome=" + OutcomeName(outcome) +
         (resumed ? " resumed=1" : "") +
         (snapshot_bytes > 0
              ? " snapshot_bytes=" + std::to_string(snapshot_bytes)
              : "") +
         (batch_size > 0
              ? " batch=" + std::to_string(batch_size) + "/" +
                    std::to_string(batch_groups) +
                    " shared_dp_hits=" + std::to_string(shared_dp_hits) +
                    " queued_micros=" + std::to_string(queued_micros)
              : "") +
         " time=" + FormatDouble(seconds, 4) + "s";
}

std::string MiningStats::ToJson() const {
  std::string out = "{";
  const auto field = [&out](const char* name, std::uint64_t value) {
    if (out.size() > 1) out += ",";
    out += "\"";
    out += name;
    out += "\":" + std::to_string(value);
  };
  field("schema", 6);
  field("nodes_visited", nodes_visited);
  field("pruned_by_chernoff", pruned_by_chernoff);
  field("pruned_by_frequency", pruned_by_frequency);
  field("pruned_by_superset", pruned_by_superset);
  field("pruned_by_subset", pruned_by_subset);
  field("decided_by_bounds", decided_by_bounds);
  field("zero_by_count", zero_by_count);
  field("exact_fcp_computations", exact_fcp_computations);
  field("sampled_fcp_computations", sampled_fcp_computations);
  field("total_samples", total_samples);
  field("dp_runs", dp_runs);
  field("intersections", intersections);
  field("degraded_fcp_evals", degraded_fcp_evals);
  field("cache_hits", cache_hits);
  field("cache_misses", cache_misses);
  field("dp_reused", dp_reused);
  field("cache_bytes", cache_bytes);
  field("snapshot_bytes", snapshot_bytes);
  field("batch_size", batch_size);
  field("batch_groups", batch_groups);
  field("shared_dp_hits", shared_dp_hits);
  field("queued_micros", queued_micros);
  out += ",\"outcome\":\"";
  out += OutcomeName(outcome);
  out += "\"";
  out += ",\"truncated\":";
  out += truncated ? "true" : "false";
  out += ",\"resumed\":";
  out += resumed ? "true" : "false";
  // Round-trip formatting keeps the JSON byte-stable across platforms:
  // the shortest digit string that reparses to the exact double, rather
  // than a fixed precision that can round differently at the boundary.
  out += ",\"seconds\":" + FormatDoubleRoundTrip(seconds);
  out += ",\"candidate_seconds\":" + FormatDoubleRoundTrip(candidate_seconds);
  out += ",\"search_seconds\":" + FormatDoubleRoundTrip(search_seconds);
  out += ",\"merge_seconds\":" + FormatDoubleRoundTrip(merge_seconds);
  out += "}";
  return out;
}

void MiningStats::EmitTrace(TraceSink* sink) const {
  if (sink == nullptr) return;
  // The paper's per-rule pruning attribution, under stable wire names
  // (pruned_by_frequency is "threshold_pruned": the exact PrF <= pfct
  // rejection; total_samples is "samples_drawn": the FPRAS budget).
  TraceCounter(sink, "nodes_expanded", nodes_visited);
  TraceCounter(sink, "chernoff_pruned", pruned_by_chernoff);
  TraceCounter(sink, "threshold_pruned", pruned_by_frequency);
  TraceCounter(sink, "superset_pruned", pruned_by_superset);
  TraceCounter(sink, "subset_pruned", pruned_by_subset);
  TraceCounter(sink, "bounds_decided", decided_by_bounds);
  TraceCounter(sink, "zero_by_count", zero_by_count);
  TraceCounter(sink, "exact_fcp", exact_fcp_computations);
  TraceCounter(sink, "sampled_fcp", sampled_fcp_computations);
  TraceCounter(sink, "samples_drawn", total_samples);
  TraceCounter(sink, "dp_runs", dp_runs);
  TraceCounter(sink, "intersections", intersections);
  TraceCounter(sink, "degraded_fcp_evals", degraded_fcp_evals);
  TraceCounter(sink, "truncated", truncated ? 1 : 0);
}

void MiningResult::Sort() {
  std::sort(itemsets.begin(), itemsets.end());
}

const PfciEntry* MiningResult::Find(const Itemset& items) const {
  for (const PfciEntry& entry : itemsets) {
    if (entry.items == items) return &entry;
  }
  return nullptr;
}

std::string MiningResult::ToString(bool letters) const {
  std::string out;
  for (const PfciEntry& entry : itemsets) {
    out += entry.items.ToString(letters);
    out += " fcp=" + FormatDouble(entry.fcp, 6);
    out += " prF=" + FormatDouble(entry.pr_f, 6);
    out += " [";
    out += FcpMethodName(entry.method);
    out += "]\n";
  }
  return out;
}

}  // namespace pfci
