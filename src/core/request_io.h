// MiningRequest <-> request-wire mapping (DESIGN.md §15).
//
// The wire dialect itself (key=value lines, comments, line numbers) is
// lexed by src/data/request_wire.h; this header owns what the keys
// MEAN: the fixed field order writers emit and the per-key parsing that
// maps a field onto a MiningRequest. mine_cli's --request=FILE, the
// oracle repro sidecar (src/harness/oracle/repro.h, which adds a
// `check` key on top), and batch submission all go through these
// functions, so a request serialized anywhere replays identically
// everywhere.
//
// The wire covers the deterministic request surface: algorithm, every
// MiningParams field, top_k, min_esup, and num_threads. Runtime-only
// fields (progress sinks, cancel tokens, budgets, snapshots) are
// deliberately not serialized — a wire request is a repeatable
// experiment, not a captured execution.
#ifndef PFCI_CORE_REQUEST_IO_H_
#define PFCI_CORE_REQUEST_IO_H_

#include <string>
#include <vector>

#include "src/core/mine.h"
#include "src/data/request_wire.h"

namespace pfci {

/// Serializes every wire-covered field of `request`, one per line, in
/// the fixed canonical order (doubles via FormatDoubleRoundTrip, bools
/// as 0/1). Byte-stable across platforms.
std::string FormatRequestFields(const MiningRequest& request);

/// Result of applying one wire field to a request.
enum class WireFieldStatus {
  kApplied,     ///< Key recognized, value parsed, request updated.
  kUnknownKey,  ///< Not a request key (caller decides: error or skip).
  kBadValue,    ///< Key recognized but the value does not parse.
};

/// Applies one `key=value` field onto `request`.
WireFieldStatus ApplyRequestField(const WireField& field,
                                  MiningRequest* request);

/// Applies every field onto `request`. Unknown keys and bad values are
/// errors ("`origin` line N: ..." in `error`) — a typo must not
/// silently replay a default request.
bool ApplyRequestFields(const std::vector<WireField>& fields,
                        const std::string& origin, MiningRequest* request,
                        std::string* error);

/// Loads the wire file at `path` onto `request` (which keeps its
/// existing values for keys the file omits). The harness's `check` key
/// is skipped, so an oracle repro sidecar replays directly; any other
/// unknown key is an error.
bool LoadRequestFile(const std::string& path, MiningRequest* request,
                     std::string* error);

}  // namespace pfci

#endif  // PFCI_CORE_REQUEST_IO_H_
