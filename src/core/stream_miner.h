// Sliding-window mining over an uncertain transaction stream.
//
// The paper's related work ([30]) studies frequent items over
// probabilistic streams; this module extends the library in that
// direction for full itemsets: a bounded window of the most recent
// uncertain transactions is maintained, and the probabilistic frequent
// closed itemsets of the window can be (re)mined at any point. Mining is
// a fresh MPFCI run over the window — exact window semantics, no
// approximation from incremental maintenance.
#ifndef PFCI_CORE_STREAM_MINER_H_
#define PFCI_CORE_STREAM_MINER_H_

#include <cstdint>
#include <deque>

#include "src/core/mine.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// Maintains the last `window_size` uncertain transactions of a stream
/// and mines the window on demand.
class StreamingPfciMiner {
 public:
  /// `params.min_sup` applies to the window (absolute count within it).
  /// Degenerate configurations construct fine and surface as data at the
  /// mining boundary: `window_size == 0` makes MineWindow() return a
  /// kInvalidRequest result (and Observe() retain nothing), and invalid
  /// params are rejected by Mine() itself.
  StreamingPfciMiner(MiningParams params, std::size_t window_size);

  /// Appends one transaction, evicting the oldest when the window is at
  /// capacity.
  void Observe(Itemset items, double prob);

  /// Number of transactions currently in the window (<= window_size).
  std::size_t window_fill() const { return window_.size(); }

  /// Total transactions observed since construction.
  std::uint64_t transactions_seen() const { return seen_; }

  /// The window as a database (oldest first).
  UncertainDatabase WindowSnapshot() const;

  /// Mines the probabilistic frequent closed itemsets of the current
  /// window. Each call advances the internal mining seed so repeated
  /// calls on identical windows remain deterministic but independent.
  /// Routed through the unified Mine() entry point (and so through the
  /// search kernel); invalid mining parameters come back as a
  /// kInvalidRequest result rather than aborting.
  MiningResult MineWindow();

  /// As above with a request template: budget, cancel token, trace sink,
  /// execution policy, and algorithm choice are honored, making windowed
  /// mining fail-soft like any other Mine() call. The template's params
  /// are replaced by the stream's own (with the per-call seed advance).
  MiningResult MineWindow(const MiningRequest& request);

 private:
  MiningParams params_;
  std::size_t window_size_;
  std::deque<UncertainTransaction> window_;
  std::uint64_t seen_ = 0;
  std::uint64_t mine_calls_ = 0;
};

}  // namespace pfci

#endif  // PFCI_CORE_STREAM_MINER_H_
