// RunHandle: the consumer's end of an asynchronous MiningSession run
// (DESIGN.md §15).
//
// MiningSession::Submit() returns immediately with a RunHandle; the run
// executes on a session worker thread and publishes its MiningResult
// through the handle. The handle is a value type over a shared ticket:
//
//     handle lifecycle        session worker
//     ----------------        --------------
//     Submit() ──────────────▶ admitted / queued
//       │ Cancel()  ─────────▶ (cooperative, any time)
//       │ TryGet()  ── false   run executes
//       │ Wait()    ── blocks  │
//       │                      publishes result, signals latch
//       ▼                      ▼
//     Wait()/TryGet() ◀─────── result (error-as-data: kInvalidRequest,
//                               kRejected, kCancelled, ... all arrive
//                               here, never as exceptions)
//
// The ticket is jointly owned by the handle and the worker, so a handle
// may outlive the session: ~MiningSession drains its workers first,
// which means a surviving handle always holds a completed result and
// Wait() returns without blocking. Cancel() after the session is gone
// is a harmless no-op on an already-finished run. Handles are copyable;
// every copy observes the same run.
#ifndef PFCI_SERVE_RUN_HANDLE_H_
#define PFCI_SERVE_RUN_HANDLE_H_

#include <memory>

#include "src/core/mining_result.h"
#include "src/util/completion.h"
#include "src/util/runtime.h"

namespace pfci {

namespace internal {

/// The shared rendezvous between one submitted run and its handles. The
/// worker writes `result` then signals `latch` (the latch's mutex orders
/// the publish before any consumer read); `cancel` is owned here so
/// RunHandle::Cancel works regardless of which side is still alive.
struct RunTicket {
  CompletionLatch latch;
  CancelToken cancel;
  MiningResult result;
};

}  // namespace internal

/// Handle to one submitted run. Default-constructed handles are invalid
/// (valid() == false); every accessor on an invalid handle CHECK-fails
/// except valid() itself.
class RunHandle {
 public:
  RunHandle() = default;

  /// Whether this handle refers to a submitted run.
  bool valid() const { return ticket_ != nullptr; }

  /// Non-blocking: whether the run has published its result.
  bool done() const;

  /// Blocks until the run finishes and returns its result. The reference
  /// stays valid for the handle's lifetime; safe to call repeatedly and
  /// from several threads.
  const MiningResult& Wait() const&;

  /// As above on a temporary handle (`session.Submit(r).Wait()`): the
  /// handle dies at the end of the full expression, and with it perhaps
  /// the last owner of the result, so the result is returned by value.
  MiningResult Wait() &&;

  /// Non-blocking poll: copies the result into `*out` and returns true
  /// when the run has finished, returns false (leaving `*out` untouched)
  /// while it is still running. `out` may be null to poll alone.
  bool TryGet(MiningResult* out) const;

  /// Requests cooperative cancellation. Before the run starts it is
  /// answered as kCancelled without running; mid-run the miners wind down
  /// at their next checkpoint (verified-prefix semantics); after the run
  /// finished it is a no-op. Idempotent.
  void Cancel();

 private:
  friend class MiningSession;
  explicit RunHandle(std::shared_ptr<internal::RunTicket> ticket)
      : ticket_(std::move(ticket)) {}

  std::shared_ptr<internal::RunTicket> ticket_;
};

}  // namespace pfci

#endif  // PFCI_SERVE_RUN_HANDLE_H_
