#include "src/serve/run_handle.h"

#include "src/util/check.h"

namespace pfci {

bool RunHandle::done() const {
  PFCI_CHECK_MSG(valid(), "RunHandle::done on an invalid handle");
  return ticket_->latch.done();
}

const MiningResult& RunHandle::Wait() const& {
  PFCI_CHECK_MSG(valid(), "RunHandle::Wait on an invalid handle");
  ticket_->latch.Wait();
  return ticket_->result;
}

MiningResult RunHandle::Wait() && {
  return static_cast<const RunHandle&>(*this).Wait();
}

bool RunHandle::TryGet(MiningResult* out) const {
  PFCI_CHECK_MSG(valid(), "RunHandle::TryGet on an invalid handle");
  if (!ticket_->latch.done()) return false;
  if (out != nullptr) *out = ticket_->result;
  return true;
}

void RunHandle::Cancel() {
  PFCI_CHECK_MSG(valid(), "RunHandle::Cancel on an invalid handle");
  ticket_->cancel.RequestCancel();
}

}  // namespace pfci
