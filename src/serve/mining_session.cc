#include "src/serve/mining_session.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <utility>

#include "src/serve/batch_planner.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"

namespace pfci {

namespace {

/// Pre-run rejection stamped by the session (admission control).
MiningResult RejectedResult(const SessionOptions& options) {
  MiningResult rejected;
  rejected.stats.outcome = Outcome::kRejected;
  rejected.stats.truncated = true;
  rejected.status_message =
      "rejected by admission control: session at max_inflight=" +
      std::to_string(options.max_inflight) +
      " with a full queue (max_queue_depth=" +
      std::to_string(options.max_queue_depth) + ")";
  return rejected;
}

/// Pre-run validation failure, matching Mine()'s message prefix.
MiningResult InvalidResult(const std::string& why) {
  MiningResult invalid;
  invalid.stats.outcome = Outcome::kInvalidRequest;
  invalid.status_message = "invalid MiningRequest: " + why;
  return invalid;
}

std::uint64_t Micros(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

}  // namespace

std::string ValidateSessionOptions(const SessionOptions& options) {
  if (options.cache_bytes > 0 && options.cache_shards < 1) {
    return "cache_shards must be >= 1 when the cache is enabled";
  }
  if (options.max_queue_depth > 0 && options.max_inflight == 0) {
    return "max_queue_depth requires max_inflight > 0 (there is no queue "
           "without an execution limit)";
  }
  return "";
}

MiningSession MiningSession::Open(const UncertainDatabase& db,
                                  SessionOptions options) {
  const std::string error = ValidateSessionOptions(options);
  PFCI_CHECK_MSG(error.empty(), "invalid SessionOptions: " + error);
  auto state = std::make_unique<State>();
  state->db = &db;
  state->options = options;
  if (options.cache_bytes > 0) {
    EvalCache::Options cache_options;
    cache_options.max_bytes = options.cache_bytes;
    cache_options.shards = options.cache_shards;
    state->cache = std::make_unique<EvalCache>(cache_options);
  }
  if (options.warm_start) {
    state->warm = std::make_unique<ItemWarmStart>();
  }
  // Prepare the default-mode index up front: the session's first request
  // pays index cost at Open, not at serve time.
  state->indexes.emplace(TidSetMode::kAdaptive,
                         std::make_unique<VerticalIndex>(db, TidSetPolicy{}));
  return MiningSession(std::move(state));
}

MiningSession& MiningSession::operator=(MiningSession&& other) {
  if (this != &other) {
    if (state_ != nullptr) DrainSubmitted(*state_);
    state_ = std::move(other.state_);
  }
  return *this;
}

MiningSession::~MiningSession() {
  if (state_ != nullptr) DrainSubmitted(*state_);
}

void MiningSession::DrainSubmitted(State& state) {
  // Swap out under the lock, join outside it: a worker finishing during
  // the join must not deadlock trying to touch the thread list.
  std::vector<State::SubmitWorker> workers;
  {
    std::lock_guard<std::mutex> lock(state.submit_mutex);
    workers.swap(state.submit_workers);
  }
  for (State::SubmitWorker& worker : workers) {
    if (worker.thread.joinable()) worker.thread.join();
  }
}

const VerticalIndex& MiningSession::IndexFor(State& state,
                                             const MiningParams& params) {
  const TidSetPolicy policy = TidSetPolicyFor(params);
  std::lock_guard<std::mutex> lock(state.index_mutex);
  auto it = state.indexes.find(policy.mode);
  if (it == state.indexes.end()) {
    it = state.indexes
             .emplace(policy.mode,
                      std::make_unique<VerticalIndex>(*state.db, policy))
             .first;
  }
  return *it->second;
}

MiningResult MiningSession::Mine(const MiningRequest& request) {
  return MineStep(*state_, request, /*table_band=*/{});
}

MiningResult MiningSession::ResumeFrom(const std::string& path,
                                       const MiningRequest& request) {
  MiningRequest resuming = request;
  resuming.snapshot.resume_path = path;
  return MineStep(*state_, resuming, /*table_band=*/{});
}

bool MiningSession::Admit(State& s, double deadline_seconds) {
  if (s.options.max_inflight == 0) return true;
  std::unique_lock<std::mutex> lock(s.admission_mutex);
  if (s.inflight < s.options.max_inflight) {
    ++s.inflight;
    return true;
  }
  // At capacity: queue if there is room, else reject immediately (this
  // path takes one uncontended mutex and no waits — sub-millisecond).
  if (s.queued >= s.options.max_queue_depth) {
    ++s.rejected;
    return false;
  }
  ++s.queued;
  const auto slot_free = [&s] {
    return s.inflight < s.options.max_inflight;
  };
  bool admitted;
  if (deadline_seconds > 0.0) {
    // Deadline-aware: a request that cannot get a slot within its own
    // deadline budget is rejected rather than started doomed.
    admitted = s.admission_cv.wait_for(
        lock, std::chrono::duration<double>(deadline_seconds), slot_free);
  } else {
    s.admission_cv.wait(lock, slot_free);
    admitted = true;
  }
  --s.queued;
  if (admitted) {
    ++s.inflight;
  } else {
    ++s.rejected;
  }
  return admitted;
}

void MiningSession::Release(State& s) {
  if (s.options.max_inflight == 0) return;
  {
    std::lock_guard<std::mutex> lock(s.admission_mutex);
    --s.inflight;
  }
  s.admission_cv.notify_one();
}

MiningResult MiningSession::MineStep(State& state,
                                     const MiningRequest& request,
                                     ThresholdBand table_band) {
  if (!Admit(state, request.budget.deadline_seconds)) {
    return RejectedResult(state.options);
  }
  // The slot is released on every exit path, including a throwing
  // failpoint action unwinding through the miner under test.
  struct SlotGuard {
    State* state;
    ~SlotGuard() { Release(*state); }
  } guard{&state};
  SessionBindings bindings;
  bindings.index = &IndexFor(state, request.params);
  bindings.eval_cache = state.cache.get();
  bindings.warm_start = state.warm.get();
  bindings.table_band = table_band;
  MiningResult result = MineWithBindings(*state.db, request, bindings);
  result.stats.cache_bytes =
      state.cache != nullptr ? state.cache->bytes() : 0;
  return result;
}

void MiningSession::RunSubmitted(State* state,
                                 std::shared_ptr<internal::RunTicket> ticket,
                                 MiningRequest request, Stopwatch queued) {
  // Worker entry, before the cancel check: tests park here to make
  // cancel-before-start deterministic instead of racing thread start.
  PFCI_FAILPOINT("serve/submit_start");
  const std::uint64_t queued_micros = Micros(queued.ElapsedSeconds());
  MiningResult result;
  if (ticket->cancel.cancelled()) {
    // Cancelled before the run started: answered without touching the
    // index or caches, like an admission rejection.
    result.stats.outcome = Outcome::kCancelled;
    result.stats.truncated = true;
    result.status_message = "cancelled via RunHandle::Cancel before start";
  } else {
    request.cancel = &ticket->cancel;
    result = MineStep(*state, request, /*table_band=*/{});
  }
  result.stats.queued_micros = queued_micros;
  ticket->result = std::move(result);
  // Publish happens-before the signal via the latch's mutex; consumers
  // that observe done() may read the result without further locking.
  ticket->latch.Signal();
}

RunHandle MiningSession::Submit(const MiningRequest& request) {
  auto ticket = std::make_shared<internal::RunTicket>();
  if (request.cancel != nullptr) {
    // Error-as-data on the async path: the handle owns cancellation, and
    // silently ignoring a caller's token would leave them a token that
    // never cancels anything.
    ticket->result = InvalidResult(
        "Submit owns cancellation through RunHandle::Cancel; submit "
        "without a request-level cancel token");
    ticket->latch.Signal();
    return RunHandle(std::move(ticket));
  }
  State* state = state_.get();
  std::thread worker(&MiningSession::RunSubmitted, state, ticket, request,
                     Stopwatch());
  // Reap workers that have published their result: they are past the
  // latch signal, so joining them waits only for the thread to exit.
  std::vector<State::SubmitWorker> finished;
  {
    std::lock_guard<std::mutex> lock(state->submit_mutex);
    std::vector<State::SubmitWorker>& workers = state->submit_workers;
    const auto first_finished = std::partition(
        workers.begin(), workers.end(), [](const State::SubmitWorker& w) {
          return !w.ticket->latch.done();
        });
    std::move(first_finished, workers.end(), std::back_inserter(finished));
    workers.erase(first_finished, workers.end());
    workers.push_back({std::move(worker), ticket});
  }
  for (State::SubmitWorker& done : finished) done.thread.join();
  return RunHandle(std::move(ticket));
}

std::vector<MiningResult> MiningSession::MineBatch(
    std::span<const MiningRequest> requests) {
  State& state = *state_;
  const Stopwatch batch_clock;
  const BatchPlan plan = PlanBatch(requests);
  std::vector<MiningResult> results(requests.size());
  for (std::size_t i = 0; i < plan.invalid.size(); ++i) {
    results[plan.invalid[i]] = InvalidResult(plan.invalid_reasons[i]);
  }

  // Pin everything the batch inserts into the eval cache until the last
  // member finishes: the group leaders' tail bands are the
  // shared pass later members answer from, and LRU pressure from
  // concurrent traffic must not evict them mid-batch.
  EvalCache::PinScope pin(state.cache.get());

  // One runner per group, executing its members in ladder order; groups
  // beyond the first get their own thread so their work units interleave
  // on the shared work-stealing pool (fair-share UnitQuota keeps
  // per-request budgets scheduling-independent). The first group runs on
  // the calling thread — a single-group batch (e.g. a min_sup sweep) adds
  // no thread at all.
  const auto run_group = [&state, &batch_clock, &results,
                          &requests](const BatchGroup& group) {
    for (std::size_t position = 0; position < group.members.size();
         ++position) {
      const std::size_t index = group.members[position];
      const std::uint64_t queued_micros =
          Micros(batch_clock.ElapsedSeconds());
      MiningResult result =
          MineStep(state, requests[index], group.band);
      result.stats.queued_micros = queued_micros;
      // The leader pays for the shared tables; followers' DP reuse is
      // the batch's shared-scan dividend.
      result.stats.shared_dp_hits =
          position > 0 ? result.stats.dp_reused : 0;
      results[index] = std::move(result);
    }
  };

  std::vector<std::thread> runners;
  runners.reserve(plan.groups.size() > 0 ? plan.groups.size() - 1 : 0);
  for (std::size_t g = 1; g < plan.groups.size(); ++g) {
    runners.emplace_back(run_group, std::cref(plan.groups[g]));
  }
  if (!plan.groups.empty()) run_group(plan.groups[0]);
  for (std::thread& runner : runners) runner.join();

  // Stamp the batch shape on every member (including invalid ones): the
  // counters describe the batch around the run, so they are identical
  // across members and never merged from task partials.
  for (MiningResult& result : results) {
    result.stats.batch_size = plan.size;
    result.stats.batch_groups = plan.groups.size();
  }
  return results;
}

std::uint64_t MiningSession::cache_bytes() const {
  return state_->cache != nullptr ? state_->cache->bytes() : 0;
}

std::uint64_t MiningSession::cache_entries() const {
  return state_->cache != nullptr ? state_->cache->entries() : 0;
}

std::uint64_t MiningSession::cache_evictions() const {
  return state_->cache != nullptr ? state_->cache->evictions() : 0;
}

std::size_t MiningSession::warm_items_recorded() const {
  return state_->warm != nullptr ? state_->warm->items_recorded() : 0;
}

std::size_t MiningSession::inflight() const {
  std::lock_guard<std::mutex> lock(state_->admission_mutex);
  return state_->inflight;
}

std::uint64_t MiningSession::admission_rejected() const {
  std::lock_guard<std::mutex> lock(state_->admission_mutex);
  return state_->rejected;
}

}  // namespace pfci
