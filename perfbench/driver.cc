// Workload driver of the repository benchmark (see perfbench/README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--corrupt-digest] [--spans-out FILE]
//
// Generates the workload's database and request stream from the seed,
// computes a reference digest of a standalone cold Mine() for every
// distinct request, then drives the public API (Mine(), MiningSession::
// Open/MineBatch/Submit, RunHandle::Wait) in a closed loop for S seconds
// and checks every timed result against its reference.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: half the time untraced, half with a MemoryTraceSink on every
// request and the driver's own spans around each API call, then a replay
// of each layer's public kernels on a fixed sample of the workload's
// requests; it reports the per-layer metrics.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}. Exit status: 0 when every result matched, 1 on
// any mismatch or non-complete outcome, 2 on bad arguments.
// --corrupt-digest flips one bit of one reference digest, so the gate's
// failure path can be exercised.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/metrics.h"
#include "src/core/extension_events.h"
#include "src/core/fcp_bounds.h"
#include "src/core/fcp_exact.h"
#include "src/core/fcp_sampler.h"
#include "src/core/frequent_probability.h"
#include "src/core/mine.h"
#include "src/data/tidset.h"
#include "src/data/vertical_index.h"
#include "src/datagen/probability_assigner.h"
#include "src/harness/dataset_factory.h"
#include "src/prob/poisson_binomial.h"
#include "src/serve/mining_session.h"
#include "src/util/random.h"
#include "src/util/trace.h"

namespace perfbench {
namespace {

using pfci::AbsoluteMinSup;
using pfci::Algorithm;
using pfci::MiningRequest;
using pfci::MiningResult;
using pfci::MiningStats;
using pfci::UncertainDatabase;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
/// it starts afresh at exec, so a parent's footprint does not leak in.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::size_t Uniform(pfci::Rng& rng, std::size_t n) { return rng() % n; }

double UnitDraw(pfci::Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

template <typename T>
void Shuffle(std::vector<T>* values, pfci::Rng& rng) {
  for (std::size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[Uniform(rng, i)]);
  }
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kMushroomExplore, kQuestCold, kQuestSession };

/// One request of a stream: what varies between requests of a workload.
struct Req {
  Algorithm algorithm = Algorithm::kMpfci;
  std::size_t min_sup = 0;

  std::pair<int, std::size_t> key() const {
    return {static_cast<int>(algorithm), min_sup};
  }
};

/// One round of a session workload: a planned batch plus async singles.
struct Round {
  std::vector<Req> batch;
  std::vector<Req> singles;
};

constexpr std::size_t kQuestSessionOutstanding = 4;

struct Workload {
  Kind kind = Kind::kMushroomExplore;
  std::string name;
  UncertainDatabase db;
  std::size_t threads = 1;   ///< Request num_threads.
  std::size_t busy_threads = 1;  ///< Threads the loop keeps busy.
  pfci::SessionOptions session;  ///< kQuestSession only.
  std::vector<std::vector<Req>> blocks;  ///< Cold workloads: cycled.
  std::vector<Round> rounds;             ///< Session workload: cycled.
  std::size_t rounds_per_cycle = 1;      ///< Rounds timed as one block.
  std::vector<Req> replay_sample;        ///< Requests the replay uses.

  MiningRequest Make(const Req& req) const {
    MiningRequest request;
    request.algorithm = req.algorithm;
    request.params.min_sup = req.min_sup;
    request.params.pfct = 0.8;
    request.params.epsilon = 0.1;
    request.params.delta = 0.1;
    // The paper's checker: ApproxFCP is the only fallback (no exact
    // inclusion-exclusion shortcut), as in bench/bench_common.h.
    if (kind == Kind::kMushroomExplore) request.params.exact_event_limit = 0;
    request.execution.num_threads = threads;
    return request;
  }

  std::vector<Req> Distinct() const {
    std::map<std::pair<int, std::size_t>, Req> distinct;
    for (const auto& block : blocks) {
      for (const Req& req : block) distinct[req.key()] = req;
    }
    for (const Round& round : rounds) {
      for (const Req& req : round.batch) distinct[req.key()] = req;
      for (const Req& req : round.singles) distinct[req.key()] = req;
    }
    std::vector<Req> out;
    for (const auto& [key, req] : distinct) out.push_back(req);
    return out;
  }
};

// The quick-scale datasets of src/harness/dataset_factory.cc. Only the
// Quest probabilities follow the benchmark seed; README.md says why the
// transaction structure and the Mushroom probabilities stay fixed.
UncertainDatabase QuestDb(std::uint64_t seed) {
  pfci::GaussianAssignerParams probs;
  probs.mean = 0.8;
  probs.spread = 0.1;
  probs.seed = 0x5eed0000ULL + seed;
  return pfci::AssignGaussianProbabilities(
      pfci::MakeExactQuest(pfci::BenchScale::kQuick), probs);
}

/// `count` thresholds stratified over [low, high): one per equal stratum,
/// each jittered within the first quarter of its stratum.
std::vector<std::size_t> StratifiedThresholds(std::size_t n, double low,
                                              double high, std::size_t count,
                                              pfci::Rng& rng) {
  const double stride = (high - low) / static_cast<double>(count);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    const double rel = low + stride * (static_cast<double>(i) +
                                       0.25 * UnitDraw(rng));
    out.push_back(AbsoluteMinSup(n, rel));
  }
  return out;
}

constexpr std::size_t kBlockCycle = 64;

// mushroom-explore: blocks of 24 cold MPFCI requests, 18 light (one per
// stratum of [0.15, 0.30]) and 6 heavy (0.14 five times, 0.135 once), in a
// seeded order per block. p50 falls inside the light class and p90 inside
// the 0.14 group, away from both of its edges.
void BuildMushroomExplore(Workload* w, pfci::Rng& rng) {
  w->db = pfci::MakeUncertainMushroom(pfci::BenchScale::kQuick);
  w->threads = 4;
  w->busy_threads = 4;
  const std::size_t n = w->db.size();
  const std::vector<std::size_t> light =
      StratifiedThresholds(n, 0.15, 0.30, 18, rng);
  std::vector<Req> block;
  for (std::size_t min_sup : light) {
    block.push_back({Algorithm::kMpfci, min_sup});
  }
  for (int i = 0; i < 5; ++i) {
    block.push_back({Algorithm::kMpfci, AbsoluteMinSup(n, 0.14)});
  }
  block.push_back({Algorithm::kMpfci, AbsoluteMinSup(n, 0.135)});
  for (std::size_t b = 0; b < kBlockCycle; ++b) {
    Shuffle(&block, rng);
    w->blocks.push_back(block);
  }
  w->replay_sample = {{Algorithm::kMpfci, light.front()},
                      {Algorithm::kMpfci, AbsoluteMinSup(n, 0.14)}};
}

// quest-cold: blocks of 24 single-thread cold requests alternating PFI and
// MPFCI (default exact checker), each over 12 thresholds stratified in
// [0.15, 0.20], in a seeded order per block.
void BuildQuestCold(Workload* w, pfci::Rng& rng, std::uint64_t seed) {
  w->db = QuestDb(seed);
  w->threads = 1;
  w->busy_threads = 1;
  const std::vector<std::size_t> grid =
      StratifiedThresholds(w->db.size(), 0.15, 0.20, 12, rng);
  for (std::size_t b = 0; b < kBlockCycle; ++b) {
    std::vector<std::size_t> pfi = grid;
    std::vector<std::size_t> mpfci = grid;
    Shuffle(&pfi, rng);
    Shuffle(&mpfci, rng);
    std::vector<Req> block;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      block.push_back({Algorithm::kPfi, pfi[i]});
      block.push_back({Algorithm::kMpfci, mpfci[i]});
    }
    w->blocks.push_back(block);
  }
  w->replay_sample = {{Algorithm::kPfi, grid.front()},
                      {Algorithm::kMpfci, grid.front()}};
}

// quest-session: rounds over a 16-point threshold grid (step 0.005 from
// 0.15). Each round batches a 6-point band (MPFCI+PFI, descending) and then
// serves 12 singles through Submit: 9 inside the band just written or the
// one before it, 3 outside both. Band starts walk the 11 positions in steps
// of 3, so consecutive bands share half their points and every cycle sees
// the same transitions; the seed picks where the walk starts.
void BuildQuestSession(Workload* w, pfci::Rng& rng, std::uint64_t seed) {
  w->db = QuestDb(seed);
  w->threads = 2;
  w->busy_threads = 4;
  w->session.max_inflight = 2;
  w->session.max_queue_depth = 8;
  // Measured (README.md): one band's tables take 0.9 MiB (highest band) to
  // 2.0 MiB (lowest), all bands together 2.1-2.2 MiB. The budget holds the
  // seven higher bands but neither the four lowest nor the whole stream.
  w->session.cache_bytes = std::size_t{3} << 19;
  const std::size_t n = w->db.size();
  std::vector<std::size_t> grid;
  for (std::size_t i = 0; i < 16; ++i) {
    grid.push_back(AbsoluteMinSup(n, 0.15 + 0.005 * static_cast<double>(i)));
  }
  constexpr std::size_t kBand = 6;
  const std::size_t starts = grid.size() - kBand + 1;
  std::size_t start = Uniform(rng, starts);
  std::size_t previous = start;
  w->rounds_per_cycle = starts;
  while (w->rounds.size() < 6 * starts) {
    Round round;
    for (std::size_t i = kBand; i-- > 0;) {
      for (Algorithm algorithm : {Algorithm::kMpfci, Algorithm::kPfi}) {
        round.batch.push_back({algorithm, grid[start + i]});
      }
    }
    std::vector<std::size_t> recent, outside;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const bool in_band = i >= start && i < start + kBand;
      const bool in_previous = i >= previous && i < previous + kBand;
      (in_band || in_previous ? recent : outside).push_back(i);
    }
    for (std::size_t s = 0; s < 12; ++s) {
      const std::vector<std::size_t>& pool = s < 9 ? recent : outside;
      const Algorithm algorithm =
          s % 2 == 0 ? Algorithm::kMpfci : Algorithm::kPfi;
      const std::size_t point = pool[Uniform(rng, pool.size())];
      round.singles.push_back({algorithm, grid[point]});
    }
    Shuffle(&round.singles, rng);
    w->rounds.push_back(round);
    previous = start;
    start = (start + 3) % starts;
  }
  w->replay_sample = {{Algorithm::kPfi, grid.front()},
                      {Algorithm::kMpfci, grid.front()}};
}

bool BuildWorkload(const std::string& name, std::uint64_t seed, Workload* w) {
  pfci::Rng rng(0x9e3779b97f4a7c15ULL ^ (seed * 0xbf58476d1ce4e5b9ULL));
  w->name = name;
  if (name == "mushroom-explore") {
    w->kind = Kind::kMushroomExplore;
    BuildMushroomExplore(w, rng);
  } else if (name == "quest-cold") {
    w->kind = Kind::kQuestCold;
    BuildQuestCold(w, rng, seed);
  } else if (name == "quest-session") {
    w->kind = Kind::kQuestSession;
    BuildQuestSession(w, rng, seed);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans the driver records around its own calls into the library.

struct Span {
  const char* name = "";
  const char* parent = "";  ///< Enclosing span of the same id; "" if none.
  std::uint64_t id = 0;     ///< Request (or batch/open) identifier, shared
                            ///< by every span of that request.
  double start = 0.0;       ///< Seconds since the loop started.
  double end = 0.0;
};

/// Spans of one loop, kept in memory; Now() reads the clock whether or not
/// spans are kept, so the loop times its calls through it either way.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Reset() { origin_ = Clock::now(); }
  double Now() const { return Since(origin_); }
  void Add(const char* name, const char* parent, std::uint64_t id,
           double start, double end) {
    if (enabled_) spans_.push_back({name, parent, id, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
    }
    return out;
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The timed loop.

/// One completed request of the loop.
struct Record {
  Req req;
  double latency_s = 0.0;  ///< Client-side wall-clock of the request.
  bool single = true;      ///< False for MineBatch members.
  bool ok = false;
  MiningStats stats;
  double candidate_s = 0.0, search_s = 0.0, merge_s = 0.0;  ///< Trace spans.
};

struct LoopResult {
  std::vector<Record> records;
  std::vector<double> block_rps;  ///< Requests per second of each block/round.
  std::vector<double> leader_s, follower_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t cache_bytes = 0, cache_evictions = 0;

  std::size_t failed() const {
    std::size_t count = 0;
    for (const Record& r : records) count += r.ok ? 0 : 1;
    return count;
  }
};

using Digests = std::map<std::pair<int, std::size_t>, std::uint64_t>;

class Loop {
 public:
  Loop(const Workload& w, const Digests& refs, SpanLog* spans)
      : w_(w), refs_(refs), spans_(spans) {}

  LoopResult Run(double seconds) {
    LoopResult out;
    spans_->Reset();
    const double cpu0 = CpuSeconds();
    const Clock::time_point start = Clock::now();
    if (w_.kind == Kind::kQuestSession) {
      RunSession(seconds, start, &out);
    } else {
      // Whole blocks, so every run sees the same request mix.
      for (std::size_t b = 0; Since(start) < seconds; ++b) {
        const Clock::time_point block_start = Clock::now();
        const std::vector<Req>& block = w_.blocks[b % w_.blocks.size()];
        for (const Req& req : block) out.records.push_back(RunCold(req));
        out.block_rps.push_back(static_cast<double>(block.size()) /
                                Since(block_start));
      }
    }
    out.wall_s = Since(start);
    out.cpu_s = CpuSeconds() - cpu0;
    return out;
  }

 private:
  std::unique_ptr<pfci::MemoryTraceSink> Attach(MiningRequest* request) {
    if (!spans_->enabled()) return nullptr;
    auto sink = std::make_unique<pfci::MemoryTraceSink>();
    request->trace = sink.get();
    return sink;
  }

  void Finish(const MiningResult& result,
              const pfci::MemoryTraceSink* sink, Record* record) {
    record->ok = refs_.count(record->req.key()) != 0 &&
                 Matches(result, refs_.at(record->req.key()));
    record->stats = result.stats;
    if (sink == nullptr) return;
    for (const pfci::TraceEvent& event : sink->TakeSnapshot()) {
      if (event.kind != pfci::TraceEvent::Kind::kSpan) continue;
      if (event.name == "candidate_build") record->candidate_s += event.seconds;
      if (event.name == "dfs" || event.name == "search") {
        record->search_s += event.seconds;
      }
      if (event.name == "merge") record->merge_s += event.seconds;
    }
  }

  Record RunCold(const Req& req) {
    Record record;
    record.req = req;
    MiningRequest request = w_.Make(req);
    auto sink = Attach(&request);
    const double t0 = spans_->Now();
    const MiningResult result = pfci::Mine(w_.db, request);
    const double t1 = spans_->Now();
    record.latency_s = t1 - t0;
    spans_->Add("Mine", "", ++next_id_, t0, t1);
    Finish(result, sink.get(), &record);
    return record;
  }

  void RunSession(double seconds, Clock::time_point start, LoopResult* out) {
    double t0 = spans_->Now();
    pfci::MiningSession session = pfci::MiningSession::Open(w_.db, w_.session);
    spans_->Add("Open", "", ++next_id_, t0, spans_->Now());
    const std::uint64_t evictions0 = session.cache_evictions();

    // Whole cycles of band starts, so every run sees the same transitions.
    Clock::time_point cycle_start = Clock::now();
    std::size_t cycle_requests = 0;
    for (std::size_t r = 0;
         r % w_.rounds_per_cycle != 0 || Since(start) < seconds; ++r) {
      const Round& round = w_.rounds[r % w_.rounds.size()];

      // One planned batch over the round's band.
      std::vector<MiningRequest> requests;
      std::vector<std::unique_ptr<pfci::MemoryTraceSink>> sinks;
      for (const Req& req : round.batch) {
        requests.push_back(w_.Make(req));
        sinks.push_back(Attach(&requests.back()));
      }
      t0 = spans_->Now();
      const std::vector<MiningResult> results = session.MineBatch(requests);
      const double t1 = spans_->Now();
      spans_->Add("MineBatch", "", ++next_id_, t0, t1);
      std::map<int, std::size_t> leader;  // algorithm -> lowest min_sup
      for (const Req& req : round.batch) {
        const int a = static_cast<int>(req.algorithm);
        if (!leader.count(a) || req.min_sup < leader[a]) {
          leader[a] = req.min_sup;
        }
      }
      for (std::size_t i = 0; i < results.size(); ++i) {
        Record record;
        record.req = round.batch[i];
        record.single = false;
        record.latency_s = t1 - t0;
        Finish(results[i], sinks[i].get(), &record);
        const bool is_leader = leader[static_cast<int>(
                                   record.req.algorithm)] == record.req.min_sup;
        (is_leader ? out->leader_s : out->follower_s)
            .push_back(results[i].stats.seconds);
        out->records.push_back(std::move(record));
      }

      // Singles through Submit, kQuestSessionOutstanding in flight.
      struct Pending {
        pfci::RunHandle handle;
        Req req;
        double t0;
        std::uint64_t id;
        std::unique_ptr<pfci::MemoryTraceSink> sink;
      };
      std::deque<Pending> pending;
      std::size_t next = 0;
      while (next < round.singles.size() || !pending.empty()) {
        while (next < round.singles.size() &&
               pending.size() < kQuestSessionOutstanding) {
          Pending p;
          p.req = round.singles[next++];
          MiningRequest request = w_.Make(p.req);
          p.sink = Attach(&request);
          p.id = ++next_id_;
          p.t0 = spans_->Now();
          p.handle = session.Submit(request);
          spans_->Add("Submit", "request", p.id, p.t0, spans_->Now());
          pending.push_back(std::move(p));
        }
        Pending p = std::move(pending.front());
        pending.pop_front();
        const double wait_t0 = spans_->Now();
        const MiningResult& result = p.handle.Wait();
        Record record;
        record.req = p.req;
        const double t1 = spans_->Now();
        record.latency_s = t1 - p.t0;
        spans_->Add("Wait", "request", p.id, wait_t0, t1);
        spans_->Add("request", "", p.id, p.t0, t1);
        Finish(result, p.sink.get(), &record);
        out->records.push_back(std::move(record));
      }
      cycle_requests += round.batch.size() + round.singles.size();
      if ((r + 1) % w_.rounds_per_cycle == 0) {
        out->block_rps.push_back(static_cast<double>(cycle_requests) /
                                 Since(cycle_start));
        cycle_requests = 0;
        cycle_start = Clock::now();
      }
    }
    out->cache_bytes = session.cache_bytes();
    out->cache_evictions = session.cache_evictions() - evictions0;
  }

  const Workload& w_;
  const Digests& refs_;
  SpanLog* spans_;
  std::uint64_t next_id_ = 0;
};

// ---------------------------------------------------------------------------
// Layer replay: each layer's public kernels, timed on the workload's own
// inputs (the itemsets a sampled request decides). Per-call costs are
// medians over those itemsets.

struct Replay {
  double index_build_ms = 0.0;
  double intersect_ns = 0.0;
  double dp_ns_per_call = 0.0;
  double dp_ns_per_cell = 0.0;
  double bounds_ns = 0.0;
  double ie_ns = 0.0;
  double sample_ns = 0.0;
};

template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(Since(start));
  }
  return Percentile(times, 0.5);
}

volatile double replay_sink = 0.0;  // Keeps replayed results observable.

Replay RunReplay(const Workload& w, const std::map<std::pair<int, std::size_t>,
                                                  MiningResult>& reference) {
  constexpr std::size_t kItemsets = 24;
  constexpr std::size_t kSampled = 2;
  constexpr std::size_t kExtensions = 4;
  constexpr std::size_t kMaxIeEvents = 10;
  std::vector<double> index_ms, intersect, dp_call, dp_cell, bounds, ie;
  double sample_ns = 0.0, samples = 0.0;
  for (const Req& req : w.replay_sample) {
    const MiningRequest request = w.Make(req);
    const MiningResult& result = reference.at(req.key());
    const pfci::TidSetPolicy policy = pfci::TidSetPolicyFor(request.params);
    index_ms.push_back(1e3 * MedianSeconds(3, [&] {
      pfci::VerticalIndex index(w.db, policy);
      replay_sink = replay_sink + static_cast<double>(index.all_tids().size());
    }));
    const pfci::VerticalIndex index(w.db, policy);
    const pfci::FrequentProbability freq(index, req.min_sup);
    std::vector<double> scratch;
    const std::size_t step =
        std::max<std::size_t>(1, result.itemsets.size() / kItemsets);
    for (std::size_t e = 0; e < result.itemsets.size(); e += step) {
      const pfci::Itemset& x = result.itemsets[e].items;
      // Tid-set algebra: the chain of intersections that derives Tids(X).
      if (x.size() >= 2) {
        const double s = MedianSeconds(9, [&] {
          pfci::TidSet tids = index.TidsOfItem(x[0]);
          for (std::size_t i = 1; i < x.size(); ++i) {
            tids = pfci::Intersect(tids, index.TidsOfItem(x[i]));
          }
          replay_sink = replay_sink + static_cast<double>(tids.size());
        });
        intersect.push_back(1e9 * s / static_cast<double>(x.size() - 1));
      }
      // The Poisson-binomial DP at the request's threshold, on X and on the
      // extensions X+e the search evaluates next (count >= min_sup).
      const pfci::TidSet tids = index.TidsOf(x);
      std::vector<pfci::TidSet> dp_inputs = {tids};
      for (pfci::Item item : index.occurring_items()) {
        if (dp_inputs.size() > kExtensions || x.Contains(item)) continue;
        pfci::TidSet extended = pfci::Intersect(tids, index.TidsOfItem(item));
        if (extended.size() >= req.min_sup) dp_inputs.push_back(extended);
      }
      for (const pfci::TidSet& input : dp_inputs) {
        const std::vector<double> probs = index.ProbsOf(input);
        const double dp_s = MedianSeconds(9, [&] {
          replay_sink = replay_sink + pfci::PoissonBinomialTailAtLeast(
                                          probs.data(), probs.size(),
                                          req.min_sup, &scratch);
        });
        dp_call.push_back(1e9 * dp_s);
        dp_cell.push_back(1e9 * dp_s / (static_cast<double>(probs.size()) *
                                  static_cast<double>(req.min_sup)));
      }
    }
    if (req.algorithm == Algorithm::kPfi) continue;
    // Closedness: bounds, inclusion-exclusion and the sampler, on the
    // decided itemsets that have active extension events.
    std::size_t with_events = 0;
    for (const pfci::PfciEntry& entry : result.itemsets) {
      if (with_events == kItemsets) break;
      const pfci::TidSet tids = index.TidsOf(entry.items);
      const double pr_f = freq.PrF(tids);
      const pfci::ExtensionEventSet events(index, freq, entry.items, tids);
      if (events.size() == 0) continue;
      ++with_events;
      bounds.push_back(1e9 * MedianSeconds(5, [&] {
        replay_sink = replay_sink + pfci::ComputeFcpBounds(pr_f, events).lower;
      }));
      if (events.size() <= kMaxIeEvents) {
        ie.push_back(1e9 * MedianSeconds(3, [&] {
          replay_sink = replay_sink +
                        pfci::ExactFcpByInclusionExclusion(pr_f, events);
        }));
      }
      if (with_events <= kSampled) {
        pfci::Rng rng(request.params.seed);
        const Clock::time_point start = Clock::now();
        const pfci::ApproxFcpResult approx = pfci::ApproxFcp(
            pr_f, events, request.params.epsilon, request.params.delta, rng);
        sample_ns += 1e9 * Since(start);
        samples += static_cast<double>(approx.samples);
      }
    }
  }
  Replay out;
  out.index_build_ms = Percentile(index_ms, 0.5);
  out.intersect_ns = Percentile(intersect, 0.5);
  out.dp_ns_per_call = Percentile(dp_call, 0.5);
  out.dp_ns_per_cell = Percentile(dp_cell, 0.5);
  out.bounds_ns = Percentile(bounds, 0.5);
  out.ie_ns = Percentile(ie, 0.5);
  out.sample_ns = samples > 0 ? sample_ns / samples : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit});
    std::printf("  %-28s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buffer;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::vector<double> Latencies(const LoopResult& loop) {
  std::vector<double> ms;
  for (const Record& r : loop.records) {
    if (r.single) ms.push_back(1e3 * r.latency_s);
  }
  return ms;
}

/// Median over the loop's blocks (rounds) of requests per second: every
/// block carries the same request mix, and the median keeps a burst of
/// outside load from moving the figure.
double Throughput(const LoopResult& loop) {
  return Percentile(loop.block_rps, 0.5);
}

void ReportEndToEnd(const LoopResult& loop, double setup_s,
                    std::size_t setup_reps, Metrics* m) {
  const std::vector<double> ms = Latencies(loop);
  const std::size_t n = ms.size();
  char note[128];
  std::snprintf(note, sizeof(note), "(median of %zu set-ups)", setup_reps);
  m->Add("setup_s", setup_s, "s", note);
  std::snprintf(note, sizeof(note),
                "(median of %zu blocks; %zu requests in %.2f s)",
                loop.block_rps.size(), loop.records.size(), loop.wall_s);
  m->Add("throughput_rps", Throughput(loop), "1/s", note);
  std::snprintf(note, sizeof(note), "(n=%zu)", n);
  m->Add("latency_p50_ms", Percentile(ms, 0.5), "ms", note);
  std::snprintf(note, sizeof(note), "(n=%zu, %zu beyond%s)", n,
                SamplesBeyond(n, 0.9),
                SamplesBeyond(n, 0.9) < 10 ? "; fewer than 10" : "");
  m->Add("latency_p90_ms", Percentile(ms, 0.9), "ms", note);
  m->Add("ok_ratio",
         1.0 - FailedRatio(loop.failed(), loop.records.size()), "ratio",
         "(1 - failed_ratio)");
  m->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void ReportPerLayer(const Workload& w, const LoopResult& plain,
                    const LoopResult& traced, const SpanLog& spans,
                    const Replay& replay, Metrics* m) {
  const std::vector<Record>& rs = traced.records;
  const double count = static_cast<double>(rs.size());
  double intersections = 0, dp_runs = 0, samples = 0, chernoff = 0,
         nodes = 0, bounds = 0, exact = 0, sampled = 0, hits = 0,
         misses = 0, dp_reused = 0, shared_dp_hits = 0, candidate_s = 0,
         search_s = 0, merge_s = 0, capacity_s = 0, dp_est = 0, sampler_est = 0,
         layer_est = 0, run_s = 0, singles = 0, span_cpu_s = 0;
  std::vector<double> outside_run_ms;
  std::vector<double> queue_ms;
  for (const Record& r : rs) {
    const MiningStats& s = r.stats;
    intersections += s.intersections;
    dp_runs += s.dp_runs;
    samples += s.total_samples;
    chernoff += s.pruned_by_chernoff;
    nodes += s.nodes_visited;
    bounds += s.decided_by_bounds;
    exact += s.exact_fcp_computations;
    sampled += s.sampled_fcp_computations;
    hits += s.cache_hits;
    misses += s.cache_misses;
    dp_reused += s.dp_reused;
    shared_dp_hits += s.shared_dp_hits;
    candidate_s += r.candidate_s;
    search_s += r.search_s;
    span_cpu_s += (r.candidate_s + r.search_s) * static_cast<double>(w.threads);
    merge_s += r.merge_s;
    capacity_s += s.seconds * static_cast<double>(w.threads);
    const double dp = 1e-9 * s.dp_runs * replay.dp_ns_per_call;
    const double sampler = 1e-9 * s.total_samples * replay.sample_ns;
    dp_est += dp;
    sampler_est += sampler;
    layer_est += dp + sampler +
                 1e-9 * (s.intersections * replay.intersect_ns +
                         (s.decided_by_bounds + s.exact_fcp_computations +
                          s.sampled_fcp_computations) *
                             replay.bounds_ns +
                         s.exact_fcp_computations * replay.ie_ns);
    if (r.single && w.kind == Kind::kQuestSession) {
      queue_ms.push_back(1e-3 * static_cast<double>(s.queued_micros));
      outside_run_ms.push_back(1e3 * (r.latency_s - s.seconds));
      run_s += s.seconds;
      singles += 1;
    }
  }
  const bool session = w.kind == Kind::kQuestSession;
  auto mean = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
  auto mean_ms = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : 1e3 * sum / static_cast<double>(v.size());
  };

  m->Add("data.index_build_ms", replay.index_build_ms, "ms", "(replay)");
  m->Add("data.intersections", mean(intersections, count), "count",
         "(per request)");
  m->Add("data.intersect_ns", replay.intersect_ns, "ns", "(replay, per call)");
  m->Add("prob.dp_runs", mean(dp_runs, count), "count", "(per request)");
  m->Add("prob.dp_ns_per_cell", replay.dp_ns_per_cell, "ns", "(replay)");
  m->Add("prob.dp_est_share", Ratio(dp_est, capacity_s), "ratio",
         "(dp_runs x replayed ns / run time x threads)");
  m->Add("prob.samples", mean(samples, count), "count", "(per request)");
  m->Add("prob.sample_ns", replay.sample_ns, "ns", "(replay, per sample)");
  m->Add("prob.sampler_est_share", Ratio(sampler_est, capacity_s), "ratio",
         "(samples x replayed ns / run time x threads)");
  m->Add("prob.chernoff_pruned", mean(chernoff, count), "count",
         "(per request)");
  m->Add("core.nodes_visited", mean(nodes, count), "count", "(per request)");
  m->Add("core.bounds_decided_ratio", Ratio(bounds, bounds + exact + sampled),
         "ratio");
  m->Add("core.bounds_ns", replay.bounds_ns, "ns", "(replay, per call)");
  m->Add("core.exact_fcp", mean(exact, count), "count", "(per request)");
  m->Add("core.ie_ns", replay.ie_ns, "ns", "(replay, per call)");
  m->Add("core.sampled_fcp", mean(sampled, count), "count", "(per request)");
  m->Add("core.candidate_ms", 1e3 * mean(candidate_s, count), "ms",
         "(trace span, per request)");
  m->Add("core.dfs_ms", 1e3 * mean(search_s, count), "ms",
         "(trace span, per request)");
  m->Add("core.merge_ms", 1e3 * mean(merge_s, count), "ms",
         "(trace span, per request)");
  m->Add("core.layer_coverage", Ratio(layer_est, span_cpu_s), "ratio",
         "(estimated layer time / candidate+dfs spans x threads)");
  m->Add("core.cpu_util",
         Ratio(traced.cpu_s,
               traced.wall_s * static_cast<double>(w.busy_threads)),
         "ratio", "(process CPU / wall x busy threads)");
  m->Add("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  m->Add("cache.dp_reused", mean(dp_reused, count), "count", "(per request)");
  m->Add("cache.bytes", static_cast<double>(traced.cache_bytes), "bytes",
         "(at end of loop)");
  m->Add("cache.evictions", static_cast<double>(traced.cache_evictions),
         "count", "(during traced loop)");
  m->Add("serve.open_ms", 1e3 * Percentile(spans.Durations("Open"), 0.5),
         "ms", "(Open span)");
  m->Add("serve.queue_wait_ms_p50", session ? Percentile(queue_ms, 0.5) : 0.0,
         "ms", "(Submit singles)");
  m->Add("serve.queue_wait_ms_p90", session ? Percentile(queue_ms, 0.9) : 0.0,
         "ms", "(Submit singles)");
  m->Add("serve.outside_run_ms_p90",
         session ? Percentile(outside_run_ms, 0.9) : 0.0, "ms",
         "(Submit-to-Wait minus run time, singles)");
  m->Add("serve.run_ms", 1e3 * mean(run_s, singles), "ms", "(Submit singles)");
  m->Add("serve.leader_ms", mean_ms(traced.leader_s), "ms");
  m->Add("serve.follower_ms", mean_ms(traced.follower_s), "ms");
  m->Add("serve.shared_dp_hits", session ? mean(shared_dp_hits, count) : 0.0,
         "count", "(per request)");
  m->Add("serve.batch_ms_p50",
         1e3 * Percentile(spans.Durations("MineBatch"), 0.5), "ms",
         "(MineBatch spans)");
  m->Add("util.trace_overhead_ratio",
         Ratio(Throughput(traced), Throughput(plain)),
         "ratio", "(traced / untraced throughput)");
}

void WriteSpans(const std::string& path, const SpanLog& log) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : log.spans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"parent\":\"%s\",\"id\":%llu,"
                 "\"start\":%.9f,\"end\":%.9f}\n",
                 s.name, s.parent, static_cast<unsigned long long>(s.id),
                 s.start, s.end);
  }
  std::fclose(out);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool corrupt_digest = false;
  std::string spans_out;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-digest") {
      o->corrupt_digest = true;
    } else if (arg == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]);
    } else if (arg == "--spans-out" && has_value) {
      o->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 &&
         (o->trace == 0 || o->trace == 1);
}

int Main(int argc, char** argv) {
  Options options;
  Workload w;
  if (!ParseOptions(argc, argv, &options) ||
      !BuildWorkload(options.workload, options.seed, &w)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "mushroom-explore|quest-cold|quest-session --seed N "
                 "--seconds S --trace 0|1 [--corrupt-digest] "
                 "[--spans-out FILE]\n");
    return 2;
  }

  // Set-up, repeated: generate the database (and open the session with its
  // index, or build one index for the cold workloads). Median reported.
  constexpr std::size_t kSetupReps = 11;
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const Clock::time_point start = Clock::now();
    Workload fresh;
    BuildWorkload(options.workload, options.seed, &fresh);
    if (fresh.kind == Kind::kQuestSession) {
      pfci::MiningSession session =
          pfci::MiningSession::Open(fresh.db, fresh.session);
      replay_sink = replay_sink + static_cast<double>(session.cache_bytes());
    } else {
      pfci::VerticalIndex index(fresh.db);
      replay_sink = replay_sink + static_cast<double>(index.all_tids().size());
    }
    setup.push_back(Since(start));
  }

  // Reference digests: one standalone cold Mine() per distinct request,
  // outside set-up and outside the timed loop.
  std::map<std::pair<int, std::size_t>, MiningResult> reference;
  Digests refs;
  for (const Req& req : w.Distinct()) {
    MiningRequest request = w.Make(req);
    request.execution.num_threads = 4;  // Results are thread-count invariant.
    MiningResult result = pfci::Mine(w.db, request);
    if (!result.ok()) {
      std::fprintf(stderr, "reference run failed: %s min_sup=%zu: %s\n",
                   pfci::AlgorithmName(req.algorithm), req.min_sup,
                   result.status_message.c_str());
      return 1;
    }
    refs[req.key()] = Digest(result);
    reference[req.key()] = std::move(result);
  }
  if (options.corrupt_digest) refs.begin()->second ^= 1;
  std::printf("workload %s seed %llu: %zu transactions, %zu distinct "
              "requests\n",
              w.name.c_str(), static_cast<unsigned long long>(options.seed),
              w.db.size(), refs.size());

  Metrics metrics;
  std::size_t attempted = 0, failed = 0;
  if (options.trace == 0) {
    SpanLog off(false);
    const LoopResult loop = Loop(w, refs, &off).Run(options.seconds);
    attempted = loop.records.size();
    failed = loop.failed();
    ReportEndToEnd(loop, Percentile(setup, 0.5), kSetupReps, &metrics);
  } else {
    SpanLog off(false), on(true);
    const LoopResult plain = Loop(w, refs, &off).Run(options.seconds / 2);
    const LoopResult traced = Loop(w, refs, &on).Run(options.seconds / 2);
    attempted = plain.records.size() + traced.records.size();
    failed = plain.failed() + traced.failed();
    const Replay replay = RunReplay(w, reference);
    ReportPerLayer(w, plain, traced, on, replay, &metrics);
    if (!options.spans_out.empty()) WriteSpans(options.spans_out, on);
  }
  if (failed != 0) {
    std::fprintf(stderr, "%zu of %zu results were not complete or differed "
                 "from their reference\n", failed, attempted);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.Json().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
