#include "serving.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "feat/featurizer.h"
#include "tasq/what_if.h"

#if TASQBENCH_COUNT_ALLOCATIONS
#include "alloc_counter.h"
#endif

namespace tasqbench {

namespace {

using tasq::ModelKind;
using tasq::Result;
using tasq::ScoreRequest;
using tasq::WhatIfReport;

// Most warm-up requests outstanding at once, so the fill never deepens
// the queue past what the timed phases can see.
constexpr size_t kFillWindow = 8;
// Requests the traced replay times layer by layer.
constexpr size_t kReplayRequests = 3000;
// Most runs of one ladder rung (see MaxRateAtSlo).
constexpr int kStepAttempts = 3;

uint64_t Allocations() {
#if TASQBENCH_COUNT_ALLOCATIONS
  return tasq_test::AllocationCount();
#else
  return 0;
#endif
}

size_t CacheCapacity() { return tasq::PccServerOptions{}.cache_capacity; }

// Digest of a direct BuildWhatIfReport of `request`; 0 when the direct
// path fails, which no served report can match.
uint64_t DirectDigest(const tasq::Tasq& tasq, const ScoreRequest& request) {
  Result<WhatIfReport> report =
      tasq::BuildWhatIfReport(tasq, request.graph, request.model,
                              request.reference_tokens, request.grid_points);
  return report.ok() ? ReportDigest(report.value()) : 0;
}

tasq::ReportCacheKey KeyOf(const ScoreRequest& request, uint64_t fingerprint) {
  tasq::ReportCacheKey key;
  key.fingerprint = fingerprint;
  key.model = request.model;
  key.reference_tokens = request.reference_tokens;
  key.grid_points = request.grid_points;
  return key;
}

const ScoreRequest& RequestOf(const ServingState& state, const Item& item) {
  return item.spec.pool_index >= 0
             ? state.pool[static_cast<size_t>(item.spec.pool_index)]
             : item.request;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void Judge(uint64_t expected, const WhatIfReport& served, Tally& tally) {
  if (ReportDigest(served) != expected) {
    ++tally.mismatched;
  } else {
    ++tally.succeeded;
  }
}

void Judge(uint64_t expected, const Result<WhatIfReport>& served,
           Tally& tally) {
  if (served.ok()) {
    Judge(expected, served.value(), tally);
  } else {
    ++tally.failed;
  }
}

}  // namespace

ServingConfig ConfigFor(Workload workload) {
  ServingConfig config;
  if (workload == Workload::kRecurring) {
    config.base_rate = 4000.0;
    config.first_rung = 1000.0;
  } else {
    config.base_rate = 400.0;
    config.first_rung = 100.0;
  }
  return config;
}

void Tally::Add(const Tally& other) {
  sent += other.sent;
  succeeded += other.succeeded;
  failed += other.failed;
  mismatched += other.mismatched;
}

std::unique_ptr<ServingState> MakeServingState(
    Workload workload, uint64_t seed, std::unique_ptr<tasq::Tasq> tasq) {
  auto state = std::make_unique<ServingState>();
  state->tasq = std::move(tasq);
  state->stream = std::make_unique<RequestStream>(workload, seed);
  for (const RequestSpec& spec : state->stream->pool()) {
    state->pool.push_back(MakeRequest(state->stream->generator(), spec));
  }
  state->server = std::make_unique<tasq::PccServer>(*state->tasq);
  return state;
}

void FillCache(ServingState& state) {
  size_t warm = CacheCapacity() - std::min(CacheCapacity(), state.pool.size());
  for (const RequestSpec& spec : state.stream->WarmupSpecs(warm)) {
    state.warmup.push_back(MakeRequest(state.stream->generator(), spec));
  }
  size_t total = state.warmup.size() + state.pool.size();
  state.warmup_served.assign(total, 0);
  state.warmup_ok.assign(total, 0);
  std::deque<std::pair<size_t, std::future<Result<WhatIfReport>>>> inflight;
  auto finish_oldest = [&]() {
    Result<WhatIfReport> served = inflight.front().second.get();
    size_t index = inflight.front().first;
    state.warmup_ok[index] = served.ok();
    if (served.ok()) state.warmup_served[index] = ReportDigest(served.value());
    inflight.pop_front();
  };
  for (size_t i = 0; i < total; ++i) {
    const ScoreRequest& request = i < state.warmup.size()
                                      ? state.warmup[i]
                                      : state.pool[i - state.warmup.size()];
    inflight.emplace_back(i, state.server->Submit(request));
    if (inflight.size() >= kFillWindow) finish_oldest();
  }
  while (!inflight.empty()) finish_oldest();
}

void VerifyWarmup(ServingState& state) {
  state.pool_expected.clear();
  for (const ScoreRequest& request : state.pool) {
    state.pool_expected.push_back(DirectDigest(*state.tasq, request));
  }
  for (size_t i = 0; i < state.warmup_served.size(); ++i) {
    uint64_t expected =
        i < state.warmup.size()
            ? DirectDigest(*state.tasq, state.warmup[i])
            : state.pool_expected[i - state.warmup.size()];
    ++state.tally.sent;
    if (!state.warmup_ok[i]) {
      ++state.tally.failed;
    } else if (state.warmup_served[i] != expected) {
      ++state.tally.mismatched;
    } else {
      ++state.tally.succeeded;
    }
  }
  state.warmup.clear();
  state.warmup.shrink_to_fit();
  state.warmup_served.clear();
  state.warmup_ok.clear();
}

std::vector<Item> PrepareItems(ServingState& state, size_t count) {
  std::vector<Item> items(count);
  for (Item& item : items) {
    item.spec = state.stream->Next();
    if (item.spec.pool_index >= 0) {
      item.expected =
          state.pool_expected[static_cast<size_t>(item.spec.pool_index)];
    } else {
      item.request = MakeRequest(state.stream->generator(), item.spec);
      item.expected = DirectDigest(*state.tasq, item.request);
    }
  }
  return items;
}

bool PhaseResult::BacklogGrew() const {
  // Outstanding requests fluctuate by about a batch per worker; growth
  // beyond that plus 1% of the submitted requests means arrivals outpace
  // service. Cache hits never wait, so they do not widen the slack.
  double slack = 64.0 + 0.01 * static_cast<double>(tally.sent - hits);
  return static_cast<double>(backlog_end - backlog_quarter) > slack;
}

bool PhaseResult::Meets() const {
  return tally.bad() == 0 && tally.succeeded == tally.sent &&
         p99_us() <= kP99LimitUs && late_p90_us() <= kLateP90LimitUs &&
         !BacklogGrew();
}

PhaseResult RunOpenLoop(ServingState& state, std::vector<Item>& items,
                        double rate, SpanLog* log) {
  struct Pending {
    size_t index;
    int64_t due_ns, t0_ns, t1_ns, t2_ns;
    std::future<Result<WhatIfReport>> future;
  };
  PhaseResult result;
  result.latency_us.assign(items.size(), 0.0);
  result.late_us.assign(items.size(), 0.0);
  result.before = state.server->Stats();
  std::deque<Pending> pending;
  int64_t completed = 0;
  // Takes the oldest submitted requests whose reports are ready. A report
  // is in the client's hands when this sees it, so one that finishes
  // behind an older, slower request waits for it.
  auto collect = [&]() {
    while (!pending.empty() &&
           pending.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Pending& front = pending.front();
      Result<WhatIfReport> served = front.future.get();
      int64_t done_ns = Ns(Clock::now());
      ++completed;
      result.latency_us[front.index] = Us(done_ns - front.due_ns);
      Judge(items[front.index].expected, served, result.tally);
      if (log != nullptr) {
        int64_t id = static_cast<int64_t>(front.index);
        int32_t root = log->Add("request", front.due_ns, done_ns, -1, id);
        log->Add("client.try_cached", front.t0_ns, front.t1_ns, root, id);
        log->Add("client.submit", front.t1_ns, front.t2_ns, root, id);
        log->Add("client.wait", front.t2_ns, done_ns, root, id);
      }
      pending.pop_front();
    }
  };

  uint64_t allocations_before = Allocations();
  WhatIfReport buffer;
  double interval_ns = 1e9 / rate;
  // A short lead so the first request is not late by construction.
  int64_t start_ns = Ns(Clock::now()) + 2'000'000;
  size_t quarter = items.size() / 4;
  for (size_t i = 0; i < items.size(); ++i) {
    int64_t due_ns =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    // Spin, collecting finished reports, rather than sleep: on a virtual
    // CPU a sleep can wake up milliseconds late, which would fail ladder
    // steps on the late limit. Yielding leaves the core to any runnable
    // thread.
    int64_t t0_ns = Ns(Clock::now());
    while (t0_ns < due_ns) {
      collect();
      std::this_thread::yield();
      t0_ns = Ns(Clock::now());
    }
    result.late_us[i] = Us(t0_ns - due_ns);
    Item& item = items[i];
    const ScoreRequest& request = RequestOf(state, item);
    if (state.server->TryScoreCached(request, &buffer)) {
      int64_t t1_ns = Ns(Clock::now());
      ++completed;
      result.latency_us[i] = Us(t1_ns - due_ns);
      ++result.hits;
      Judge(item.expected, buffer, result.tally);
      if (log != nullptr) {
        int64_t id = static_cast<int64_t>(i);
        int32_t root = log->Add("request", due_ns, t1_ns, -1, id);
        log->Add("client.try_cached", t0_ns, t1_ns, root, id);
      }
    } else {
      int64_t t1_ns = Ns(Clock::now());
      // A pool job is resubmitted as a copy; a first-time job is handed
      // over, as a client that built it for this one submission would.
      std::future<Result<WhatIfReport>> future =
          item.spec.pool_index >= 0
              ? state.server->Submit(request)
              : state.server->Submit(std::move(item.request));
      int64_t t2_ns = Ns(Clock::now());
      pending.push_back(
          Pending{i, due_ns, t0_ns, t1_ns, t2_ns, std::move(future)});
    }
    if (i == quarter) {
      result.backlog_quarter = static_cast<int64_t>(i + 1) - completed;
    }
  }
  result.backlog_end = static_cast<int64_t>(items.size()) - completed;
  while (!pending.empty()) {
    pending.front().future.wait();
    collect();
  }
  result.allocations = Allocations() - allocations_before;
  result.after = state.server->Stats();
  result.tally.sent = items.size();
  return result;
}

double MaxRateAtSlo(ServingState& state, const ServingConfig& config,
                    double step_seconds, Tally& tally) {
  std::printf("rate ladder: rung k = %.0f * %.2f^k req/s, k < %d; limit "
              "p99 <= %.0f us, generator late p90 <= %.0f us\n",
              config.first_rung, kRungRatio, kRungs, kP99LimitUs,
              kLateP90LimitUs);
  std::printf("  %4s %9s %8s %9s %7s %7s %10s %10s %10s %8s %s\n", "rung",
              "rate", "sent", "succeeded", "failed", "wrong", "p99 us",
              "late90 us", "late99 us", "backlog", "verdict");
  auto run_step = [&](int rung, bool& grew) {
    double rate = config.first_rung * std::pow(kRungRatio, rung);
    size_t count = std::max<size_t>(
        1, static_cast<size_t>(std::llround(rate * step_seconds)));
    std::vector<Item> items = PrepareItems(state, count);
    PhaseResult step = RunOpenLoop(state, items, rate, nullptr);
    tally.Add(step.tally);
    bool meets = step.Meets();
    grew = step.BacklogGrew();
    std::printf("  %4d %9.0f %8llu %9llu %7llu %7llu %10.1f %10.1f %10.1f "
                "%+8lld %s\n",
                rung, rate, static_cast<unsigned long long>(step.tally.sent),
                static_cast<unsigned long long>(step.tally.succeeded),
                static_cast<unsigned long long>(step.tally.failed),
                static_cast<unsigned long long>(step.tally.mismatched),
                step.p99_us(), step.late_p90_us(), step.late_p99_us(),
                static_cast<long long>(step.backlog_end - step.backlog_quarter),
                meets ? "meets" : "misses");
    return meets;
  };
  int lo = -1;
  int hi = kRungs;
  while (hi - lo > 1) {
    int mid = (lo + hi) / 2;
    // A miss without backlog growth is run again, up to kStepAttempts in
    // all, before it counts: a burst of CPU stolen from a shared host can
    // make a short step's p99 or the generator's lateness miss on its
    // own. A growing backlog is overload, not a stall.
    bool grew = false;
    bool meets = run_step(mid, grew);
    for (int attempt = 1; attempt < kStepAttempts && !meets && !grew;
         ++attempt) {
      meets = run_step(mid, grew);
    }
    if (meets) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo >= 0 ? config.first_rung * std::pow(kRungRatio, lo) : 0.0;
}

namespace {

// Single-threaded replay of the server's path, one public entry point per
// span, on a private cache filled to capacity like the server's.
struct ReplayResult {
  SpanLog log;
  std::vector<double> direct_us;  // Per replayed request.
  uint64_t nn_rows = 0;
  Tally tally;
};

ReplayResult ReplayDirect(const ServingState& state,
                          const std::vector<Item>& items, size_t nn_batch) {
  const tasq::Tasq& tasq = *state.tasq;
  const tasq::DatasetScalers& scalers = *tasq.scalers();
  const tasq::Featurizer featurizer;
  constexpr size_t kDim = tasq::Featurizer::kJobFeatureDim;
  ReplayResult out;
  size_t count = std::min(items.size(), kReplayRequests);
  out.direct_us.assign(count, 0.0);
  out.log.Reserve(count * 8);

  tasq::ReportCache cache(CacheCapacity());
  std::vector<tasq::ReportCacheKey> inserted;
  {
    // Filler entries first, then the pool, so the pool is the most
    // recently used part of the cache, as after FillCache.
    Result<WhatIfReport> filler = tasq::BuildWhatIfReport(
        tasq, state.stream->generator().GenerateJob(0).graph, ModelKind::kNn,
        8.0, kGridPoints);
    size_t fill = CacheCapacity() - std::min(CacheCapacity(), state.pool.size());
    for (size_t k = 0; k < fill && filler.ok(); ++k) {
      tasq::ReportCacheKey key;
      key.fingerprint = 0xF111E40000000000ULL + k;
      key.reference_tokens = 1.0;
      key.grid_points = kGridPoints;
      cache.Put(key, filler.value());
    }
    for (const ScoreRequest& request : state.pool) {
      Result<WhatIfReport> report =
          tasq::BuildWhatIfReport(tasq, request.graph, request.model,
                                  request.reference_tokens,
                                  request.grid_points);
      if (report.ok()) {
        cache.Put(KeyOf(request, request.graph.Fingerprint()), report.value());
      }
    }
  }

  SpanLog& log = out.log;
  // Times one call as a span and charges it to request `i`.
  auto timed = [&](const char* name, int32_t parent, size_t i, auto&& call) {
    int64_t start = Ns(Clock::now());
    call();
    int64_t end = Ns(Clock::now());
    log.Add(name, start, end, parent, static_cast<int64_t>(i));
    out.direct_us[i] += Us(end - start);
  };
  auto judge_and_put = [&](int32_t parent, size_t i,
                           const tasq::ReportCacheKey& key,
                           const Result<WhatIfReport>& report) {
    Judge(items[i].expected, report, out.tally);
    if (!report.ok()) return;
    timed("cache.put", parent, i, [&] { cache.Put(key, report.value()); });
    inserted.push_back(key);
  };

  struct NnPending {
    size_t index;
    tasq::ReportCacheKey key;
  };
  std::vector<NnPending> nn_pending;
  std::vector<double> rows(nn_batch * kDim);
  tasq::NnPccModel::InferenceScratch nn_scratch;
  std::vector<tasq::PowerLawPcc> pccs(nn_batch);
  auto flush_nn = [&]() {
    if (nn_pending.empty()) return;
    int32_t batch = log.Begin("replay.nn_batch", -1, -1);
    int64_t start = Ns(Clock::now());
    tasq::Status predicted = tasq.nn()->PredictBatchInto(
        rows.data(), nn_pending.size(), nn_scratch, pccs.data());
    int64_t end = Ns(Clock::now());
    log.Add("nn.infer", start, end, batch, -1);
    out.nn_rows += nn_pending.size();
    for (size_t g = 0; g < nn_pending.size(); ++g) {
      size_t i = nn_pending[g].index;
      out.direct_us[i] +=
          Us(end - start) / static_cast<double>(nn_pending.size());
      Result<WhatIfReport> report = tasq::Status::Internal("unscored");
      if (predicted.ok()) {
        timed("whatif.report", batch, i, [&] {
          report = tasq::BuildWhatIfReportFromPcc(
              pccs[g], ModelKind::kNn, nn_pending[g].key.reference_tokens,
              kGridPoints);
        });
      } else {
        report = predicted;
      }
      judge_and_put(batch, i, nn_pending[g].key, report);
    }
    nn_pending.clear();
    log.End(batch);
  };

  WhatIfReport buffer;
  std::vector<ScoreRequest> regenerated(count);
  for (size_t i = 0; i < count; ++i) {
    // First-time requests were handed to the server; regenerate them
    // (deterministically) outside every span.
    if (items[i].spec.pool_index < 0) {
      regenerated[i] = MakeRequest(state.stream->generator(), items[i].spec);
    }
  }
  auto request_at = [&](size_t i) -> const ScoreRequest& {
    return items[i].spec.pool_index >= 0 ? RequestOf(state, items[i])
                                         : regenerated[i];
  };

  for (size_t i = 0; i < count; ++i) {
    const ScoreRequest& request = request_at(i);
    int32_t root = log.Begin("replay.request", -1, static_cast<int64_t>(i));
    uint64_t fingerprint = 0;
    timed("workload.fingerprint", root, i,
          [&] { fingerprint = request.graph.Fingerprint(); });
    tasq::ReportCacheKey key = KeyOf(request, fingerprint);
    int64_t get_start = Ns(Clock::now());
    bool hit = cache.GetInto(key, &buffer);
    int64_t get_end = Ns(Clock::now());
    log.Add(hit ? "cache.get_hit" : "cache.get_miss", get_start, get_end, root,
            static_cast<int64_t>(i));
    out.direct_us[i] += Us(get_end - get_start);
    if (hit) {
      Judge(items[i].expected, buffer, out.tally);
      log.End(root);
      continue;
    }
    Result<WhatIfReport> report = tasq::Status::Internal("not scored");
    if (request.model == ModelKind::kNn) {
      double* row = rows.data() + nn_pending.size() * kDim;
      tasq::Status featurized = tasq::Status::Ok();
      timed("feat.job_level", root, i, [&] {
        featurized = featurizer.JobLevelInto(request.graph, row);
        if (featurized.ok()) scalers.job_scaler.TransformRow(row, kDim);
      });
      log.End(root);
      if (!featurized.ok()) {
        Judge(items[i].expected, featurized, out.tally);
        continue;
      }
      nn_pending.push_back(NnPending{i, key});
      if (nn_pending.size() == nn_batch) flush_nn();
      continue;
    }
    if (request.model == ModelKind::kXgboostSs) {
      timed("xgb.ss_report", root, i, [&] {
        report = tasq::BuildWhatIfReport(tasq, request.graph, request.model,
                                         request.reference_tokens,
                                         request.grid_points);
      });
    } else {
      Result<tasq::JobFeatures> features = tasq::Status::Internal("unset");
      timed("feat.graph", root, i, [&] {
        features = featurizer.Featurize(request.graph);
        if (features.ok()) {
          scalers.job_scaler.Transform(features.value().job_vector);
          scalers.op_scaler.TransformMatrix(features.value().op_matrix);
        }
      });
      Result<tasq::PowerLawPcc> pcc = tasq::Status::Internal("unscored");
      if (!features.ok()) {
        pcc = features.status();
      } else if (request.model == ModelKind::kGnn) {
        timed("gnn.infer", root, i, [&] {
          tasq::GraphExample example;
          example.num_nodes = features.value().num_operators;
          example.node_features = std::move(features.value().op_matrix);
          example.norm_adjacency = std::move(features.value().norm_adjacency);
          pcc = tasq.gnn()->Predict(example);
        });
      } else {
        timed("xgb.infer", root, i, [&] {
          pcc = tasq.xgb()->PredictPowerLawPcc(features.value().job_vector,
                                               request.reference_tokens);
        });
      }
      if (!pcc.ok()) {
        report = pcc.status();
      } else {
        timed("whatif.report", root, i, [&] {
          report = tasq::BuildWhatIfReportFromPcc(pcc.value(), request.model,
                                                  request.reference_tokens,
                                                  request.grid_points);
        });
      }
    }
    judge_and_put(root, i, key, report);
    log.End(root);
  }
  flush_nn();

  // Without a hit in the replay (adhoc), time hits on entries just put.
  if (MeanNs(log.spans(), "cache.get_hit") == 0.0) {
    size_t probes = std::min<size_t>(inserted.size(), 256);
    for (size_t k = inserted.size() - probes; k < inserted.size(); ++k) {
      int64_t start = Ns(Clock::now());
      bool hit = cache.GetInto(inserted[k], &buffer);
      int64_t end = Ns(Clock::now());
      if (hit) log.Add("cache.get_hit", start, end, -1, -1);
    }
  }
  out.tally.sent = count;
  return out;
}

double QueueWaitUs(const tasq::ServerStats& before,
                   const tasq::ServerStats& after) {
  uint64_t count = after.queue_wait.count - before.queue_wait.count;
  double total_ms = after.queue_wait.total_ms - before.queue_wait.total_ms;
  return count > 0 ? 1e3 * total_ms / static_cast<double>(count) : 0.0;
}

}  // namespace

void TraceServing(ServingState& state, double rate, double seconds,
                  ResultLine& metrics, SpanLog& spans) {
  size_t count = std::max<size_t>(
      1, static_cast<size_t>(std::llround(rate * seconds)));
  std::vector<Item> traced_items = PrepareItems(state, count);
  SpanLog client;
  client.Reserve(count * 4);
  PhaseResult traced = RunOpenLoop(state, traced_items, rate, &client);
  std::vector<Item> plain_items = PrepareItems(state, count);
  PhaseResult plain = RunOpenLoop(state, plain_items, rate, nullptr);
  state.tally.Add(traced.tally);
  state.tally.Add(plain.tally);

  uint64_t batches = traced.after.batches - traced.before.batches;
  double batch_size =
      batches > 0 ? static_cast<double>(traced.after.batched_requests -
                                        traced.before.batched_requests) /
                        static_cast<double>(batches)
                  : 1.0;
  // Replay NN inference at the NN share of the realized batch size.
  size_t nn_batch = std::max<size_t>(
      1, static_cast<size_t>(std::llround(batch_size * kNnShare)));
  ReplayResult replay = ReplayDirect(state, traced_items, nn_batch);
  state.tally.Add(replay.tally);
  const std::vector<Span>& replayed = replay.log.spans();

  // Latency accounting over the replayed requests: client latency of the
  // traced phase against the summed direct-path layer times.
  size_t n = replay.direct_us.size();
  double mean_latency = 0.0;
  double mean_direct = 0.0;
  double mean_late = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_latency += traced.latency_us[i] / static_cast<double>(n);
    mean_direct += replay.direct_us[i] / static_cast<double>(n);
    mean_late += traced.late_us[i] / static_cast<double>(n);
  }
  double overhead = mean_latency - mean_direct;
  double sent = static_cast<double>(traced.tally.sent);
  double submitted = static_cast<double>(traced.after.queue_wait.count -
                                         traced.before.queue_wait.count);
  double queue_wait = QueueWaitUs(traced.before, traced.after);
  double queue_share = queue_wait * submitted / sent;
  std::printf("latency accounting over %zu replayed requests (mean us per "
              "request):\n", n);
  std::printf("  client latency %.2f = direct layers %.2f + overhead %.2f\n",
              mean_latency, mean_direct, overhead);
  std::printf("  overhead %.2f = generator late %.2f + queue wait %.2f + "
              "unattributed %.2f\n",
              overhead, mean_late, queue_share,
              overhead - mean_late - queue_share);
  PrintSelfTimes("direct-path replay, self time per layer:",
                 SelfTimes(replayed));
  PrintSelfTimes("open-loop client spans (traced phase):",
                 SelfTimes(client.spans()));

  double hit_ratio = static_cast<double>(traced.hits) / sent;
  double evictions = static_cast<double>(traced.after.cache_evictions -
                                         traced.before.cache_evictions);
  double plain_p50 = plain.p50_us();
  metrics.Set("workload.fingerprint_ns",
              MeanNs(replayed, "workload.fingerprint"), "ns");
  metrics.Set("cache.get_hit_ns", MeanNs(replayed, "cache.get_hit"), "ns");
  metrics.Set("cache.put_us", MeanNs(replayed, "cache.put") / 1e3, "us");
  metrics.Set("cache.hit_ratio", hit_ratio, "ratio");
  metrics.Set("cache.evictions_per_req", evictions / sent, "ratio");
  metrics.Set("server.queue_wait_us", queue_wait, "us");
  metrics.Set("server.batch_size", batch_size, "count");
  metrics.Set("server.max_queue_depth",
              static_cast<double>(traced.after.max_queue_depth), "count");
  metrics.Set("server.allocs_per_req",
              static_cast<double>(traced.allocations) / sent, "count");
  metrics.Set("server.overhead_us", overhead, "us");
  metrics.Set("feat.job_level_ns", MeanNs(replayed, "feat.job_level"), "ns");
  metrics.Set("feat.graph_us", MeanNs(replayed, "feat.graph") / 1e3, "us");
  double nn_total = 0.0;
  for (const Span& span : replayed) {
    if (std::strcmp(span.name, "nn.infer") == 0) {
      nn_total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  metrics.Set("nn.infer_ns_per_row",
              replay.nn_rows > 0
                  ? nn_total / static_cast<double>(replay.nn_rows)
                  : 0.0,
              "ns");
  metrics.Set("gnn.infer_us", MeanNs(replayed, "gnn.infer") / 1e3, "us");
  metrics.Set("xgb.infer_us", MeanNs(replayed, "xgb.infer") / 1e3, "us");
  metrics.Set("xgb.ss_report_us", MeanNs(replayed, "xgb.ss_report") / 1e3,
              "us");
  metrics.Set("whatif.report_ns", MeanNs(replayed, "whatif.report"), "ns");
  metrics.Set("bench.gen_late_p99_us", traced.late_p99_us(), "us");
  metrics.Set("bench.trace_overhead_pct",
              plain_p50 > 0.0
                  ? 100.0 * (traced.p50_us() - plain_p50) / plain_p50
                  : 0.0,
              "%");
  spans.Append(client);
  spans.Append(replay.log);
}

}  // namespace tasqbench
