// The scoring workloads: an open-loop client of a default PccServer, a
// rate ladder for the highest rate that meets the latency limit, and the
// traced replay that times each serving layer through its public entry
// point on the same requests.

#ifndef TASQBENCH_SERVING_H_
#define TASQBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "measure.h"
#include "serve/server.h"
#include "trace.h"
#include "workload.h"

namespace tasqbench {

/// Ratio between neighbouring rungs of the rate ladder, and its length:
/// rung k is ServingConfig::first_rung * kRungRatio^k, k in [0, kRungs).
inline constexpr double kRungRatio = 1.05;
inline constexpr int kRungs = 94;
/// A rung meets the limit when p99 latency is at most this, no request
/// failed, the generator ran on time and the backlog did not grow.
/// 200 ms at p99 goes unnoticed at job submission. It is also above the
/// p99 that stalls of a shared host cause well below saturation, so the
/// limit marks where queueing takes off rather than when a stall hit.
inline constexpr double kP99LimitUs = 200000.0;
/// The generator kept up when its p90 lateness is at most this. A stall
/// of the host delays a burst of sends, which the latency from the
/// scheduled time already charges; falling behind delays most of them.
inline constexpr double kLateP90LimitUs = 2000.0;

/// Rates of one scoring workload.
struct ServingConfig {
  /// Fixed arrival rate at which p50 is reported, requests/s.
  double base_rate = 0.0;
  /// Rate of the ladder's lowest rung, requests/s.
  double first_rung = 0.0;
};
ServingConfig ConfigFor(Workload workload);

/// One request of a timed phase. First-time jobs own their request until
/// it is submitted; pool resubmits refer to the pool. `expected` is the
/// digest of a direct BuildWhatIfReport of the same request (0 when the
/// direct path failed, which no served report matches).
struct Item {
  RequestSpec spec;
  tasq::ScoreRequest request;
  uint64_t expected = 0;
};

/// Requests sent, answered with a matching report, answered with an error,
/// and answered with a report that differs from the direct one.
struct Tally {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  void Add(const Tally& other);
  uint64_t bad() const { return failed + mismatched; }
};

/// A trained pipeline behind a default PccServer, and the stream feeding
/// it. Members are declared so the server is destroyed before the
/// pipeline it borrows.
struct ServingState {
  std::unique_ptr<tasq::Tasq> tasq;
  std::unique_ptr<RequestStream> stream;
  std::vector<tasq::ScoreRequest> pool;
  std::vector<uint64_t> pool_expected;
  std::unique_ptr<tasq::PccServer> server;
  /// Warm-up requests submitted by FillCache, with what came back; kept
  /// until VerifyWarmup checks them.
  std::vector<tasq::ScoreRequest> warmup;
  std::vector<uint64_t> warmup_served;
  std::vector<char> warmup_ok;
  Tally tally;
};

/// Builds the stream (pool requests included) and a default server over
/// `tasq`.
std::unique_ptr<ServingState> MakeServingState(
    Workload workload, uint64_t seed, std::unique_ptr<tasq::Tasq> tasq);

/// Fills the cache to capacity: first-time warm-up jobs, then (recurring)
/// every pool job, so the pool is the most recently used part of the
/// cache. At most 8 requests are outstanding at a time.
void FillCache(ServingState& state);

/// Checks every warm-up answer against a direct report and computes the
/// pool's expected digests.
void VerifyWarmup(ServingState& state);

/// Draws `count` requests from the stream, with their expected digests.
std::vector<Item> PrepareItems(ServingState& state, size_t count);

struct PhaseResult {
  Tally tally;
  uint64_t hits = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  int64_t backlog_quarter = 0;
  int64_t backlog_end = 0;
  tasq::ServerStats before;
  tasq::ServerStats after;
  uint64_t allocations = 0;

  double p50_us() const { return Quantile(latency_us, 0.5); }
  double p99_us() const { return Quantile(latency_us, 0.99); }
  double late_p90_us() const { return Quantile(late_us, 0.9); }
  double late_p99_us() const { return Quantile(late_us, 0.99); }
  bool BacklogGrew() const;
  bool Meets() const;
};

/// Sends `items` at a fixed rate from this thread, whatever the server
/// does (open loop): TryScoreCached into a reused buffer, then Submit on a
/// miss. Between sends the same thread polls submitted requests, oldest
/// first. Latency runs from each request's scheduled send time until its
/// report is in the client's hands. With `log`, records client-side spans.
PhaseResult RunOpenLoop(ServingState& state, std::vector<Item>& items,
                        double rate, SpanLog* log);

/// Bisects the rate ladder; each step runs `step_seconds`, and a step that
/// misses without backlog growth is run again, up to 3 times in all,
/// before the rung counts as missed. Returns the
/// highest rung that met the limit (0 if none did) and adds every step's
/// requests to `tally`.
double MaxRateAtSlo(ServingState& state, const ServingConfig& config,
                    double step_seconds, Tally& tally);

/// Traced run of the serving layers: a traced and an untraced phase at
/// `rate`, then a single-threaded replay of the traced phase's requests
/// through each layer's public entry point. Sets every serving per-layer
/// metric and appends the spans to `spans`.
void TraceServing(ServingState& state, double rate, double seconds,
                  ResultLine& metrics, SpanLog& spans);

}  // namespace tasqbench

#endif  // TASQBENCH_SERVING_H_
