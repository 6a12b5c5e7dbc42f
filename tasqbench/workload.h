// Workload definitions of the TASQ benchmark: which jobs each workload
// submits, with which model, in which order. Everything here is a pure
// function of the seed, so the same seed gives the same request stream.
// See README.md for why each workload exists.

#ifndef TASQBENCH_WORKLOAD_H_
#define TASQBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/server.h"
#include "tasq/tasq.h"
#include "workload/generator.h"

namespace tasqbench {

enum class Workload { kRecurring, kAdhoc, kRetrain };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Recurring pool: distinct job graphs resubmitted with Zipf skew. The
/// pool fits the server's default 4096-entry cache.
inline constexpr size_t kPoolSize = 2000;
inline constexpr double kZipfExponent = 0.6;
/// Share of recurring-workload requests drawn from the pool.
inline constexpr double kRecurringShare = 0.9;
/// Report grid every request asks for (the server default).
inline constexpr size_t kGridPoints = 9;

/// NN share of the model mix.
inline constexpr double kNnShare = 0.7;
/// The model mix of every scoring workload: 70% NN, 10% each of GNN,
/// XGBoost-PL and XGBoost-SS.
tasq::ModelKind DrawModel(tasq::Rng& rng);

/// One scheduled request: a job of the request generator and the model
/// that scores it. `pool_index` is the pool slot for recurring resubmits
/// and -1 for a first-time job.
struct RequestSpec {
  int64_t job_id = 0;
  tasq::ModelKind model = tasq::ModelKind::kNn;
  int32_t pool_index = -1;
};

/// Deterministic request stream of the `recurring` or `adhoc` workload.
/// First-time jobs get consecutive ids from a range no pool job uses, so
/// no two first-time requests share a job.
class RequestStream {
 public:
  RequestStream(Workload workload, uint64_t seed);

  /// The next request of the timed stream.
  RequestSpec Next();

  /// `count` first-time jobs for cache warm-up, disjoint from every job
  /// Next() returns.
  std::vector<RequestSpec> WarmupSpecs(size_t count);

  /// Pool slots of the recurring workload (empty for adhoc).
  const std::vector<RequestSpec>& pool() const { return pool_; }

  /// Generator of the jobs behind the specs. It is the same for every
  /// seed (the seed picks job ids) and differs from the training
  /// history's, so requests are jobs the serving models never trained on.
  const tasq::WorkloadGenerator& generator() const { return generator_; }

 private:
  Workload workload_;
  tasq::Rng rng_;
  tasq::WorkloadGenerator generator_;
  std::vector<RequestSpec> pool_;
  std::vector<double> zipf_cdf_;
  int64_t next_fresh_id_;
  int64_t next_warmup_id_;
};

/// Materializes a spec into the request a client submits.
tasq::ScoreRequest MakeRequest(const tasq::WorkloadGenerator& generator,
                               const RequestSpec& spec);

/// Workload configuration of the fixed training histories. The history
/// does not depend on the stream seed: the deployed models, and with them
/// the accuracy metrics and inference cost, are the same in every run.
tasq::WorkloadConfig HistoryConfig();

/// Serving set-up training: default architectures (inference cost depends
/// on them) with the epoch counts cut (they do not change inference cost).
tasq::TasqOptions ServingTrainOptions();
inline constexpr int64_t kServingTrainJobs = 300;
/// Retrain pass: default TasqOptions over this many jobs.
inline constexpr int64_t kRetrainJobs = 600;
/// Held-out jobs every evaluation scores, disjoint from both histories.
inline constexpr int64_t kHeldOutFirstId = 50000;
inline constexpr int64_t kHeldOutJobs = 150;

}  // namespace tasqbench

#endif  // TASQBENCH_WORKLOAD_H_
