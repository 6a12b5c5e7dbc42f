#include "workload.h"

#include <algorithm>
#include <cmath>

namespace tasqbench {

namespace {

// Every stream draws its jobs from one generator, so all seeds share its
// recurring templates and mix of graph shapes, and the seed picks which
// jobs. Its config seed differs from the training history's (7), so no
// scored job is a training job.
constexpr uint64_t kStreamConfigSeed = 0x7A5B;
// Each seed owns a block of 2^24 job ids: the pool at its start, then the
// first-time jobs, then the warm-up jobs, so the three never share a job.
constexpr int64_t kFreshOffset = int64_t{1} << 20;
constexpr int64_t kWarmupOffset = int64_t{1} << 23;

int64_t FirstId(uint64_t seed) {
  return static_cast<int64_t>((seed % (uint64_t{1} << 38)) << 24);
}

tasq::WorkloadConfig StreamConfig() {
  tasq::WorkloadConfig config;
  config.seed = kStreamConfigSeed;
  return config;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "recurring") return Workload::kRecurring;
  if (name == "adhoc") return Workload::kAdhoc;
  if (name == "retrain") return Workload::kRetrain;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kRecurring:
      return "recurring";
    case Workload::kAdhoc:
      return "adhoc";
    case Workload::kRetrain:
      return "retrain";
  }
  return "unknown";
}

tasq::ModelKind DrawModel(tasq::Rng& rng) {
  double u = rng.Uniform(0.0, 1.0);
  if (u < kNnShare) return tasq::ModelKind::kNn;
  if (u < kNnShare + 0.1) return tasq::ModelKind::kGnn;
  if (u < kNnShare + 0.2) return tasq::ModelKind::kXgboostPl;
  return tasq::ModelKind::kXgboostSs;
}

RequestStream::RequestStream(Workload workload, uint64_t seed)
    : workload_(workload),
      rng_(tasq::Rng(seed).Fork(static_cast<uint64_t>(workload))),
      generator_(StreamConfig()),
      next_fresh_id_(FirstId(seed) + kFreshOffset),
      next_warmup_id_(FirstId(seed) + kWarmupOffset) {
  if (workload_ != Workload::kRecurring) return;
  pool_.reserve(kPoolSize);
  double total = 0.0;
  zipf_cdf_.reserve(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    RequestSpec spec;
    spec.job_id = FirstId(seed) + static_cast<int64_t>(i);
    spec.model = DrawModel(rng_);
    spec.pool_index = static_cast<int32_t>(i);
    pool_.push_back(spec);
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

RequestSpec RequestStream::Next() {
  if (workload_ == Workload::kRecurring &&
      rng_.Uniform(0.0, 1.0) < kRecurringShare) {
    double u = rng_.Uniform(0.0, 1.0);
    size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return pool_[std::min(rank, pool_.size() - 1)];
  }
  RequestSpec spec;
  spec.job_id = next_fresh_id_++;
  spec.model = DrawModel(rng_);
  return spec;
}

std::vector<RequestSpec> RequestStream::WarmupSpecs(size_t count) {
  std::vector<RequestSpec> specs(count);
  for (RequestSpec& spec : specs) {
    spec.job_id = next_warmup_id_++;
    spec.model = DrawModel(rng_);
  }
  return specs;
}

tasq::ScoreRequest MakeRequest(const tasq::WorkloadGenerator& generator,
                               const RequestSpec& spec) {
  tasq::Job job = generator.GenerateJob(spec.job_id);
  tasq::ScoreRequest request;
  request.graph = std::move(job.graph);
  request.model = spec.model;
  request.reference_tokens = job.default_tokens;
  request.grid_points = kGridPoints;
  return request;
}

tasq::WorkloadConfig HistoryConfig() {
  tasq::WorkloadConfig config;
  config.seed = 7;
  return config;
}

tasq::TasqOptions ServingTrainOptions() {
  tasq::TasqOptions options;
  options.nn.epochs = 20;
  options.gnn.epochs = 2;
  return options;
}

}  // namespace tasqbench
