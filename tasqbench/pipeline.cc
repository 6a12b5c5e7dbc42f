#include "pipeline.h"

#include <cmath>
#include <utility>

#include "tasq/evaluation.h"
#include "workload.h"

namespace tasqbench {

namespace {

using tasq::ModelKind;
using tasq::Result;
using tasq::Status;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Result<std::vector<tasq::ObservedJob>> Observe(
    const std::vector<tasq::Job>& jobs, uint64_t seed) {
  tasq::NoiseModel noise;
  noise.enabled = true;
  return tasq::ObserveWorkload(jobs, noise, seed);
}

Result<Accuracy> Evaluate(const tasq::Tasq& trained, const HeldOut& held_out) {
  Accuracy accuracy;
  struct Family {
    ModelKind kind;
    double* out;
  };
  for (Family family : {Family{ModelKind::kNn, &accuracy.nn},
                        Family{ModelKind::kGnn, &accuracy.gnn},
                        Family{ModelKind::kXgboostPl, &accuracy.xgb_pl},
                        Family{ModelKind::kXgboostSs, &accuracy.xgb_ss}}) {
    Result<tasq::ModelEvalMetrics> metrics =
        tasq::EvaluateModel(trained, family.kind, held_out.dataset);
    if (!metrics.ok()) return metrics.status();
    *family.out = metrics.value().median_ae_runtime_percent;
  }
  return accuracy;
}

}  // namespace

Result<HeldOut> BuildHeldOut() {
  tasq::WorkloadGenerator generator(HistoryConfig());
  HeldOut held_out;
  held_out.jobs = generator.Generate(kHeldOutFirstId, kHeldOutJobs);
  Result<std::vector<tasq::ObservedJob>> observed = Observe(held_out.jobs, 2);
  if (!observed.ok()) return observed.status();
  Result<tasq::Dataset> dataset = tasq::DatasetBuilder().Build(observed.value());
  if (!dataset.ok()) return dataset.status();
  held_out.dataset = std::move(dataset.value());
  return held_out;
}

Result<PipelineRun> RunPipeline(const tasq::TasqOptions& options,
                                int64_t jobs, const HeldOut& held_out) {
  PipelineRun run;
  auto start = Clock::now();
  tasq::WorkloadGenerator generator(HistoryConfig());
  std::vector<tasq::Job> history = generator.Generate(0, jobs);
  run.generate_s = Seconds(start);

  auto step = Clock::now();
  Result<std::vector<tasq::ObservedJob>> observed = Observe(history, 1);
  if (!observed.ok()) return observed.status();
  run.observe_s = Seconds(step);

  step = Clock::now();
  run.tasq = std::make_unique<tasq::Tasq>(options);
  Status trained = run.tasq->Train(observed.value());
  if (!trained.ok()) return trained;
  if (run.tasq->xgb() == nullptr || run.tasq->nn() == nullptr ||
      run.tasq->gnn() == nullptr) {
    return Status::Internal("a model family was not trained");
  }
  run.train_s = Seconds(step);

  step = Clock::now();
  Result<Accuracy> accuracy = Evaluate(*run.tasq, held_out);
  if (!accuracy.ok()) return accuracy.status();
  run.accuracy = accuracy.value();
  run.eval_s = Seconds(step);
  run.total_s = Seconds(start);
  return run;
}

Status ReplayPipeline(const tasq::TasqOptions& options, int64_t jobs,
                      const HeldOut& held_out, const tasq::Tasq& trained,
                      SpanLog& log) {
  // Tasq::Train needs XGBoost predictions only for the LF3 loss; the
  // replay mirrors the default LF2 path and says so if that changes.
  if (options.nn.loss_form == tasq::LossForm::kLF3 ||
      options.gnn.loss_form == tasq::LossForm::kLF3) {
    return Status::FailedPrecondition("replay covers the LF2 training path only");
  }
  int32_t root = log.Begin("pipeline", -1, -1);
  int32_t span = log.Begin("workload.generate", root, -1);
  tasq::WorkloadGenerator generator(HistoryConfig());
  std::vector<tasq::Job> history = generator.Generate(0, jobs);
  log.End(span);

  span = log.Begin("simcluster.observe", root, -1);
  Result<std::vector<tasq::ObservedJob>> observed = Observe(history, 1);
  log.End(span);
  if (!observed.ok()) return observed.status();

  // The Tasq::Train steps, in its order.
  int32_t train = log.Begin("tasq.train", root, -1);
  span = log.Begin("dataset.build", train, -1);
  Result<tasq::Dataset> built =
      tasq::DatasetBuilder(options.dataset).Build(observed.value());
  log.End(span);
  if (!built.ok()) return built.status();
  tasq::Dataset& dataset = built.value();

  span = log.Begin("dataset.fit_scalers", train, -1);
  Result<tasq::DatasetScalers> scalers = tasq::FitScalers(dataset);
  if (scalers.ok()) tasq::ApplyScalers(scalers.value(), dataset);
  Result<tasq::PccTargetScaling> scaling =
      tasq::PccTargetScaling::Fit(dataset.targets);
  log.End(span);
  if (!scalers.ok()) return scalers.status();
  if (!scaling.ok()) return scaling.status();

  span = log.Begin("xgb.train", train, -1);
  tasq::XgbRuntimeModel xgb(options.xgb);
  Status xgb_trained =
      xgb.Train(dataset.point_features, dataset.point_size(),
                dataset.job_feature_dim, dataset.point_tokens,
                dataset.point_runtimes);
  log.End(span);
  if (!xgb_trained.ok()) return xgb_trained;

  tasq::PccSupervision supervision;
  supervision.targets = dataset.targets;
  supervision.observed_tokens = dataset.observed_tokens;
  supervision.observed_runtime = dataset.observed_runtime;

  span = log.Begin("nn.train", train, -1);
  tasq::NnPccModel nn(dataset.job_feature_dim, options.nn);
  Result<double> nn_loss = nn.Train(dataset.job_features, supervision);
  log.End(span);
  if (!nn_loss.ok()) return nn_loss.status();

  span = log.Begin("gnn.train", train, -1);
  tasq::GnnPccModel gnn(dataset.op_feature_dim, options.gnn);
  Result<double> gnn_loss = gnn.Train(dataset.graphs, supervision);
  log.End(span);
  if (!gnn_loss.ok()) return gnn_loss.status();
  log.End(train);

  span = log.Begin("eval", root, -1);
  Result<Accuracy> accuracy = Evaluate(trained, held_out);
  log.End(span);
  log.End(root);
  return accuracy.ok() ? Status::Ok() : accuracy.status();
}

bool ReplayAccountsForTrain(double untraced_s, double replayed_s) {
  return untraced_s > 0.0 &&
         std::abs(untraced_s - replayed_s) <= kTrainReplayShare * untraced_s;
}

}  // namespace tasqbench
