// The offline TASQ pipeline as the benchmark drives it: generate, observe
// on the simulated cluster, train, evaluate on held-out jobs. The traced
// replay repeats Tasq::Train step by step through each layer's public
// entry point so every step gets its own span.

#ifndef TASQBENCH_PIPELINE_H_
#define TASQBENCH_PIPELINE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "tasq/dataset.h"
#include "tasq/tasq.h"
#include "trace.h"

namespace tasqbench {

/// Held-out jobs: their compile-time requests for direct scoring, and the
/// unscaled dataset EvaluateModel takes.
struct HeldOut {
  std::vector<tasq::Job> jobs;
  tasq::Dataset dataset;
};
tasq::Result<HeldOut> BuildHeldOut();

/// Held-out median absolute error of run-time predictions, in percent,
/// per model family.
struct Accuracy {
  double nn = 0.0;
  double gnn = 0.0;
  double xgb_pl = 0.0;
  double xgb_ss = 0.0;
  bool operator==(const Accuracy&) const = default;
};

struct PipelineRun {
  std::unique_ptr<tasq::Tasq> tasq;
  Accuracy accuracy;
  double generate_s = 0.0;
  double observe_s = 0.0;
  double train_s = 0.0;
  double eval_s = 0.0;
  /// Generate through evaluate.
  double total_s = 0.0;
};

/// One untraced pass over `jobs` jobs of the fixed history. Fails when any
/// model family fails to train or to evaluate.
tasq::Result<PipelineRun> RunPipeline(const tasq::TasqOptions& options,
                                      int64_t jobs, const HeldOut& held_out);

/// Replays one pass with a span per step: generate, observe,
/// DatasetBuilder::Build, FitScalers (+ApplyScalers and the target
/// scaling), the per-family Train calls and EvaluateModel on `trained`.
/// The replayed models are discarded; `trained` is only evaluated.
tasq::Status ReplayPipeline(const tasq::TasqOptions& options, int64_t jobs,
                            const HeldOut& held_out, const tasq::Tasq& trained,
                            SpanLog& log);

/// The replayed Tasq::Train steps (Build, FitScalers, the per-family Train
/// calls) account for an untraced Tasq::Train when their sum differs from
/// it by at most this share of the untraced time. On a shared host one
/// pass of each has differed by up to ~10%, so the check catches a replay
/// that drops or repeats the GNN or XGB training, which dominate Train,
/// but not a step as small as the NN training.
inline constexpr double kTrainReplayShare = 0.25;
bool ReplayAccountsForTrain(double untraced_s, double replayed_s);

}  // namespace tasqbench

#endif  // TASQBENCH_PIPELINE_H_
