// Tests of the benchmark itself: its request streams are what README.md
// says they are, and its traces are well formed.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "measure.h"
#include "pipeline.h"
#include "serve/cache.h"
#include "serving.h"
#include "trace.h"
#include "workload.h"

namespace tasqbench {
namespace {

std::vector<uint64_t> StreamFingerprints(Workload workload, uint64_t seed,
                                         size_t count) {
  RequestStream stream(workload, seed);
  std::vector<uint64_t> out;
  for (size_t i = 0; i < count; ++i) {
    RequestSpec spec = stream.Next();
    tasq::ScoreRequest request = MakeRequest(stream.generator(), spec);
    out.push_back(request.graph.Fingerprint() ^
                  (static_cast<uint64_t>(request.model) << 60));
  }
  return out;
}

TEST(TasqBenchStream, SameSeedGivesIdenticalStream) {
  for (Workload workload : {Workload::kRecurring, Workload::kAdhoc}) {
    EXPECT_EQ(StreamFingerprints(workload, 11, 400),
              StreamFingerprints(workload, 11, 400));
  }
}

TEST(TasqBenchStream, DifferentSeedGivesDifferentStream) {
  for (Workload workload : {Workload::kRecurring, Workload::kAdhoc}) {
    std::vector<uint64_t> a = StreamFingerprints(workload, 11, 400);
    std::vector<uint64_t> b = StreamFingerprints(workload, 12, 400);
    size_t same = 0;
    for (size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
    EXPECT_LT(same, a.size() / 10) << WorkloadName(workload);
  }
}

TEST(TasqBenchStream, ModelMixMatchesTheStatedShares) {
  tasq::Rng rng(3);
  size_t counts[tasq::kModelKindCount] = {};
  const size_t draws = 20000;
  for (size_t i = 0; i < draws; ++i) {
    ++counts[static_cast<size_t>(DrawModel(rng))];
  }
  EXPECT_NEAR(counts[static_cast<size_t>(tasq::ModelKind::kNn)] / 20000.0,
              0.7, 0.02);
  for (tasq::ModelKind kind :
       {tasq::ModelKind::kGnn, tasq::ModelKind::kXgboostPl,
        tasq::ModelKind::kXgboostSs}) {
    EXPECT_NEAR(counts[static_cast<size_t>(kind)] / 20000.0, 0.1, 0.015);
  }
}

TEST(TasqBenchStream, AdhocNeverRepeatsAFingerprint) {
  RequestStream stream(Workload::kAdhoc, 5);
  std::unordered_set<uint64_t> seen;
  std::vector<RequestSpec> specs = stream.WarmupSpecs(4096);
  for (int i = 0; i < 3000; ++i) specs.push_back(stream.Next());
  for (const RequestSpec& spec : specs) {
    EXPECT_LT(spec.pool_index, 0);
    uint64_t fingerprint =
        MakeRequest(stream.generator(), spec).graph.Fingerprint();
    EXPECT_TRUE(seen.insert(fingerprint).second)
        << "job " << spec.job_id << " repeats a fingerprint";
  }
}

// Replays the recurring stream against a default-capacity cache, filled
// the way FillCache fills the server's, and measures the hit share.
TEST(TasqBenchStream, RecurringHitShareIsAboutNinetyPercent) {
  RequestStream stream(Workload::kRecurring, 9);
  tasq::ReportCache cache(tasq::PccServerOptions{}.cache_capacity);
  tasq::WhatIfReport report;
  auto key_of = [&](const RequestSpec& spec) {
    tasq::ScoreRequest request = MakeRequest(stream.generator(), spec);
    tasq::ReportCacheKey key;
    key.fingerprint = request.graph.Fingerprint();
    key.model = request.model;
    key.reference_tokens = request.reference_tokens;
    key.grid_points = request.grid_points;
    return key;
  };
  std::vector<tasq::ReportCacheKey> pool_keys;
  for (const RequestSpec& spec : stream.pool()) pool_keys.push_back(key_of(spec));
  size_t warm = tasq::PccServerOptions{}.cache_capacity - pool_keys.size();
  for (const RequestSpec& spec : stream.WarmupSpecs(warm)) {
    cache.Put(key_of(spec), report);
  }
  for (const tasq::ReportCacheKey& key : pool_keys) cache.Put(key, report);

  size_t hits = 0;
  const size_t requests = 12000;
  for (size_t i = 0; i < requests; ++i) {
    RequestSpec spec = stream.Next();
    tasq::ReportCacheKey key =
        spec.pool_index >= 0 ? pool_keys[static_cast<size_t>(spec.pool_index)]
                             : key_of(spec);
    if (cache.GetInto(key, &report)) {
      ++hits;
    } else {
      cache.Put(key, report);
    }
  }
  double share = static_cast<double>(hits) / static_cast<double>(requests);
  EXPECT_GT(share, 0.85);
  EXPECT_LT(share, 0.92);
}

TEST(TasqBenchTrace, SelfTimeSubtractsChildCoverage) {
  SpanLog log;
  int32_t root = log.Add("root", 0, 100, -1, 1);
  log.Add("a", 10, 40, root, 1);
  log.Add("b", 30, 60, root, 1);  // Overlaps a; counted once.
  EXPECT_EQ(CheckNesting(log.spans()), "");
  for (const LayerTime& row : SelfTimes(log.spans())) {
    if (row.name == "root") {
      EXPECT_DOUBLE_EQ(row.self_ns, 50.0);
    }
    if (row.name == "a") {
      EXPECT_DOUBLE_EQ(row.self_ns, 30.0);
    }
  }
}

TEST(TasqBenchTrace, NestingCheckRejectsAnEscapingChild) {
  SpanLog log;
  int32_t root = log.Add("root", 0, 100, -1, 1);
  log.Add("late", 90, 120, root, 1);
  EXPECT_NE(CheckNesting(log.spans()), "");
  SpanLog bad_parent;
  bad_parent.Add("orphan", 0, 1, 7, 1);
  EXPECT_NE(CheckNesting(bad_parent.spans()), "");
}

TEST(TasqBenchTrace, AppendRebasesParents) {
  SpanLog a;
  a.Add("x", 0, 10, -1, 0);
  SpanLog b;
  int32_t root = b.Add("root", 0, 10, -1, 1);
  b.Add("child", 2, 3, root, 1);
  a.Append(b);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(CheckNesting(a.spans()), "");
}

// Every child span of the real traced paths nests inside its parent: the
// pipeline replay, and the serving probe's client and replay spans.
TEST(TasqBenchTrace, TracedRunSpansNest) {
  tasq::Result<HeldOut> held_out = BuildHeldOut();
  ASSERT_TRUE(held_out.ok());
  tasq::TasqOptions options = ServingTrainOptions();
  tasq::Result<PipelineRun> run = RunPipeline(options, 80, held_out.value());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  SpanLog spans;
  ASSERT_TRUE(ReplayPipeline(options, 80, held_out.value(),
                             *run.value().tasq, spans)
                  .ok());
  auto state = MakeServingState(Workload::kAdhoc, 4,
                                std::move(run.value().tasq));
  VerifyWarmup(*state);
  ResultLine metrics;
  TraceServing(*state, 300.0, 0.5, metrics, spans);
  EXPECT_EQ(state->tally.bad(), 0u);
  EXPECT_GT(spans.spans().size(), 300u);
  EXPECT_EQ(CheckNesting(spans.spans()), "");
}

TEST(TasqBenchPipeline, TrainReplayCheckRejectsAMissingOrRepeatedStep) {
  // Figures of a retrain pass: Train 5.3 s, of which GNN 4.9 s, XGB 0.37 s.
  EXPECT_TRUE(ReplayAccountsForTrain(5.3, 5.3));
  EXPECT_TRUE(ReplayAccountsForTrain(5.3, 5.6));  // Host noise.
  EXPECT_TRUE(ReplayAccountsForTrain(5.3, 5.0));
  EXPECT_FALSE(ReplayAccountsForTrain(5.3, 5.3 - 4.9));  // GNN dropped.
  EXPECT_FALSE(ReplayAccountsForTrain(5.3, 5.3 + 4.9));  // GNN twice.
  EXPECT_FALSE(ReplayAccountsForTrain(0.0, 0.0));  // Nothing was timed.
}

TEST(TasqBenchMeasure, DigestSeesEveryField) {
  tasq::WhatIfReport report;
  report.curve.resize(3);
  uint64_t base = ReportDigest(report);
  EXPECT_EQ(ReportDigest(report), base);
  tasq::WhatIfReport changed = report;
  changed.curve[2].token_savings_fraction = 1e-12;
  EXPECT_NE(ReportDigest(changed), base);
  changed = report;
  changed.bounded.tokens = 3.0;
  EXPECT_NE(ReportDigest(changed), base);
  changed = report;
  changed.pcc.b = -0.0;  // Bit pattern differs from +0.0.
  EXPECT_NE(ReportDigest(changed), base);
}

TEST(TasqBenchMeasure, QuantileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace tasqbench
