// Property-based tests of the workload generator across configuration
// extremes (parameterized over configs) — the generator must stay
// structurally sound at every knob setting.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "feat/featurizer.h"
#include "simcluster/cluster_simulator.h"
#include "tasq/repository.h"
#include "workload/generator.h"

namespace tasq {
namespace {

struct ConfigCase {
  std::string name;
  WorkloadConfig config;
};

class WorkloadConfigPropertyTest
    : public ::testing::TestWithParam<ConfigCase> {};

std::vector<ConfigCase> AllCases() {
  std::vector<ConfigCase> cases;
  {
    ConfigCase c{"defaults", {}};
    cases.push_back(c);
  }
  {
    ConfigCase c{"all_adhoc", {}};
    c.config.recurring_fraction = 0.0;
    cases.push_back(c);
  }
  {
    ConfigCase c{"all_recurring_one_template", {}};
    c.config.recurring_fraction = 1.0;
    c.config.num_templates = 1;
    cases.push_back(c);
  }
  {
    ConfigCase c{"tiny_jobs", {}};
    c.config.tokens_median = 2.0;
    c.config.task_seconds_median = 2.0;
    cases.push_back(c);
  }
  {
    ConfigCase c{"wide_jobs_capped", {}};
    c.config.tokens_median = 500.0;
    c.config.max_stage_width = 200;
    cases.push_back(c);
  }
  {
    ConfigCase c{"no_estimate_noise", {}};
    c.config.estimate_noise_sigma = 0.0;
    cases.push_back(c);
  }
  {
    ConfigCase c{"heavy_drift", {}};
    c.config.recurrence_drift_sigma = 1.0;
    cases.push_back(c);
  }
  {
    ConfigCase c{"no_overprovision", {}};
    c.config.overprovision_lo = 1.0;
    c.config.overprovision_hi = 1.0;
    cases.push_back(c);
  }
  {
    ConfigCase c{"grown_inputs", {}};
    c.config.global_input_scale = 3.0;
    cases.push_back(c);
  }
  {
    ConfigCase c{"slow_cluster_calibration", {}};
    c.config.seconds_per_cost_unit = 2.5;
    cases.push_back(c);
  }
  return cases;
}

TEST_P(WorkloadConfigPropertyTest, JobsAreValidAndFeaturizable) {
  WorkloadGenerator generator(GetParam().config);
  Featurizer featurizer;
  for (const Job& job : generator.Generate(0, 60)) {
    ASSERT_TRUE(job.plan.Validate().ok()) << "job " << job.id;
    ASSERT_TRUE(job.graph.Validate().ok()) << "job " << job.id;
    EXPECT_GE(job.default_tokens, 1.0);
    EXPECT_LE(job.plan.MaxStageTasks(), GetParam().config.max_stage_width);
    auto features = featurizer.Featurize(job.graph);
    ASSERT_TRUE(features.ok()) << "job " << job.id;
    for (double v : features.value().job_vector) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST_P(WorkloadConfigPropertyTest, JobsExecuteAtAnyAllocation) {
  WorkloadGenerator generator(GetParam().config);
  ClusterSimulator simulator;
  for (const Job& job : generator.Generate(0, 10)) {
    for (double tokens : {1.0, 7.0, job.default_tokens}) {
      auto result = simulator.Run(job.plan, RunConfig{tokens, {}, 0});
      ASSERT_TRUE(result.ok()) << "job " << job.id << " tokens " << tokens;
      EXPECT_GT(result.value().runtime_seconds, 0.0);
    }
  }
}

TEST_P(WorkloadConfigPropertyTest, RecurringFractionRespected) {
  const WorkloadConfig& config = GetParam().config;
  WorkloadGenerator generator(config);
  int recurring = 0;
  int total = 200;
  for (const Job& job : generator.Generate(0, total)) {
    if (job.recurring) ++recurring;
  }
  double fraction = static_cast<double>(recurring) / total;
  EXPECT_NEAR(fraction, config.recurring_fraction, 0.12)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WorkloadConfigPropertyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
      return info.param.name;
    });

// ---- JobGraph::Fingerprint properties ------------------------------------
//
// The serving layer (src/serve) keys its report cache on the fingerprint,
// so these properties are load-bearing: equal graphs MUST collide (or
// recurring jobs never hit the cache) and modified graphs MUST NOT (or a
// changed job is served a stale report).

TEST(FingerprintPropertyTest, EqualGraphsHashEqual) {
  WorkloadConfig config;
  config.seed = 91;
  // Two independently constructed generators: same config, same job id →
  // structurally equal graphs → equal fingerprints, with no shared state
  // that could mask address-dependent hashing.
  WorkloadGenerator a(config);
  WorkloadGenerator b(config);
  for (int64_t id = 0; id < 50; ++id) {
    JobGraph graph_a = a.GenerateJob(id).graph;
    JobGraph graph_b = b.GenerateJob(id).graph;
    EXPECT_EQ(graph_a.Fingerprint(), graph_b.Fingerprint()) << "job " << id;
    JobGraph copy = graph_a;  // A copy must trivially collide too.
    EXPECT_EQ(copy.Fingerprint(), graph_a.Fingerprint()) << "job " << id;
  }
}

TEST(FingerprintPropertyTest, DistinctJobsRarelyCollide) {
  WorkloadConfig config;
  config.seed = 92;
  config.recurring_fraction = 0.0;  // Every job is unique by construction.
  WorkloadGenerator generator(config);
  std::set<uint64_t> prints;
  const int64_t n = 300;
  for (const Job& job : generator.Generate(0, n)) {
    prints.insert(job.graph.Fingerprint());
  }
  EXPECT_EQ(prints.size(), static_cast<size_t>(n));
}

TEST(FingerprintPropertyTest, EverySingleMutationChangesTheHash) {
  WorkloadConfig config;
  config.seed = 93;
  WorkloadGenerator generator(config);
  JobGraph base = generator.GenerateJob(7).graph;
  ASSERT_GE(base.operators.size(), 3u);
  const uint64_t base_print = base.Fingerprint();

  using Mutation = std::pair<std::string, std::function<void(JobGraph&)>>;
  std::vector<Mutation> mutations;
  for (size_t i = 0; i < base.operators.size(); ++i) {
    auto name = [i](const char* field) {
      return "op" + std::to_string(i) + "." + field;
    };
    mutations.emplace_back(name("op"), [i](JobGraph& g) {
      auto& op = g.operators[i].op;
      op = op == PhysicalOperator::kFilter ? PhysicalOperator::kProject
                                           : PhysicalOperator::kFilter;
    });
    mutations.emplace_back(name("partitioning"), [i](JobGraph& g) {
      auto& p = g.operators[i].partitioning;
      p = p == PartitioningMethod::kHash ? PartitioningMethod::kRange
                                         : PartitioningMethod::kHash;
    });
    mutations.emplace_back(name("stage"), [i](JobGraph& g) {
      g.operators[i].stage += 1;
    });
    mutations.emplace_back(name("output_cardinality"), [i](JobGraph& g) {
      g.operators[i].features.output_cardinality += 1.0;
    });
    mutations.emplace_back(name("leaf_input_cardinality"), [i](JobGraph& g) {
      g.operators[i].features.leaf_input_cardinality += 1.0;
    });
    mutations.emplace_back(
        name("children_input_cardinality"), [i](JobGraph& g) {
          g.operators[i].features.children_input_cardinality += 1.0;
        });
    mutations.emplace_back(name("average_row_length"), [i](JobGraph& g) {
      g.operators[i].features.average_row_length += 1.0;
    });
    mutations.emplace_back(name("cost_subtree"), [i](JobGraph& g) {
      g.operators[i].features.cost_subtree += 1.0;
    });
    mutations.emplace_back(name("cost_exclusive"), [i](JobGraph& g) {
      g.operators[i].features.cost_exclusive += 1.0;
    });
    mutations.emplace_back(name("cost_total"), [i](JobGraph& g) {
      g.operators[i].features.cost_total += 1.0;
    });
    mutations.emplace_back(name("num_partitions"), [i](JobGraph& g) {
      g.operators[i].features.num_partitions += 1;
    });
    mutations.emplace_back(
        name("num_partitioning_columns"), [i](JobGraph& g) {
          g.operators[i].features.num_partitioning_columns += 1;
        });
    mutations.emplace_back(name("num_sort_columns"), [i](JobGraph& g) {
      g.operators[i].features.num_sort_columns += 1;
    });
  }
  // Structural mutations: edges and node count.
  mutations.emplace_back("add_edge", [](JobGraph& g) {
    g.operators.back().inputs.push_back(0);
  });
  mutations.emplace_back("drop_edge", [&base](JobGraph& g) {
    for (auto& node : g.operators) {
      if (!node.inputs.empty()) {
        node.inputs.pop_back();
        return;
      }
    }
    (void)base;
  });
  mutations.emplace_back("append_operator", [](JobGraph& g) {
    OperatorNode node;
    node.id = static_cast<int>(g.operators.size());
    node.inputs.push_back(node.id - 1);
    g.operators.push_back(node);
  });
  mutations.emplace_back("drop_operator", [](JobGraph& g) {
    g.operators.pop_back();
  });

  for (const Mutation& mutation : mutations) {
    JobGraph mutated = base;
    mutation.second(mutated);
    EXPECT_NE(mutated.Fingerprint(), base_print)
        << "mutation " << mutation.first << " did not change the hash";
  }
}

TEST(FingerprintPropertyTest, NegativeZeroHashesLikePositiveZero) {
  WorkloadConfig config;
  config.seed = 94;
  WorkloadGenerator generator(config);
  JobGraph graph = generator.GenerateJob(3).graph;
  graph.operators[0].features.output_cardinality = 0.0;
  uint64_t positive = graph.Fingerprint();
  graph.operators[0].features.output_cardinality = -0.0;
  // -0.0 == 0.0, so graphs that compare equal must hash equal even though
  // the two values have different bit patterns.
  EXPECT_EQ(graph.Fingerprint(), positive);
}

TEST(FingerprintPropertyTest, StableAcrossSerializationRoundTrip) {
  WorkloadConfig config;
  config.seed = 95;
  WorkloadGenerator generator(config);
  NoiseModel noise;
  noise.enabled = true;
  auto observed =
      ObserveWorkload(generator.Generate(0, 30), noise, 1).value();
  std::vector<uint64_t> before;
  for (const ObservedJob& job : observed) {
    before.push_back(job.job.graph.Fingerprint());
  }
  std::stringstream stream;
  ASSERT_TRUE(SaveWorkload(stream, observed).ok());
  auto loaded = LoadWorkload(stream);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), observed.size());
  for (size_t i = 0; i < loaded.value().size(); ++i) {
    EXPECT_EQ(loaded.value()[i].job.graph.Fingerprint(), before[i])
        << "job " << i;
  }
}


// The word-wise fingerprint absorbs fields into four lanes, so the cases
// below aim at what a lane or packing mistake would hide and a `+1`
// mutation cannot: the same values in other positions, and NaN payloads.

JobGraph BatteryGraph(uint64_t seed, int64_t job_id) {
  WorkloadConfig config;
  config.seed = seed;
  return WorkloadGenerator(config).GenerateJob(job_id).graph;
}

double* FeatureSlot(OperatorFeatures& f, int index) {
  double* slots[] = {&f.output_cardinality,    &f.leaf_input_cardinality,
                     &f.children_input_cardinality, &f.average_row_length,
                     &f.cost_subtree,          &f.cost_exclusive,
                     &f.cost_total};
  return slots[index];
}

bool SameFeatures(OperatorFeatures a, OperatorFeatures b) {
  for (int k = 0; k < 7; ++k) {
    if (*FeatureSlot(a, k) != *FeatureSlot(b, k)) return false;
  }
  return a.num_partitions == b.num_partitions &&
         a.num_partitioning_columns == b.num_partitioning_columns &&
         a.num_sort_columns == b.num_sort_columns;
}

TEST(FingerprintPropertyTest, RewiringAnInputKeepingTheCountChangesTheHash) {
  JobGraph base = BatteryGraph(96, 11);
  const uint64_t base_print = base.Fingerprint();
  int rewired = 0;
  for (size_t i = 0; i < base.operators.size(); ++i) {
    const OperatorNode& node = base.operators[i];
    for (size_t slot = 0; slot < node.inputs.size(); ++slot) {
      if (node.id < 2) continue;  // Needs a second earlier operator.
      JobGraph mutated = base;
      int& input = mutated.operators[i].inputs[slot];
      input = input == 0 ? 1 : input - 1;
      ASSERT_EQ(mutated.operators[i].inputs.size(), node.inputs.size());
      ASSERT_TRUE(mutated.Validate().ok());
      EXPECT_NE(mutated.Fingerprint(), base_print)
          << "op " << i << " input " << slot;
      ++rewired;
    }
  }
  EXPECT_GT(rewired, 0);
}

TEST(FingerprintPropertyTest, SwappingTwoFeaturesWithinAnOperatorChangesTheHash) {
  JobGraph base = BatteryGraph(97, 5);
  const uint64_t base_print = base.Fingerprint();
  int swaps = 0;
  for (size_t i = 0; i < base.operators.size(); ++i) {
    for (int a = 0; a < 7; ++a) {
      for (int b = a + 1; b < 7; ++b) {
        JobGraph mutated = base;
        OperatorFeatures& f = mutated.operators[i].features;
        if (*FeatureSlot(f, a) == *FeatureSlot(f, b)) continue;
        std::swap(*FeatureSlot(f, a), *FeatureSlot(f, b));
        EXPECT_NE(mutated.Fingerprint(), base_print)
            << "op " << i << " features " << a << "<->" << b;
        ++swaps;
      }
    }
    // The packed integer features too.
    JobGraph mutated = base;
    OperatorFeatures& f = mutated.operators[i].features;
    if (f.num_partitions != f.num_partitioning_columns) {
      std::swap(f.num_partitions, f.num_partitioning_columns);
      EXPECT_NE(mutated.Fingerprint(), base_print) << "op " << i;
      ++swaps;
    }
  }
  EXPECT_GT(swaps, 100);
}

TEST(FingerprintPropertyTest, SwappingFeatureBlocksOfTwoOperatorsChangesTheHash) {
  JobGraph base = BatteryGraph(98, 9);
  ASSERT_GE(base.operators.size(), 3u);
  const uint64_t base_print = base.Fingerprint();
  int swaps = 0;
  for (size_t i = 0; i < base.operators.size(); ++i) {
    for (size_t j = i + 1; j < base.operators.size(); ++j) {
      JobGraph mutated = base;
      std::swap(mutated.operators[i].features, mutated.operators[j].features);
      if (SameFeatures(base.operators[i].features,
                       base.operators[j].features)) {
        continue;  // Equal blocks; the swap changes nothing.
      }
      EXPECT_NE(mutated.Fingerprint(), base_print)
          << "ops " << i << "<->" << j;
      ++swaps;
    }
  }
  EXPECT_GT(swaps, 0);
}

TEST(FingerprintPropertyTest, NanPayloadsHashEqual) {
  JobGraph graph = BatteryGraph(99, 2);
  auto nan_with = [](uint64_t bits) {
    double nan = std::bit_cast<double>(bits);
    EXPECT_TRUE(std::isnan(nan));
    return nan;
  };
  // Quiet NaNs only: a signaling NaN would trap in TASQ_FPE builds.
  const double payloads[] = {
      std::numeric_limits<double>::quiet_NaN(),
      nan_with(0x7FF8000000000001ULL), nan_with(0x7FF800000000DEADULL),
      nan_with(0xFFF8000000000000ULL), nan_with(0x7FFFFFFFFFFFFFFFULL)};
  graph.operators[0].features.cost_total = payloads[0];
  graph.operators.back().features.output_cardinality = payloads[0];
  const uint64_t reference = graph.Fingerprint();
  for (double nan : payloads) {
    graph.operators[0].features.cost_total = nan;
    graph.operators.back().features.output_cardinality = nan;
    EXPECT_EQ(graph.Fingerprint(), reference)
        << std::hex << std::bit_cast<uint64_t>(nan);
  }
  graph.operators[0].features.cost_total = 1.0;
  EXPECT_NE(graph.Fingerprint(), reference);
}

TEST(FingerprintPropertyTest, TwentyThousandDistinctJobsHashDistinct) {
  WorkloadConfig config;
  config.seed = 100;
  config.recurring_fraction = 0.0;  // Every job is unique by construction.
  WorkloadGenerator generator(config);
  const int64_t n = 20000;
  std::set<uint64_t> prints;
  for (int64_t id = 0; id < n; ++id) {
    prints.insert(generator.GenerateJob(id).graph.Fingerprint());
  }
  EXPECT_EQ(prints.size(), static_cast<size_t>(n));
}

}  // namespace
}  // namespace tasq
