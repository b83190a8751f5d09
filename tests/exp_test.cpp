// Tests for the experiment harness: environment generation, determinism and
// counterfactual properties, the scenario matrix, the collector, and the
// evaluation protocol.
#include <gtest/gtest.h>

#include <sstream>

#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "util/thread_pool.hpp"

namespace lts::exp {
namespace {

// ------------------------------------------------------------- scenario ----

TEST(Scenario, MatrixHasSixtyDistinctConfigs) {
  const auto matrix = paper_scenario_matrix();
  ASSERT_EQ(matrix.size(), 60u);
  std::set<std::string> ids;
  int per_app[4] = {0, 0, 0, 0};
  for (const auto& s : matrix) {
    ids.insert(s.id);
    s.config.validate();
    ++per_app[static_cast<int>(s.config.app)];
  }
  EXPECT_EQ(ids.size(), 60u);
  for (const int count : per_app) EXPECT_EQ(count, 15);
}

TEST(Scenario, MatrixCoversSizeAndExecutorRanges) {
  const auto matrix = paper_scenario_matrix();
  std::set<std::int64_t> sizes;
  std::set<int> executors;
  std::set<double> memories;
  for (const auto& s : matrix) {
    sizes.insert(s.config.input_records);
    executors.insert(s.config.executors);
    memories.insert(s.config.executor_memory);
  }
  EXPECT_GE(sizes.size(), 5u);
  EXPECT_GE(executors.size(), 3u);
  EXPECT_GE(memories.size(), 2u);  // tight and roomy allocations
}

TEST(Scenario, SamplingIsDeterministic) {
  const auto matrix = paper_scenario_matrix();
  Rng a(9), b(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sample_scenario(matrix, a).id, sample_scenario(matrix, b).id);
  }
}

// --------------------------------------------------------------- envgen ----

TEST(SimEnv, BuildsPaperTopology) {
  SimEnv env(1);
  EXPECT_EQ(env.node_names().size(), 6u);
  EXPECT_EQ(env.api().nodes().size(), 6u);
  // Allocatable = capacity - reserve.
  EXPECT_DOUBLE_EQ(env.api().nodes()[0].allocatable.cpu, 5.5);
}

TEST(SimEnv, WarmupPopulatesTelemetry) {
  SimEnv env(2);
  env.warmup();
  const auto snapshot = env.snapshot();
  for (const auto& node : snapshot.nodes) {
    EXPECT_GT(node.rtt_mean, 0.0) << node.node;
    EXPECT_GT(node.mem_available, 0.0) << node.node;
  }
}

TEST(SimEnv, SameSeedSameWorld) {
  SimEnv a(42), b(42);
  a.warmup();
  b.warmup();
  EXPECT_EQ(a.num_background_pods(), b.num_background_pods());
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  for (std::size_t i = 0; i < sa.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa.nodes[i].rtt_mean, sb.nodes[i].rtt_mean);
    EXPECT_DOUBLE_EQ(sa.nodes[i].tx_rate, sb.nodes[i].tx_rate);
    EXPECT_DOUBLE_EQ(sa.nodes[i].cpu_load, sb.nodes[i].cpu_load);
  }
}

TEST(SimEnv, DifferentSeedsDifferentWorlds) {
  SimEnv a(1), b(99);
  a.warmup();
  b.warmup();
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.nodes.size() && !any_diff; ++i) {
    any_diff = sa.nodes[i].rtt_mean != sb.nodes[i].rtt_mean;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimEnv, RunJobIsDeterministic) {
  auto run = [] {
    SimEnv env(7);
    env.warmup();
    spark::JobConfig job;
    job.input_records = 400000;
    job.executors = 3;
    return env.run_job(job, 1, 55).duration();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(SimEnv, CounterfactualChangesOnlyPlacement) {
  // Same seed, different driver node: the executor-visible world (bg pods,
  // node heterogeneity) replays identically; only the placement differs.
  spark::JobConfig job;
  job.input_records = 400000;
  job.executors = 3;
  SimEnv a(7), b(7);
  a.warmup();
  b.warmup();
  const auto ra = a.run_job(job, 0, 55);
  const auto rb = b.run_job(job, 5, 55);
  EXPECT_EQ(ra.driver_node, "node-1");
  EXPECT_EQ(rb.driver_node, "node-6");
  EXPECT_NE(ra.duration(), rb.duration());
}

TEST(SimEnv, PodsCleanedUpAfterRun) {
  SimEnv env(3);
  env.warmup();
  spark::JobConfig job;
  job.executors = 3;
  const std::size_t pods_before = env.api().num_pods();
  env.run_job(job, 0, 9);
  EXPECT_EQ(env.api().num_pods(), pods_before);
}

TEST(SimEnv, LaunchJobKeepsExecutorsInTheOfferAndUnwindsOnMisfit) {
  SimEnv env(3);
  env.warmup();
  const std::size_t pods_before = env.api().num_pods();
  spark::JobConfig job;
  job.executors = 2;
  bool completed = false;
  LaunchedJob placed = env.launch_job(
      job, "offered", 0, 9,
      [&completed](const spark::AppResult&) { completed = true; },
      {"node-4"});
  ASSERT_NE(placed.app, nullptr);
  ASSERT_EQ(placed.pods.size(), 3u);  // driver first, then the executors
  EXPECT_EQ(env.api().pod_node(placed.pods[0]), "node-1");
  EXPECT_EQ(env.api().pod_node(placed.pods[1]), "node-4");
  EXPECT_EQ(env.api().pod_node(placed.pods[2]), "node-4");
  while (!completed) ASSERT_TRUE(env.engine().step());
  env.unbind(placed);
  EXPECT_EQ(env.api().num_pods(), pods_before);

  // The first executor fits no node: the driver is unbound again and the
  // failed attempt's per-node reasons come back.
  job.executor_cores = 64.0;
  const LaunchedJob misfit =
      env.launch_job(job, "misfit", 0, 9, [](const spark::AppResult&) {});
  EXPECT_EQ(misfit.app, nullptr);
  EXPECT_TRUE(misfit.pods.empty());
  EXPECT_EQ(misfit.rejection.rejected.size(), 6u);
  EXPECT_EQ(env.api().num_pods(), pods_before);
}

TEST(SimEnv, KubeRankingCoversFeasibleNodes) {
  SimEnv env(3);
  env.warmup();
  spark::JobConfig job;
  const auto ranking = env.kube_ranking(job);
  EXPECT_EQ(ranking.ranking.size(), 6u);
}

TEST(SimEnv, BackgroundCountWithinConfiguredRange) {
  EnvOptions options;
  options.min_background_pods = 2;
  options.max_background_pods = 2;
  SimEnv env(5, options);
  EXPECT_EQ(env.num_background_pods(), 2u);
}

// ------------------------------------------------------------- collector ----

TEST(Collector, ProducesExpectedSampleCount) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(2);
  CollectorOptions options;
  options.repeats = 2;
  options.base_seed = 77;
  // The progress contract: serialized calls with done = 1, 2, ..., total.
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  options.progress = [&](std::size_t done, std::size_t total) {
    calls.emplace_back(done, total);
  };
  const CsvTable log = collect_training_data(matrix, options);
  EXPECT_EQ(log.num_rows(), 2u * 6u * 2u);
  ASSERT_EQ(calls.size(), log.num_rows());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i + 1);
    EXPECT_EQ(calls[i].second, log.num_rows());
  }
}

TEST(Collector, PooledRunMatchesInlineRun) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(2);
  CollectorOptions options;
  options.repeats = 1;
  options.residual_job = true;
  std::ostringstream pooled, inline_run;
  collect_training_data(matrix, options).write(pooled);
  // parallel_for runs inline on a worker of its own pool, so the same call
  // made from inside a pool task is the serial loop.
  ThreadPool::global()
      .submit([&] { collect_training_data(matrix, options).write(inline_run); })
      .get();
  EXPECT_EQ(pooled.str(), inline_run.str());
}

TEST(Collector, CoversAllTargetNodes) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(1);
  CollectorOptions options;
  options.repeats = 1;
  const CsvTable log = collect_training_data(matrix, options);
  std::set<std::string> nodes;
  for (std::size_t i = 0; i < log.num_rows(); ++i) {
    nodes.insert(log.cell(i, "node"));
  }
  EXPECT_EQ(nodes.size(), 6u);
}

TEST(Collector, RowsAreTrainable) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(3);
  CollectorOptions options;
  options.repeats = 2;
  const CsvTable log = collect_training_data(matrix, options);
  const auto data = core::Trainer::dataset_from_log(log);
  EXPECT_EQ(data.size(), log.num_rows());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_GT(data.target(i), 1.0);    // durations in seconds
    EXPECT_LT(data.target(i), 600.0);
  }
  const auto model = core::Trainer::train("linear", data);
  EXPECT_TRUE(model->is_fitted());
}

TEST(Collector, SampleSeedsDistinct) {
  CollectorOptions options;
  std::set<std::uint64_t> seeds;
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t n = 0; n < 6; ++n) {
      for (int r = 0; r < 3; ++r) {
        seeds.insert(sample_seed(options, s, n, r));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 5u * 6u * 3u);
}

// -------------------------------------------------------------- evaluate ----

TEST(Evaluate, ProtocolProducesConsistentOutcomes) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(6);
  CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = collect_training_data(matrix, collect);
  const auto data = core::Trainer::dataset_from_log(log);
  std::vector<std::pair<std::string, std::shared_ptr<const ml::Regressor>>>
      models;
  models.emplace_back("linear", std::shared_ptr<const ml::Regressor>(
                                    core::Trainer::train("linear", data)));

  EvalOptions eval;
  eval.num_scenarios = 4;
  eval.truth_repeats = 1;
  eval.heuristics = {"least_cpu", "least_rtt"};
  const auto result = evaluate_methods(models, matrix, eval);

  ASSERT_EQ(result.outcomes.size(), 4u);
  for (const auto& outcome : result.outcomes) {
    ASSERT_EQ(outcome.node_durations.size(), 6u);
    for (const double d : outcome.node_durations) EXPECT_GT(d, 0.0);
    // fastest_node really is the argmin.
    for (const double d : outcome.node_durations) {
      EXPECT_LE(outcome.node_durations[outcome.fastest_node], d);
    }
    // Every method produced a complete ranking (permutation of 0..5).
    for (const auto& [method, ranking] : outcome.rankings) {
      std::set<std::size_t> unique(ranking.begin(), ranking.end());
      EXPECT_EQ(unique.size(), 6u) << method;
    }
  }
  // Accuracy rows exist for baselines, heuristics, and the model.
  EXPECT_EQ(result.accuracy.size(), 5u);
  for (const auto& acc : result.accuracy) {
    EXPECT_GE(acc.top1, 0.0);
    EXPECT_LE(acc.top1, 1.0);
    EXPECT_GE(acc.top2, acc.top1);  // Top-2 can only help
    EXPECT_GE(acc.mean_regret, 0.0);
  }
  EXPECT_THROW(result.by_method("nope"), Error);
}

TEST(Evaluate, DeterministicAcrossRuns) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(4);
  CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = collect_training_data(matrix, collect);
  const auto data = core::Trainer::dataset_from_log(log);
  auto make_models = [&] {
    std::vector<std::pair<std::string, std::shared_ptr<const ml::Regressor>>>
        models;
    models.emplace_back("linear", std::shared_ptr<const ml::Regressor>(
                                      core::Trainer::train("linear", data)));
    return models;
  };
  EvalOptions eval;
  eval.num_scenarios = 3;
  eval.truth_repeats = 1;
  const auto a = evaluate_methods(make_models(), matrix, eval);
  const auto b = evaluate_methods(make_models(), matrix, eval);
  for (std::size_t i = 0; i < a.accuracy.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.accuracy[i].top1, b.accuracy[i].top1);
    EXPECT_DOUBLE_EQ(a.accuracy[i].mean_regret, b.accuracy[i].mean_regret);
  }
}

/// A linear model fitted on a 4-config, 1-repeat corpus.
std::vector<std::pair<std::string, std::shared_ptr<const ml::Regressor>>>
small_linear_model(const std::vector<Scenario>& matrix) {
  CollectorOptions collect;
  collect.repeats = 1;
  const auto data =
      core::Trainer::dataset_from_log(collect_training_data(matrix, collect));
  std::vector<std::pair<std::string, std::shared_ptr<const ml::Regressor>>>
      models;
  models.emplace_back("linear", std::shared_ptr<const ml::Regressor>(
                                    core::Trainer::train("linear", data)));
  return models;
}

TEST(Evaluate, ProgressIsSerializedAndCountsEveryScenario) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(4);
  EvalOptions eval;
  eval.num_scenarios = 5;
  eval.truth_repeats = 1;
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  eval.progress = [&](std::size_t done, std::size_t total) {
    calls.emplace_back(done, total);
  };
  evaluate_methods(small_linear_model(matrix), matrix, eval);
  ASSERT_EQ(calls.size(), 5u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i + 1);
    EXPECT_EQ(calls[i].second, 5u);
  }
}

TEST(Evaluate, RejectsBadOptionsBeforeAnyScenarioRuns) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(4);
  const auto models = small_linear_model(matrix);
  std::size_t progress_calls = 0;
  EvalOptions eval;
  eval.num_scenarios = 3;
  eval.progress = [&](std::size_t, std::size_t) { ++progress_calls; };

  EvalOptions no_truth = eval;
  no_truth.truth_repeats = 0;
  EXPECT_THROW(evaluate_methods(models, matrix, no_truth), Error);

  EvalOptions bogus = eval;
  bogus.truth_repeats = 1;
  bogus.heuristics = {"least_cpu", "most_vibes"};
  EXPECT_THROW(evaluate_methods(models, matrix, bogus), Error);
  EXPECT_EQ(progress_calls, 0u);
}

TEST(Evaluate, PooledRunMatchesInlineRun) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(4);
  const auto models = small_linear_model(matrix);
  EvalOptions eval;
  eval.num_scenarios = 6;
  eval.truth_repeats = 2;
  eval.heuristics = {"least_cpu", "least_rtt"};
  const auto pooled = evaluate_methods(models, matrix, eval);
  // Inside a pool task parallel_for runs inline: the serial loop.
  EvalResult serial;
  ThreadPool::global()
      .submit([&] { serial = evaluate_methods(models, matrix, eval); })
      .get();
  ASSERT_EQ(pooled.outcomes.size(), serial.outcomes.size());
  for (std::size_t s = 0; s < pooled.outcomes.size(); ++s) {
    const auto& a = pooled.outcomes[s];
    const auto& b = serial.outcomes[s];
    EXPECT_EQ(a.scenario_id, b.scenario_id);
    EXPECT_EQ(a.node_durations, b.node_durations);  // exact doubles
    EXPECT_EQ(a.fastest_node, b.fastest_node);
    EXPECT_EQ(a.rankings, b.rankings);
  }
  ASSERT_EQ(pooled.accuracy.size(), serial.accuracy.size());
  for (std::size_t i = 0; i < pooled.accuracy.size(); ++i) {
    EXPECT_EQ(pooled.accuracy[i].method, serial.accuracy[i].method);
    EXPECT_EQ(pooled.accuracy[i].top1, serial.accuracy[i].top1);
    EXPECT_EQ(pooled.accuracy[i].top2, serial.accuracy[i].top2);
    EXPECT_EQ(pooled.accuracy[i].mean_regret, serial.accuracy[i].mean_regret);
  }
}

// --------------------------------------------------------------- figures ----

TEST(Figures, SortTelemetryShapes) {
  spark::JobConfig sort_config;
  sort_config.input_records = 300000;
  sort_config.executors = 3;
  FigureOptions options;
  options.seed = 118;
  options.runs = 2;
  const auto figures = figure_sort_telemetry(sort_config, options);
  EXPECT_EQ(figures.runs, 2);
  EXPECT_EQ(figures.run_durations.size(), 2u);
  ASSERT_EQ(figures.avg_latency_ms.nodes.size(), 6u);
  ASSERT_EQ(figures.avg_tx_mbps.values.size(), 6u);
  for (const double v : figures.avg_latency_ms.values) EXPECT_GT(v, 0.0);
  // FIU nodes (index 2, 3) should sit above the UCSD/SRI average: they are
  // cross-country from two thirds of their peers.
  const double fiu =
      (figures.avg_latency_ms.values[2] + figures.avg_latency_ms.values[3]) /
      2.0;
  const double rest = (figures.avg_latency_ms.values[0] +
                       figures.avg_latency_ms.values[1] +
                       figures.avg_latency_ms.values[4] +
                       figures.avg_latency_ms.values[5]) /
                      4.0;
  EXPECT_GT(fiu, rest);
}

TEST(Figures, TopologyMatrixSymmetricPositive) {
  const auto matrix = figure_topology(EnvOptions{});
  ASSERT_EQ(matrix.sites.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(matrix.rtt_ms[i][i], 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_GT(matrix.rtt_ms[i][j], 1.0);
      EXPECT_NEAR(matrix.rtt_ms[i][j], matrix.rtt_ms[j][i], 1e-6);
    }
  }
}

}  // namespace
}  // namespace lts::exp
