// Fork equivalence: a copy of a warmed SimEnv must be the same world as a
// fresh SimEnv(seed).warmup(), which is the oracle here. Table 4's
// counterfactual truth runs on such copies, so every double is compared
// with EXPECT_EQ, not a tolerance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/envgen.hpp"
#include "exp/scenario.hpp"

namespace lts::exp {
namespace {

void expect_same_run(const spark::AppResult& got,
                     const spark::AppResult& want) {
  ASSERT_TRUE(got.completed);
  EXPECT_EQ(got.duration(), want.duration());
  EXPECT_EQ(got.submit_time, want.submit_time);
  EXPECT_EQ(got.finish_time, want.finish_time);
  EXPECT_EQ(got.driver_node, want.driver_node);
  EXPECT_EQ(got.executor_nodes, want.executor_nodes);
  EXPECT_EQ(got.task_retries, want.task_retries);
  EXPECT_EQ(got.total_shuffle_bytes, want.total_shuffle_bytes);
  ASSERT_EQ(got.stages.size(), want.stages.size());
  for (std::size_t i = 0; i < got.stages.size(); ++i) {
    EXPECT_EQ(got.stages[i].start, want.stages[i].start) << "stage " << i;
    EXPECT_EQ(got.stages[i].end, want.stages[i].end) << "stage " << i;
    EXPECT_EQ(got.stages[i].shuffle_bytes, want.stages[i].shuffle_bytes);
  }
}

void expect_same_snapshot(const telemetry::ClusterSnapshot& got,
                          const telemetry::ClusterSnapshot& want) {
  EXPECT_EQ(got.at, want.at);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    const auto& g = got.nodes[i];
    const auto& w = want.nodes[i];
    EXPECT_EQ(g.node, w.node);
    EXPECT_EQ(g.rtt_mean, w.rtt_mean) << g.node;
    EXPECT_EQ(g.rtt_max, w.rtt_max) << g.node;
    EXPECT_EQ(g.rtt_std, w.rtt_std) << g.node;
    EXPECT_EQ(g.tx_rate, w.tx_rate) << g.node;
    EXPECT_EQ(g.rx_rate, w.rx_rate) << g.node;
    EXPECT_EQ(g.cpu_load, w.cpu_load) << g.node;
    EXPECT_EQ(g.mem_available, w.mem_available) << g.node;
    EXPECT_EQ(g.uplink_util, w.uplink_util) << g.node;
    EXPECT_EQ(g.downlink_util, w.downlink_util) << g.node;
    EXPECT_EQ(g.queue_delay, w.queue_delay) << g.node;
    EXPECT_EQ(g.active_flows, w.active_flows) << g.node;
    EXPECT_EQ(g.last_seen, w.last_seen) << g.node;
    EXPECT_EQ(g.has_data, w.has_data) << g.node;
  }
}

/// Runs `config` from every node on copies of one warmed world and on
/// fresh warmed worlds, and checks the two agree run for run. The
/// telemetry each side recorded meanwhile must agree too: job durations do
/// not read the exporters' RNG streams, EMAs or delayed reports.
void expect_forks_match_fresh(std::uint64_t seed, const EnvOptions& options,
                              const spark::JobConfig& config) {
  SimEnv world(seed, options);
  world.warmup();
  const std::uint64_t job_seed = seed ^ 0x5eedf00dULL;
  for (std::size_t node = 0; node < world.node_names().size(); ++node) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " node " +
                 std::to_string(node));
    SimEnv fork(world);
    const auto got = fork.run_job(config, node, job_seed);
    SimEnv fresh(seed, options);
    fresh.warmup();
    const auto want = fresh.run_job(config, node, job_seed);
    expect_same_run(got, want);
    // A further minute of background load and scrapes after the job.
    fork.engine().run_until(fork.engine().now() + 60.0);
    fresh.engine().run_until(fresh.engine().now() + 60.0);
    expect_same_snapshot(fork.snapshot(), fresh.snapshot());
  }
}

const spark::JobConfig& scenario_config(std::size_t i) {
  static const auto matrix = paper_scenario_matrix();
  return matrix[i % matrix.size()].config;
}

TEST(Fork, CopiesMatchFreshWarmupOnEveryNode) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_forks_match_fresh(seed, EnvOptions{}, scenario_config(seed * 11));
  }
}

TEST(Fork, CopiesMatchFreshWithFaultsPendingPastWarmup) {
  // Every fault below is still pending (or mid-flight) when the world is
  // copied at t = 40: the crash and the link cut fire during the job, and
  // the delayed exporter holds reports in flight at the copy instant.
  EnvOptions options;
  options.faults = {
      {fault::FaultKind::kExporterDelay, "node-4", 30.0, 25.0, 3.0},
      {fault::FaultKind::kNodeCrash, "node-2", 41.0, 15.0, 1.0},
      {fault::FaultKind::kLinkDegrade, "ucsd:fiu", 42.0, 60.0, 0.7},
  };
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    expect_forks_match_fresh(seed, options, scenario_config(seed));
  }
}

TEST(Fork, CopiesMatchFreshOnHierarchicalFourSiteTopology) {
  ScaledClusterOptions scaled;
  scaled.sites = 4;
  scaled.nodes_per_site = 2;
  scaled.nic_jitter = 0.2;
  scaled.hierarchical_solver = true;
  EnvOptions options;
  options.cluster_spec = scaled_cluster_spec(scaled);
  ASSERT_EQ(options.cluster_spec.flow_options.solver,
            net::SolverMode::kHierarchical);
  for (std::uint64_t seed = 31; seed <= 32; ++seed) {
    expect_forks_match_fresh(seed, options, scenario_config(seed));
  }
}

TEST(Fork, RunningCopiesLeavesTheTemplateUnchanged) {
  const std::uint64_t seed = 7;
  SimEnv world(seed);
  world.warmup();
  for (std::size_t node = 0; node < 6; ++node) {
    SimEnv fork(world);
    fork.run_job(scenario_config(3), node, 99);
  }
  SimEnv fresh(seed);
  fresh.warmup();
  expect_same_snapshot(world.snapshot(), fresh.snapshot());
  EXPECT_EQ(world.engine().now(), fresh.engine().now());
  EXPECT_EQ(world.engine().num_pending(), fresh.engine().num_pending());
  EXPECT_EQ(world.engine().num_processed(), fresh.engine().num_processed());
  // The same next event: one step lands both clocks on the same instant.
  ASSERT_TRUE(world.engine().step());
  ASSERT_TRUE(fresh.engine().step());
  EXPECT_EQ(world.engine().now(), fresh.engine().now());
  expect_same_run(world.run_job(scenario_config(3), 2, 99),
                  fresh.run_job(scenario_config(3), 2, 99));
}

TEST(Fork, CopyWithJobInFlightThrows) {
  SimEnv world(3);
  world.warmup();
  {
    LaunchedJob job = world.launch_job(scenario_config(5), "in-flight", 0, 1,
                                       [](const spark::AppResult&) {});
    ASSERT_NE(job.app, nullptr);
    world.engine().run_until(world.engine().now() + 1.0);
    EXPECT_THROW(SimEnv{world}, Error);
    world.unbind(job);
  }
  // Destroying the app cancels every closure it held: copyable again.
  EXPECT_NO_THROW(SimEnv{world});
}

}  // namespace
}  // namespace lts::exp
