// Golden end-to-end replay: a fixed-seed scenario's full decision trace and
// final metrics, compared byte-for-byte against a checked-in golden file.
//
// The default configuration (no faults, no degradation policies) must keep
// producing exactly the same simulated world: same telemetry snapshot after
// warmup, same default-scheduler ranking, same per-job placements and
// completion times. Any unintended behavioral drift — an extra Rng draw, a
// reordered event, a changed constant — shows up here as a one-line diff
// long before it would be noticed in aggregate experiment statistics.
//
// A second record pins a reduced Table-4 reproduction (collect -> linear
// fit -> counterfactual evaluation): the training-table bytes, every
// method's ranking per scenario, and the counterfactual durations and
// accuracy rows as hex-floats. It guards the order-dependent parts of that
// pipeline (training-log row order, Top-k and regret accumulation) against
// any reordering, however the work is scheduled across threads.
//
// To regenerate after an *intended* behavior change:
//   LTS_UPDATE_GOLDEN=1 ./replay_test
// and commit the updated tests/golden/*.json with the change that caused
// it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "util/json.hpp"

namespace lts {
namespace {

constexpr std::uint64_t kSeed = 4242;

std::string golden_path(const std::string& name) {
  return std::string(LTS_SOURCE_DIR) + "/golden/" + name;
}

/// Compares `actual` byte-for-byte with the checked-in golden file `name`,
/// or rewrites that file when LTS_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("LTS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with LTS_UPDATE_GOLDEN=1 to create it";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  // Byte-identical, including float formatting.
  EXPECT_EQ(actual, expected)
      << name << " diverged from the golden record; if this change in "
      << "behavior is intended, regenerate with LTS_UPDATE_GOLDEN=1 and "
      << "commit the new golden file";
}

/// Exact text form of a double ("%a"): the golden diff shows any last-bit
/// change instead of hiding it behind decimal rounding.
std::string hex_float(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Json snapshot_to_json(const telemetry::ClusterSnapshot& snapshot) {
  Json j = Json::object();
  j["at"] = snapshot.at;
  Json nodes = Json::array();
  for (const auto& n : snapshot.nodes) {
    Json row = Json::object();
    row["node"] = n.node;
    row["rtt_mean"] = n.rtt_mean;
    row["rtt_max"] = n.rtt_max;
    row["rtt_std"] = n.rtt_std;
    row["tx_rate"] = n.tx_rate;
    row["rx_rate"] = n.rx_rate;
    row["cpu_load"] = n.cpu_load;
    row["mem_available"] = n.mem_available;
    row["uplink_util"] = n.uplink_util;
    row["downlink_util"] = n.downlink_util;
    row["queue_delay"] = n.queue_delay;
    row["active_flows"] = n.active_flows;
    row["last_seen"] = n.last_seen;
    row["has_data"] = n.has_data;
    nodes.push_back(row);
  }
  j["nodes"] = nodes;
  return j;
}

Json stream_to_json(const exp::StreamResult& run) {
  Json j = Json::object();
  Json jobs = Json::array();
  for (const auto& job : run.jobs) {
    Json row = Json::object();
    row["scenario"] = job.scenario_id;
    row["driver_node"] = job.driver_node;
    row["submitted"] = job.submitted;
    row["duration"] = job.duration;
    jobs.push_back(row);
  }
  j["jobs"] = jobs;
  j["makespan"] = run.makespan;
  return j;
}

/// The replay record: everything below is a pure function of kSeed under the
/// default configuration.
Json build_replay_record() {
  const auto matrix = exp::paper_scenario_matrix();
  Json record = Json::object();
  record["seed"] = static_cast<double>(kSeed);

  // World state at warmup time + the default kube scheduler's view of it.
  {
    exp::SimEnv env(kSeed, {});
    env.warmup();
    record["snapshot"] = snapshot_to_json(env.snapshot());
    const auto kube = env.kube_ranking(matrix.front().config);
    Json ranking = Json::array();
    for (const auto& scored : kube.ranking) ranking.push_back(scored.name);
    record["kube_ranking"] = ranking;
  }

  // Two live streams (placement decisions + completion times) under the two
  // model-free policies; together they exercise engine, network, cluster,
  // telemetry, kube scheduling, and the Spark runtime end to end.
  exp::StreamOptions stream;
  stream.num_jobs = 8;
  stream.seed = kSeed;
  record["stream_kube"] = stream_to_json(exp::run_job_stream(
      exp::StreamPolicy::kKubeDefault, nullptr, matrix, stream));
  record["stream_random"] = stream_to_json(exp::run_job_stream(
      exp::StreamPolicy::kRandom, nullptr, matrix, stream));
  return record;
}

TEST(GoldenReplay, DefaultConfigMatchesCheckedInTrace) {
  expect_matches_golden("replay_golden.json",
                        build_replay_record().dump(2) + "\n");
}

TEST(GoldenReplay, RecordIsItselfDeterministic) {
  // Guard against the golden record depending on anything besides the seed
  // (wall clock, address ordering, global state left by other tests).
  EXPECT_EQ(build_replay_record().dump(2), build_replay_record().dump(2));
}

/// The reduced Table-4 record: 4 configs x 6 nodes x 1 repeat collected,
/// a linear fit, then 6 evaluation scenarios with single-run counterfactual
/// truth and both telemetry heuristics.
Json build_table4_record() {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(4);
  exp::CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = exp::collect_training_data(matrix, collect);
  std::ostringstream csv;
  log.write(csv);

  Json record = Json::object();
  Json training = Json::object();
  training["rows"] = static_cast<double>(log.num_rows());
  training["csv_fnv1a"] = fnv1a_hex(csv.str());
  record["training"] = training;

  const auto data = core::Trainer::dataset_from_log(log);
  std::vector<std::pair<std::string, std::shared_ptr<const ml::Regressor>>>
      models;
  models.emplace_back("linear", std::shared_ptr<const ml::Regressor>(
                                    core::Trainer::train("linear", data)));
  exp::EvalOptions eval;
  eval.num_scenarios = 6;
  eval.truth_repeats = 1;
  eval.heuristics = {"least_cpu", "least_rtt"};
  const auto result = exp::evaluate_methods(models, matrix, eval);

  Json scenarios = Json::array();
  for (const auto& outcome : result.outcomes) {
    Json row = Json::object();
    row["scenario"] = outcome.scenario_id;
    row["seed"] = static_cast<double>(outcome.seed);
    Json durations = Json::array();
    for (const double d : outcome.node_durations) {
      durations.push_back(hex_float(d));
    }
    row["node_durations"] = durations;
    row["fastest_node"] = static_cast<double>(outcome.fastest_node);
    Json rankings = Json::object();
    for (const auto& [method, ranking] : outcome.rankings) {
      Json order = Json::array();
      for (const std::size_t node : ranking) {
        order.push_back(static_cast<double>(node));
      }
      rankings[method] = order;
    }
    row["rankings"] = rankings;
    scenarios.push_back(row);
  }
  record["scenarios"] = scenarios;

  Json accuracy = Json::array();
  for (const auto& acc : result.accuracy) {
    Json row = Json::object();
    row["method"] = acc.method;
    row["top1"] = hex_float(acc.top1);
    row["top2"] = hex_float(acc.top2);
    row["mean_regret"] = hex_float(acc.mean_regret);
    accuracy.push_back(row);
  }
  record["accuracy"] = accuracy;
  return record;
}

TEST(GoldenReplay, ReducedTable4MatchesCheckedInRecord) {
  expect_matches_golden("table4_golden.json",
                        build_table4_record().dump(2) + "\n");
}

}  // namespace
}  // namespace lts
