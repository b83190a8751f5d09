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
// A third record pins the learned and multi-tenant streams: a backlogged
// kModel stream (placement retries), a kModelRetrain stream under network
// drift (model versions, retrain outcomes) and a two-tenant DRF mix that
// preempts. Every per-job time is a hex-float, so the job lifecycle both
// stream runners share (bind, launch, completion, retry accounting) cannot
// drift by a single bit unnoticed.
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
#include "tenant/stream.hpp"
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

/// Per-job outcome of a stream, times as hex-floats; `preemptions` only
/// for tenant streams.
Json stream_jobs_to_json(const std::vector<exp::StreamJobResult>& jobs,
                         bool with_preemptions) {
  Json rows = Json::array();
  for (const auto& job : jobs) {
    Json row = Json::object();
    row["scenario"] = job.scenario_id;
    row["driver_node"] = job.driver_node;
    row["planned_arrival"] = hex_float(job.planned_arrival);
    row["submitted"] = hex_float(job.submitted);
    row["queueing_delay"] = hex_float(job.queueing_delay);
    row["duration"] = hex_float(job.duration);
    row["placement_retries"] = static_cast<double>(job.placement_retries);
    if (with_preemptions) {
      row["preemptions"] = static_cast<double>(job.preemptions);
    }
    rows.push_back(row);
  }
  return rows;
}

int total_retries(const std::vector<exp::StreamJobResult>& jobs) {
  int total = 0;
  for (const auto& job : jobs) total += job.placement_retries;
  return total;
}

/// The streams record: a linear model fitted on a reduced collect (as in
/// the Table-4 record) serves a backlogged kModel stream and a
/// kModelRetrain stream under a drift schedule; a two-tenant DRF mix (a
/// best-effort burst against a guaranteed-quota tenant on the model)
/// preempts. Asserts that the record really covers retries and
/// preemptions, so a parameter change cannot silently drop those paths.
Json build_streams_record() {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(4);
  exp::CollectorOptions collect;
  collect.repeats = 1;
  const auto model = std::shared_ptr<const ml::Regressor>(core::Trainer::train(
      "linear", core::Trainer::dataset_from_log(
                    exp::collect_training_data(matrix, collect))));
  matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  Json record = Json::object();

  {
    exp::StreamOptions options;
    options.num_jobs = 10;
    options.mean_interarrival = 1.0;
    options.seed = kSeed;
    const auto run = exp::run_job_stream(exp::StreamPolicy::kModel, model,
                                         matrix, options);
    EXPECT_GT(total_retries(run.jobs), 0) << "kModel stream never retried";
    Json j = Json::object();
    j["jobs"] = stream_jobs_to_json(run.jobs, false);
    j["makespan"] = hex_float(run.makespan);
    record["stream_model"] = j;
  }

  {
    exp::StreamOptions options;
    options.num_jobs = 15;
    options.mean_interarrival = 8.0;
    options.seed = kSeed;
    options.env.faults = exp::generate_drift_schedule(
        options.env.cluster_spec, kSeed, exp::DriftScheduleOptions{});
    options.retrain.retrain_every = 5;
    options.retrain.min_rows = 4;
    options.retrain.window_size = 40;
    options.retrain.model_name = "linear";
    options.retrain.holdout_gate_slack = -1.0;
    const auto run = exp::run_job_stream(exp::StreamPolicy::kModelRetrain,
                                         model, matrix, options);
    EXPECT_FALSE(run.retrain_events.empty());
    Json j = Json::object();
    j["jobs"] = stream_jobs_to_json(run.jobs, false);
    j["makespan"] = hex_float(run.makespan);
    j["model_version"] = static_cast<double>(run.model_version);
    Json events = Json::array();
    for (const auto& event : run.retrain_events) {
      Json e = Json::object();
      e["outcome"] = core::to_string(event.outcome);
      e["version"] = static_cast<double>(event.version);
      events.push_back(e);
    }
    j["retrain_events"] = events;
    record["stream_retrain"] = j;
  }

  {
    constexpr Bytes kGiB = 1024.0 * 1024.0 * 1024.0;
    // One standard hog job (4 cores) and one 9-core vip job: the hog burst
    // saturates the cluster, so the vip's within-quota demand preempts.
    exp::Scenario hog_job;
    hog_job.id = "hog-sort";
    hog_job.config.app = spark::AppType::kSort;
    hog_job.config.input_records = 1000000;
    exp::Scenario vip_job = hog_job;
    vip_job.id = "vip-sort";
    vip_job.config.executors = 4;
    vip_job.config.executor_cores = 2.0;

    tenant::TenantStreamsOptions options;
    options.seed = kSeed;
    options.sharing = tenant::SharingMode::kDrf;
    options.tenants.resize(2);
    tenant::TenantStreamOptions& hog = options.tenants[0];
    hog.spec.name = "hog";  // zero quota: every job BestEffort
    hog.policy = exp::StreamPolicy::kKubeDefault;
    hog.num_jobs = 12;
    hog.arrivals.process = tenant::ArrivalProcess::kBursty;
    hog.arrivals.mean_interarrival = 0.5;
    hog.arrivals.burst_size = 12;
    hog.arrivals.burst_spacing = 0.1;
    tenant::TenantStreamOptions& vip = options.tenants[1];
    vip.spec.name = "vip";
    vip.spec.quota = {9.0, 6.0 * kGiB};
    vip.policy = exp::StreamPolicy::kModel;
    vip.model = model;
    vip.num_jobs = 3;
    vip.arrivals.mean_interarrival = 30.0;
    const auto run =
        tenant::run_tenant_streams({hog_job, vip_job}, options);
    EXPECT_GT(run.total_preemptions, 0) << "tenant mix never preempted";
    Json j = Json::object();
    Json tenants = Json::array();
    for (const auto& t : run.tenants) {
      Json row = Json::object();
      row["tenant"] = t.tenant;
      row["jobs"] = stream_jobs_to_json(t.jobs, true);
      row["makespan"] = hex_float(t.makespan);
      row["share_integral"] = hex_float(t.share_integral);
      tenants.push_back(row);
    }
    j["tenants"] = tenants;
    j["jain_share"] = hex_float(run.jain_share);
    j["offer_rounds"] = static_cast<double>(run.offer_rounds);
    j["total_preemptions"] = static_cast<double>(run.total_preemptions);
    record["tenant_drf"] = j;
  }
  return record;
}

TEST(GoldenReplay, StreamsMatchCheckedInRecord) {
  expect_matches_golden("stream_golden.json",
                        build_streams_record().dump(2) + "\n");
}

}  // namespace
}  // namespace lts
