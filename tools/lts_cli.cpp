// lts — command-line front end for the Learning-to-Schedule library.
//
//   lts topology  [--sites N] [--nodes-per-site M]
//   lts collect   --out FILE [--configs N] [--repeats R] [--seed S]
//                 [--residual-job]
//   lts train     --log FILE --out FILE [--model NAME] [--features SET]
//   lts evaluate  --model-file FILE [--scenarios N] [--seed S]
//                 [--features SET]
//   lts schedule  --model-file FILE [--seed S] [--app TYPE]
//                 [--records N] [--executors E] [--features SET]
//                 [--faults FILE] [--at T] [--degraded] [--max-staleness S]
//                 [--queue N]
//   lts stream    --model-file FILE [--policy model|model-retrain|kube|random]
//                 [--jobs N] [--interarrival S] [--seed S] [--features SET]
//                 [--faults FILE] [--drift] [--degraded] [--max-staleness S]
//                 [--retrain-every K] [--retrain-window N] [--retrain-model M]
//                 [--drift-threshold X] [--model-out FILE]
//   lts whatif    [--seed S] [--app TYPE] [--records N] [--executors E]
//
// SET is "table1" (paper) or "rich" (§8 extension). --faults FILE injects a
// JSON fault schedule (array of {kind, target, at, duration, severity}; see
// src/fault/fault.hpp) into the simulated cluster, and --degraded turns on
// the scheduler's staleness/fallback policies (and makes --model-file
// optional: with no model every decision uses the fallback ranking). All
// commands are self-contained simulations; no external services are needed.
// --queue N ranks a queue of N pending jobs (the requested job plus N-1
// variants cycling the app mix) in one batched schedule_many pass: one
// cached snapshot fetch, one flattened-tree predict over every (pod, node)
// candidate.
//
// `lts stream` runs a live job stream under one placement policy. With
// --policy model-retrain the scheduler retrains online: every K completions
// (or when the prediction-error EWMA exceeds --drift-threshold) it refits
// on the rolling window and hot-swaps the model; --model-out saves the
// final versioned model. --drift overlays a deterministic escalating WAN
// degradation staircase so the network actually shifts mid-stream.
//
// Observability (evaluate/schedule/query): --metrics-out FILE enables the
// lts::obs metrics registry and writes a Prometheus text-format dump after
// the command finishes; --trace-out FILE enables per-decision trace spans
// and writes them as a JSON array. Both are off without the flags and add
// no overhead.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "telemetry/promql.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace lts;

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw Error("unexpected argument: " + key);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";  // boolean flag
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw Error("missing required --" + key);
    return it->second;
  }
  long long get_int(const std::string& key, long long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool get_flag(const std::string& key) const {
    return values_.count(key) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Enables the global metrics registry / tracer when --metrics-out /
/// --trace-out are present (must happen before the simulation runs) and
/// writes the files on flush().
class ObsSink {
 public:
  explicit ObsSink(const Args& args)
      : metrics_path_(args.get("metrics-out", "")),
        trace_path_(args.get("trace-out", "")) {
    if (!metrics_path_.empty()) {
      obs::MetricsRegistry::global().set_enabled(true);
    }
    if (!trace_path_.empty()) obs::Tracer::global().set_enabled(true);
  }

  void flush() const {
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) throw Error("cannot write metrics file: " + metrics_path_);
      out << obs::MetricsRegistry::global().prometheus_text();
      std::fprintf(stderr, "metrics written to %s\n", metrics_path_.c_str());
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (!out) throw Error("cannot write trace file: " + trace_path_);
      out << obs::Tracer::global().to_json().dump(2) << "\n";
      std::fprintf(stderr, "%zu trace span(s) written to %s\n",
                   obs::Tracer::global().num_spans(), trace_path_.c_str());
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

core::FeatureSet feature_set(const Args& args) {
  const std::string set = args.get("features", "table1");
  if (set == "table1") return core::FeatureSet::kTable1;
  if (set == "rich") return core::FeatureSet::kRich;
  throw Error("unknown --features (use table1 or rich): " + set);
}

std::vector<fault::FaultSpec> faults_from_args(const Args& args) {
  const std::string path = args.get("faults", "");
  if (path.empty()) return {};
  std::ifstream in(path);
  if (!in) throw Error("cannot read fault schedule: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return fault::faults_from_json(Json::parse(text.str()));
}

/// Loads a model envelope with a clean diagnostic on failure (unreadable
/// file, corrupt JSON, unknown model type — the load path reports the file
/// and the reason instead of letting a raw parse exception escape). With
/// `allow_fallback` (--degraded), a bad model file degrades to the
/// spreading fallback ranking (null model) instead of aborting the command.
std::shared_ptr<const ml::Regressor> load_model_cli(const std::string& path,
                                                    bool allow_fallback) {
  try {
    auto loaded = ml::load_model_envelope(path);
    if (loaded.version > 0) {
      std::fprintf(stderr, "loaded %s (model version %llu)\n", path.c_str(),
                   static_cast<unsigned long long>(loaded.version));
    }
    return std::shared_ptr<const ml::Regressor>(std::move(loaded.model));
  } catch (const std::exception& e) {
    if (!allow_fallback) throw;
    std::fprintf(stderr,
                 "warning: %s\nwarning: --degraded set, continuing with the "
                 "fallback spreading heuristic (no model)\n",
                 e.what());
    return nullptr;
  }
}

spark::JobConfig job_from_args(const Args& args) {
  spark::JobConfig job;
  job.app = spark::app_type_from_string(args.get("app", "sort"));
  job.input_records = args.get_int("records", 1000000);
  job.executors = static_cast<int>(args.get_int("executors", 4));
  job.record_bytes = 200.0;
  job.validate();
  return job;
}

int cmd_topology(const Args& args) {
  exp::EnvOptions env_options;
  const int sites = static_cast<int>(args.get_int("sites", 3));
  const int per_site = static_cast<int>(args.get_int("nodes-per-site", 2));
  if (sites != 3 || per_site != 2) {
    env_options.cluster_spec = exp::scaled_cluster_spec(sites, per_site);
  }
  const auto matrix = exp::figure_topology(env_options);
  std::vector<std::string> header{"site"};
  for (const auto& s : matrix.sites) header.push_back(s);
  AsciiTable table(header);
  for (std::size_t i = 0; i < matrix.sites.size(); ++i) {
    std::vector<std::string> row{matrix.sites[i]};
    for (std::size_t j = 0; j < matrix.sites.size(); ++j) {
      row.push_back(i == j ? "-" : strformat("%.1f", matrix.rtt_ms[i][j]));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render("Inter-site RTT (ms)").c_str());
  return 0;
}

int cmd_collect(const Args& args) {
  const std::string out = args.require("out");
  auto matrix = exp::paper_scenario_matrix();
  const auto configs = args.get_int("configs", 60);
  if (configs < static_cast<long long>(matrix.size())) {
    matrix.resize(static_cast<std::size_t>(configs));
  }
  exp::CollectorOptions options;
  options.repeats = static_cast<int>(args.get_int("repeats", 10));
  options.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 12000));
  options.residual_job = args.get_flag("residual-job");
  options.progress = [](std::size_t done, std::size_t total) {
    if (done % 360 == 0 || done == total) {
      std::fprintf(stderr, "  %zu/%zu samples\n", done, total);
    }
  };
  const CsvTable log = exp::collect_training_data(matrix, options);
  log.write_file(out);
  std::printf("wrote %zu samples to %s\n", log.num_rows(), out.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const CsvTable log = CsvTable::read_file(args.require("log"));
  const std::string out = args.require("out");
  const std::string model_name = args.get("model", "random_forest");
  const auto set = feature_set(args);
  const auto data = core::Trainer::dataset_from_log(log, set);
  std::unique_ptr<ml::Regressor> model;
  const auto report = core::Trainer::train_and_evaluate(
      model_name, data, 0.2, 7, Json(), &model);
  // Refit on everything before shipping.
  model = core::Trainer::train(model_name, data);
  ml::save_model(*model, out);
  std::printf("trained %s on %zu rows (holdout RMSE %.2fs, R^2 %.3f)\n",
              model_name.c_str(), data.size(), report.test_rmse,
              report.test_r2);
  std::printf("model written to %s\n", out.c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  ObsSink obs_sink(args);
  const auto set = feature_set(args);
  const auto model =
      load_model_cli(args.require("model-file"), /*allow_fallback=*/false);
  exp::EvalOptions eval;
  eval.num_scenarios = static_cast<int>(args.get_int("scenarios", 60));
  eval.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 770000));
  std::vector<exp::MethodUnderTest> methods;
  methods.push_back({model->name(), model, set});
  const auto result =
      exp::evaluate_methods(methods, exp::paper_scenario_matrix(), eval);
  AsciiTable table({"Method", "Top-1", "Top-2", "Regret (s)"});
  for (const auto& acc : result.accuracy) {
    table.add_row_numeric(acc.method, {acc.top1, acc.top2, acc.mean_regret},
                          3);
  }
  std::printf("%s", table.render("Node-selection accuracy").c_str());
  obs_sink.flush();
  return 0;
}

int cmd_schedule(const Args& args) {
  ObsSink obs_sink(args);
  const auto set = feature_set(args);
  // With --degraded the fallback ranking handles a missing model, so
  // --model-file becomes optional (useful to inspect the pure fallback).
  std::shared_ptr<const ml::Regressor> model;
  if (!args.get_flag("degraded") || !args.get("model-file", "").empty()) {
    model = load_model_cli(args.require("model-file"),
                           args.get_flag("degraded"));
  }
  const auto job = job_from_args(args);
  exp::EnvOptions env_options;
  env_options.faults = faults_from_args(args);
  exp::SimEnv env(static_cast<std::uint64_t>(args.get_int("seed", 118)),
                  env_options);
  env.warmup();
  const auto at = static_cast<SimTime>(
      args.get_double("at", env.options().warmup));
  env.engine().run_until(at);
  core::DegradationOptions degradation;
  core::FallbackOptions fallback;
  if (args.get_flag("degraded")) {
    degradation.enabled = true;
    degradation.max_staleness = args.get_double("max-staleness", 10.0);
    fallback.enabled = true;
  }
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names(), {}, degradation),
      model, set, /*risk_aversion=*/0.0, fallback);
  const auto queue = args.get_int("queue", 1);
  if (queue > 1) {
    // Batched serving path: the requested job plus queue-1 variants cycling
    // the app mix, ranked in one schedule_many pass (one cached snapshot
    // fetch, one batched predict over every (pod, node) candidate).
    std::vector<spark::JobConfig> configs;
    for (long long q = 0; q < queue; ++q) {
      spark::JobConfig item = job;
      item.app = spark::kAllAppTypes[static_cast<std::size_t>(q) %
                                     spark::kNumAppTypes];
      configs.push_back(item);
    }
    const auto decisions =
        scheduler.schedule_many(configs, env.engine().now());
    AsciiTable table({"job", "app", "node", "predicted duration (s)",
                      "note"});
    for (std::size_t q = 0; q < decisions.size(); ++q) {
      const auto& d = decisions[q];
      std::string note;
      if (d.used_fallback) {
        note = "fallback";
      } else if (d.stale_demoted > 0) {
        note = strformat("%d stale demoted", d.stale_demoted);
      }
      table.add_row({std::to_string(q + 1),
                     spark::to_string(configs[q].app), d.selected(),
                     strformat("%.2f", d.ranking.front().predicted_duration),
                     note});
    }
    std::printf("%s", table.render(strformat("Queue of %lld decisions",
                                             queue)).c_str());
    obs_sink.flush();
    return 0;
  }
  const auto decision = scheduler.schedule(job, env.engine().now());
  AsciiTable table({"rank", "node", "predicted duration (s)"});
  for (std::size_t i = 0; i < decision.ranking.size(); ++i) {
    table.add_row({std::to_string(i + 1), decision.ranking[i].node,
                   strformat("%.2f", decision.ranking[i].predicted_duration)});
  }
  std::printf("%s\n", table.render("Decision").c_str());
  if (decision.used_fallback) {
    std::printf("note: fallback ranking used (model or telemetry unusable)\n");
  } else if (decision.stale_demoted > 0) {
    std::printf("note: %d stale node(s) demoted to the bottom of the ranking\n",
                decision.stale_demoted);
  }
  std::printf("%s", scheduler.build_manifest(job, "lts-cli-job", decision)
                        .c_str());
  obs_sink.flush();
  return 0;
}

int cmd_stream(const Args& args) {
  ObsSink obs_sink(args);
  const std::string policy_name = args.get("policy", "model");
  exp::StreamPolicy policy;
  if (policy_name == "model") {
    policy = exp::StreamPolicy::kModel;
  } else if (policy_name == "model-retrain") {
    policy = exp::StreamPolicy::kModelRetrain;
  } else if (policy_name == "kube") {
    policy = exp::StreamPolicy::kKubeDefault;
  } else if (policy_name == "random") {
    policy = exp::StreamPolicy::kRandom;
  } else {
    throw Error("unknown --policy (use model, model-retrain, kube or "
                "random): " + policy_name);
  }

  exp::StreamOptions stream;
  stream.num_jobs = static_cast<int>(args.get_int("jobs", 30));
  stream.mean_interarrival = args.get_double("interarrival", 12.0);
  stream.seed = static_cast<std::uint64_t>(args.get_int("seed", 118));
  stream.features = feature_set(args);
  stream.env.faults = faults_from_args(args);
  if (args.get_flag("degraded")) {
    stream.degradation.enabled = true;
    stream.degradation.max_staleness = args.get_double("max-staleness", 10.0);
    stream.fallback.enabled = true;
  }
  stream.retrain.retrain_every = static_cast<int>(
      args.get_int("retrain-every", stream.retrain.retrain_every));
  stream.retrain.window_size = static_cast<std::size_t>(args.get_int(
      "retrain-window", static_cast<long long>(stream.retrain.window_size)));
  stream.retrain.drift_threshold =
      args.get_double("drift-threshold", stream.retrain.drift_threshold);
  stream.retrain.model_name =
      args.get("retrain-model", stream.retrain.model_name);
  if (args.get_flag("drift")) {
    const auto drift = exp::generate_drift_schedule(stream.env.cluster_spec,
                                                    stream.seed);
    stream.env.faults.insert(stream.env.faults.end(), drift.begin(),
                             drift.end());
  }

  const bool model_policy = policy == exp::StreamPolicy::kModel ||
                            policy == exp::StreamPolicy::kModelRetrain;
  std::shared_ptr<const ml::Regressor> model;
  if (model_policy &&
      (!args.get_flag("degraded") || !args.get("model-file", "").empty())) {
    model = load_model_cli(args.require("model-file"),
                           args.get_flag("degraded"));
  }

  const auto run = exp::run_job_stream(policy, model,
                                       exp::paper_scenario_matrix(), stream);
  const auto summary = exp::summarize_stream(run);

  AsciiTable table({"metric", "value"});
  table.add_row({"jobs", std::to_string(summary.jobs)});
  table.add_row({"mean JCT (s)", strformat("%.2f", summary.mean_jct)});
  table.add_row({"p50 JCT (s)", strformat("%.2f", summary.p50_jct)});
  table.add_row({"p95 JCT (s)", strformat("%.2f", summary.p95_jct)});
  table.add_row({"p99 JCT (s)", strformat("%.2f", summary.p99_jct)});
  table.add_row({"makespan (s)", strformat("%.2f", summary.makespan)});
  if (policy == exp::StreamPolicy::kModelRetrain) {
    table.add_row({"model version", std::to_string(summary.model_version)});
    table.add_row({"retrains", std::to_string(summary.retrains)});
    table.add_row({"retrain failures",
                   std::to_string(summary.retrain_failures)});
    table.add_row({"retrain skips", std::to_string(summary.retrain_skips)});
  }
  std::printf("%s", table.render("Stream (" + policy_name + ")").c_str());
  for (const auto& event : run.retrain_events) {
    std::printf("retrain -> %s: version %llu, %zu rows, drift %.3f%s (%s)\n",
                core::to_string(event.outcome).c_str(),
                static_cast<unsigned long long>(event.version),
                event.window_rows, event.drift_score,
                event.drift_triggered ? " [drift-triggered]" : "",
                event.detail.c_str());
  }

  const std::string model_out = args.get("model-out", "");
  if (!model_out.empty()) {
    LTS_REQUIRE(run.final_model != nullptr,
                "lts stream: --model-out needs --policy model-retrain");
    ml::save_model(*run.final_model, model_out, run.model_version);
    std::printf("model (version %llu) written to %s\n",
                static_cast<unsigned long long>(run.model_version),
                model_out.c_str());
  }
  obs_sink.flush();
  return 0;
}

int cmd_query(const Args& args) {
  // Evaluates a PromQL-mini expression against a warmed environment's
  // metrics server: lts query --expr 'node_cpu_load' [--seed S] [--at T]
  ObsSink obs_sink(args);
  exp::SimEnv env(static_cast<std::uint64_t>(args.get_int("seed", 118)));
  const SimTime at = static_cast<SimTime>(
      args.get_int("at", static_cast<long long>(env.options().warmup)));
  env.engine().run_until(at);
  const auto query = telemetry::parse_promql(args.require("expr"));
  const auto results = telemetry::eval_promql(query, env.tsdb(), at);
  if (results.empty()) {
    std::printf("(no data)\n");
    obs_sink.flush();
    return 0;
  }
  AsciiTable table({"series", "value"});
  for (const auto& r : results) {
    std::string labels;
    for (const auto& [k, v] : r.labels) {
      if (!labels.empty()) labels += ",";
      labels += k + "=" + v;
    }
    table.add_row({"{" + labels + "}", strformat("%.6g", r.value)});
  }
  std::printf("%s", table.render(query.to_string()).c_str());
  obs_sink.flush();
  return 0;
}

int cmd_whatif(const Args& args) {
  const auto job = job_from_args(args);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 118));
  exp::SimEnv probe(seed);
  probe.warmup();
  const auto snap = probe.snapshot();
  AsciiTable table({"node", "rtt_mean(ms)", "tx(MB/s)", "rx(MB/s)",
                    "cpu_load", "duration(s)"});
  for (std::size_t n = 0; n < probe.node_names().size(); ++n) {
    exp::SimEnv env(probe);  // the same warmed world, branched per node
    const auto result = env.run_job(job, n, seed ^ 0xF00DULL);
    const auto& t = snap.nodes[n];
    table.add_row({t.node, strformat("%.1f", t.rtt_mean * 1e3),
                   strformat("%.1f", t.tx_rate / 1e6),
                   strformat("%.1f", t.rx_rate / 1e6),
                   strformat("%.2f", t.cpu_load),
                   strformat("%.2f", result.duration())});
  }
  std::printf("%s", table.render("Counterfactual placements").c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: lts "
               "<topology|collect|train|evaluate|schedule|stream|whatif|query> "
               "[--flags]\n(see the header of tools/lts_cli.cpp)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "topology") return cmd_topology(args);
    if (command == "collect") return cmd_collect(args);
    if (command == "train") return cmd_train(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "stream") return cmd_stream(args);
    if (command == "whatif") return cmd_whatif(args);
    if (command == "query") return cmd_query(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lts %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
