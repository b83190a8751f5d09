// Serving-path decision throughput on the paper topology, in two cases.
//
// Queue case: a queue of pending pods ranked twice — once decision by
// decision (one schedule() per pod with the snapshot cache disabled, so
// every decision pays its own TSDB sweep and a one-decision flattened
// predict) and once through the batched path (schedule_many: one
// epoch-cached snapshot fetch and one flattened predict_batch over every
// distinct (pod, node) candidate).
//
// Stream case: the shape both stream runners serve per arriving job — a
// batch of one (six candidate rows) on the Trainer::default_params forest
// (800 unpruned trees), one fresh snapshot per decision through the cached
// fetch, exactly the fetch_shared + schedule_many_from_snapshot call the
// runners make.
//
// Every served decision is also checked against a scalar reference (one
// predict_row pointer walk per candidate, ranked by DecisionModule). The
// run FAILS (nonzero exit) if any decision — node order or predicted
// duration, compared bit-for-bit — diverges between the paths or from
// the reference.
//
// Reports decisions/sec plus p50/p99 per-decision latency for every path,
// with provenance (build type, compiler, thread count, seeds, git sha), and
// emits BENCH_decision_throughput.json via exp::BenchReport; CI uploads it
// as the perf-trajectory artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/decision.hpp"
#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/benchio.hpp"
#include "exp/envgen.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lts;

/// Forest with the Table-1 feature layout, trained on a synthetic corpus
/// where duration tracks load and network rates: rankings are non-trivial.
std::shared_ptr<const ml::Regressor> train_model(std::uint64_t seed,
                                                 const Json& params) {
  Rng rng(seed);
  ml::Dataset data;
  data.set_feature_names(core::FeatureConstructor::feature_names());
  telemetry::NodeTelemetry t;
  t.node = "x";
  t.rtt_mean = 0.03;
  t.rtt_max = 0.07;
  t.rtt_std = 0.02;
  t.mem_available = 6.0 * 1024 * 1024 * 1024;
  spark::JobConfig config;
  for (int i = 0; i < 600; ++i) {
    t.cpu_load = rng.uniform(0.0, 6.0);
    t.tx_rate = rng.uniform(1e6, 200e6);
    t.rx_rate = rng.uniform(1e6, 100e6);
    config.app = spark::kAllAppTypes[static_cast<std::size_t>(i) %
                                     spark::kNumAppTypes];
    config.input_records = 100000 * (1 + i % 10);
    const auto x = core::FeatureConstructor::build(t, config);
    data.add_row(x, 2.0 + t.cpu_load + t.tx_rate / 100e6 +
                        config.input_records / 4e5 + 0.05 * rng.normal());
  }
  auto model = ml::create_regressor("random_forest", params);
  model->fit(data);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

/// A queue the way a real control plane sees one: deployments and batch
/// jobs submit replicas, so the 64 pending pods come from 16 distinct pod
/// templates (4 app types x 4 size/executor shapes), 4 replicas each.
/// Replicas are interleaved rather than adjacent — the batched path's row
/// dedup keys on content, not position.
std::vector<spark::JobConfig> make_queue(std::size_t n) {
  constexpr std::size_t kTemplates = 16;
  std::vector<spark::JobConfig> templates;
  for (std::size_t s = 0; s < kTemplates; ++s) {
    spark::JobConfig config;
    config.app = spark::kAllAppTypes[s % spark::kNumAppTypes];
    const auto shape = static_cast<long long>(s / spark::kNumAppTypes);
    config.input_records = 200000 * (1 + shape);
    config.executors = 2 + static_cast<int>(shape % 3);
    config.validate();
    templates.push_back(config);
  }
  std::vector<spark::JobConfig> configs;
  for (std::size_t q = 0; q < n; ++q) {
    configs.push_back(templates[q % kTemplates]);
  }
  return configs;
}

bool decisions_equal(const core::Decision& a, const core::Decision& b) {
  if (a.used_fallback != b.used_fallback ||
      a.stale_demoted != b.stale_demoted ||
      a.ranking.size() != b.ranking.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].node != b.ranking[i].node ||
        a.ranking[i].predicted_duration != b.ranking[i].predicted_duration) {
      return false;
    }
  }
  return true;
}

/// Reference oracle: the pre-batching ranking — one feature row and one
/// predict_row pointer walk per candidate node, ranked by DecisionModule.
core::Decision scalar_reference(const ml::Regressor& model,
                                const telemetry::ClusterSnapshot& snapshot,
                                const spark::JobConfig& config) {
  std::vector<core::NodePrediction> predictions;
  predictions.reserve(snapshot.nodes.size());
  for (const auto& node : snapshot.nodes) {
    predictions.push_back(core::NodePrediction{
        node.node,
        model.predict_row(core::FeatureConstructor::build(node, config))});
  }
  return core::DecisionModule::rank(std::move(predictions));
}

/// HEAD of the source checkout this binary was built from, or "unknown".
std::string git_sha() {
  std::string sha = "unknown";
  FILE* pipe =
      popen("git -C \"" LTS_SOURCE_DIR "\" rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return sha;
  char buf[64] = {};
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    sha = buf;
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
  }
  pclose(pipe);
  return sha.empty() ? "unknown" : sha;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

struct PathResult {
  std::vector<core::Decision> decisions;
  double wall_seconds = 0.0;
  std::vector<double> per_decision_us;
};

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main() {
  // Paper topology (6 nodes / 3 sites), warmed so load averages and NIC
  // rate windows carry signal.
  constexpr std::uint64_t kEnvSeed = 118;
  constexpr std::uint64_t kModelSeed = 7;
  exp::SimEnv env(kEnvSeed);
  env.warmup();
  const SimTime now = env.engine().now();
  // The registry-default forest (100 trees) for the queue case.
  const auto model = train_model(kModelSeed, Json());

  constexpr std::size_t kQueue = 64;
  constexpr int kIterations = 200;
  const auto configs = make_queue(kQueue);

  // Decision-by-decision path: cache disabled, so every schedule() pays a
  // full TSDB sweep plus a one-decision flattened predict.
  core::TelemetryFetcher sequential_fetcher(env.tsdb(), env.node_names());
  sequential_fetcher.set_cache_enabled(false);
  core::LtsScheduler sequential(sequential_fetcher, model);
  // Batched path: epoch-keyed cache on, one schedule_many per queue.
  core::LtsScheduler batched(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), model);

  PathResult sequential_result, batched_result;
  using Clock = std::chrono::steady_clock;
  bool identical = true;

  for (int it = 0; it < kIterations; ++it) {
    std::vector<core::Decision> seq;
    seq.reserve(kQueue);
    const auto seq_begin = Clock::now();
    for (const auto& config : configs) {
      const auto d_begin = Clock::now();
      seq.push_back(sequential.schedule(config, now));
      sequential_result.per_decision_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - d_begin)
              .count());
    }
    sequential_result.wall_seconds +=
        std::chrono::duration<double>(Clock::now() - seq_begin).count();

    const auto batch_begin = Clock::now();
    auto batch = batched.schedule_many(configs, now);
    const double batch_seconds =
        std::chrono::duration<double>(Clock::now() - batch_begin).count();
    batched_result.wall_seconds += batch_seconds;
    batched_result.per_decision_us.push_back(batch_seconds * 1e6 /
                                             static_cast<double>(kQueue));

    for (std::size_t q = 0; q < kQueue; ++q) {
      identical = identical && decisions_equal(seq[q], batch[q]);
    }
    if (it == 0) {
      const auto snapshot = batched.fetcher().fetch(now);
      for (std::size_t q = 0; q < kQueue; ++q) {
        identical = identical &&
                    decisions_equal(batch[q], scalar_reference(
                                                  *model, snapshot,
                                                  configs[q]));
      }
      sequential_result.decisions = std::move(seq);
      batched_result.decisions = std::move(batch);
    }
  }

  // Stream case: one arriving job per simulated second, each ranked alone
  // on the default 800-tree forest from a snapshot as of its arrival.
  constexpr int kStreamDecisions = 300;
  const Json forest_params = core::Trainer::default_params("random_forest");
  const auto forest = train_model(kModelSeed, forest_params);
  core::LtsScheduler streamed(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), forest);
  PathResult stream_result;
  bool stream_identical = true;
  for (int i = 0; i < kStreamDecisions; ++i) {
    env.engine().run_until(env.engine().now() + 1.0);
    const auto& config = configs[static_cast<std::size_t>(i) % kQueue];
    const auto d_begin = Clock::now();
    const auto snapshot = streamed.fetcher().fetch_shared(env.engine().now());
    const auto decision =
        streamed.schedule_many_from_snapshot(*snapshot, {&config, 1}).front();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - d_begin)
            .count();
    stream_result.per_decision_us.push_back(us);
    stream_result.wall_seconds += us * 1e-6;
    stream_identical =
        stream_identical &&
        decisions_equal(decision, scalar_reference(*forest, *snapshot, config));
  }

  const double total =
      static_cast<double>(kQueue) * static_cast<double>(kIterations);
  const double sequential_dps = total / sequential_result.wall_seconds;
  const double batched_dps = total / batched_result.wall_seconds;
  const double speedup = batched_dps / sequential_dps;
  const double stream_dps =
      static_cast<double>(kStreamDecisions) / stream_result.wall_seconds;

  exp::BenchReport report("decision_throughput");
  report.note("git_sha", git_sha());
#ifdef NDEBUG
  report.note("build_type", LTS_BUILD_TYPE " (NDEBUG)");
#else
  report.note("build_type", LTS_BUILD_TYPE);
#endif
  report.note("compiler", "gcc " __VERSION__);
  report.note("threads", std::to_string(ThreadPool::global().size()));
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("seeds", "env " + std::to_string(kEnvSeed) + ", model " +
                           std::to_string(kModelSeed));
  report.note("workload",
              "queue: 64-pod queue (16 pod templates x 4 replicas) on the "
              "paper topology (6 nodes / 3 sites), registry-default "
              "random forest (100 trees), 200 iterations; stream: 300 "
              "batch-of-one decisions, one per simulated second, on the "
              "Trainer::default_params random forest (800 trees, depth "
              "cap 40)");
  report.note("baseline",
              "queue: one schedule() per pod, snapshot cache disabled "
              "(per-decision TSDB sweep + one-decision flattened predict)");
  report.note("optimized",
              "queue: schedule_many: epoch-cached snapshot fetch + exact "
              "dedup of replica (pod, node) rows + flattened predict_batch "
              "over the distinct candidates");
  report.note("stream",
              "fetch_shared + schedule_many_from_snapshot(snapshot, "
              "{&config, 1}), the call both stream runners make per job");
  report.note("gate",
              "every decision equals a scalar predict_row reference bit for "
              "bit; queue paths also equal each other");
  const std::string label = "queue/" + std::to_string(kQueue);
  report.add(label, "sequential_decisions_per_sec", sequential_dps, "1/s");
  report.add(label, "batched_decisions_per_sec", batched_dps, "1/s");
  report.add(label, "speedup", speedup);
  report.add(label, "sequential_p50_us",
             percentile(sequential_result.per_decision_us, 0.50), "us");
  report.add(label, "sequential_p99_us",
             percentile(sequential_result.per_decision_us, 0.99), "us");
  report.add(label, "batched_p50_us",
             percentile(batched_result.per_decision_us, 0.50), "us");
  report.add(label, "batched_p99_us",
             percentile(batched_result.per_decision_us, 0.99), "us");
  report.add(label, "decisions_identical", identical ? 1.0 : 0.0);
  const std::string stream_label = "stream/batch1-6node-default-forest";
  report.add(stream_label, "trees",
             forest_params.at("n_estimators").as_double());
  report.add(stream_label, "decisions_per_sec", stream_dps, "1/s");
  report.add(stream_label, "p50_us",
             percentile(stream_result.per_decision_us, 0.50), "us");
  report.add(stream_label, "p99_us",
             percentile(stream_result.per_decision_us, 0.99), "us");
  report.add(stream_label, "decisions_identical",
             stream_identical ? 1.0 : 0.0);

  AsciiTable table({"path", "decisions/sec", "p50 (us)", "p99 (us)"});
  table.add_row({"queue: one by one", fmt(sequential_dps, "%.0f"),
                 fmt(percentile(sequential_result.per_decision_us, 0.50)),
                 fmt(percentile(sequential_result.per_decision_us, 0.99))});
  table.add_row({"queue: batched+cached", fmt(batched_dps, "%.0f"),
                 fmt(percentile(batched_result.per_decision_us, 0.50)),
                 fmt(percentile(batched_result.per_decision_us, 0.99))});
  table.add_row({"stream: batch of one, 800 trees", fmt(stream_dps, "%.0f"),
                 fmt(percentile(stream_result.per_decision_us, 0.50)),
                 fmt(percentile(stream_result.per_decision_us, 0.99))});
  std::printf("%s", table.render("Decision throughput").c_str());
  std::printf("\nqueue speedup: %.1fx  queue decisions identical: %s  "
              "stream decisions identical: %s\n",
              speedup, identical ? "yes" : "NO",
              stream_identical ? "yes" : "NO");
  report.write("BENCH_decision_throughput.json");
  std::printf("wrote BENCH_decision_throughput.json\n");

  if (!identical || !stream_identical) {
    std::fprintf(stderr,
                 "ERROR: served decisions diverged from each other or from "
                 "the scalar predict_row reference\n");
    return 1;
  }
  return 0;
}
