#include "exp/evaluate.hpp"

#include <algorithm>
#include <mutex>

#include "core/scheduler.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace lts::exp {

const MethodAccuracy& EvalResult::by_method(const std::string& name) const {
  for (const auto& m : accuracy) {
    if (m.method == name) return m;
  }
  throw Error("EvalResult: no method named " + name);
}

namespace {

/// Ranks node indices by ascending key, ties broken by index for
/// determinism.
std::vector<std::size_t> rank_by(const std::vector<double>& keys) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  return order;
}

bool hit_topk(const std::vector<std::size_t>& ranking, std::size_t fastest,
              int k) {
  const std::size_t limit =
      std::min(ranking.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < limit; ++i) {
    if (ranking[i] == fastest) return true;
  }
  return false;
}

/// Scenario s of the evaluation: every method's ranking from the state at
/// warmup time, then the counterfactual truth, each run on a copy of the
/// same warmed world. A pure function of (options, s), so scenarios may run
/// concurrently.
ScenarioOutcome evaluate_scenario(const std::vector<MethodUnderTest>& models,
                                  const std::vector<Scenario>& matrix,
                                  const EvalOptions& options, std::size_t s) {
  const std::uint64_t seed =
      options.base_seed + 7919ULL * static_cast<std::uint64_t>(s);
  Rng pick_rng(seed ^ 0xabcdef12ULL);
  const Scenario& scenario = sample_scenario(matrix, pick_rng);
  const std::uint64_t job_seed = seed ^ 0x5eedf00dULL;

  ScenarioOutcome outcome;
  outcome.scenario_id = scenario.id;
  outcome.seed = seed;
  std::size_t n = 0;

  SimEnv world(seed, options.env);
  world.warmup();

  // --- method rankings, all from the state at warmup time -------------
  // Through a const view: ranking reads the warmed world and cannot
  // change what the counterfactual copies below start from.
  {
    const SimEnv& env = world;
    const auto snapshot = env.snapshot();
    n = env.node_names().size();

    // Baseline: the default Kubernetes scheduler's ranking for the
    // driver pod (resource-requests only, network-blind).
    const auto kube = env.kube_ranking(scenario.config);
    std::vector<std::size_t> kube_rank;
    for (const auto& scored : kube.ranking) {
      kube_rank.push_back(env.cluster().node_index(scored.name));
    }
    outcome.rankings["kube_default"] = std::move(kube_rank);

    // Baseline: uniform random order.
    std::vector<std::size_t> random_rank(n);
    for (std::size_t i = 0; i < n; ++i) random_rank[i] = i;
    Rng shuffle_rng(seed ^ 0x12341234ULL);
    shuffle_rng.shuffle(random_rank);
    outcome.rankings["random"] = std::move(random_rank);

    // Telemetry heuristics (ablation baselines; names checked up front).
    for (const auto& h : options.heuristics) {
      std::vector<double> keys(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& t = snapshot.nodes[i];
        keys[i] = h == "least_cpu" ? t.cpu_load : t.rtt_mean;
      }
      outcome.rankings[h] = rank_by(keys);
    }

    // Supervised models: the paper's prediction-and-ranking pipeline.
    // Every method ranks from the same raw snapshot; degradation-enabled
    // methods see it through their staleness annotation/imputation first.
    for (const auto& entry : models) {
      core::LtsScheduler scheduler(
          core::TelemetryFetcher(env.tsdb(), env.node_names(),
                                 options.env.snapshot, entry.degradation),
          entry.model, entry.features, entry.risk_aversion, entry.fallback);
      auto method_snapshot = snapshot;
      if (entry.degradation.enabled) {
        telemetry::annotate_staleness(method_snapshot,
                                      entry.degradation.max_staleness);
        if (entry.degradation.impute) {
          telemetry::impute_stale_nodes(method_snapshot);
        }
      }
      const auto decision =
          scheduler.schedule_from_snapshot(method_snapshot, scenario.config);
      std::vector<std::size_t> ranked;
      ranked.reserve(decision.ranking.size());
      for (const auto& p : decision.ranking) {
        ranked.push_back(env.cluster().node_index(p.node));
      }
      outcome.rankings[entry.name] = std::move(ranked);
    }
  }

  // --- counterfactual ground truth -------------------------------------
  // Each run branches from the warmed world: a copy is the same state a
  // fresh SimEnv(seed).warmup() would reach, without re-simulating it.
  for (std::size_t node = 0; node < n; ++node) {
    double total = 0.0;
    for (int rep = 0; rep < options.truth_repeats; ++rep) {
      SimEnv env(world);
      const auto run = env.run_job(
          scenario.config, node,
          job_seed + 0x9e3779b9ULL * static_cast<std::uint64_t>(rep));
      total += run.duration();
    }
    outcome.node_durations.push_back(
        total / static_cast<double>(options.truth_repeats));
  }
  outcome.fastest_node = static_cast<std::size_t>(
      std::min_element(outcome.node_durations.begin(),
                       outcome.node_durations.end()) -
      outcome.node_durations.begin());
  return outcome;
}

}  // namespace

EvalResult evaluate_methods(
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const ml::Regressor>>>& models,
    const std::vector<Scenario>& matrix, const EvalOptions& options) {
  std::vector<MethodUnderTest> entries;
  entries.reserve(models.size());
  for (const auto& [name, model] : models) {
    entries.push_back(MethodUnderTest{name, model});
  }
  return evaluate_methods(entries, matrix, options);
}

EvalResult evaluate_methods(const std::vector<MethodUnderTest>& models,
                            const std::vector<Scenario>& matrix,
                            const EvalOptions& options) {
  // Every input check runs here, before any scenario warms up: inside the
  // fan-out a bad option would throw from a worker after other scenarios
  // had already run.
  LTS_REQUIRE(options.num_scenarios >= 1, "evaluate_methods: no scenarios");
  LTS_REQUIRE(options.truth_repeats >= 1,
              "evaluate_methods: truth_repeats >= 1");
  std::vector<std::string> method_order = {"kube_default", "random"};
  for (const auto& h : options.heuristics) {
    LTS_REQUIRE(h == "least_cpu" || h == "least_rtt",
                "evaluate_methods: unknown heuristic " + h);
    method_order.push_back(h);
  }
  for (const auto& entry : models) {
    LTS_REQUIRE(entry.fallback.enabled ||
                    (entry.model != nullptr && entry.model->is_fitted()),
                "evaluate_methods: model '" + entry.name + "' not fitted");
    method_order.push_back(entry.name);
  }

  // One slot per scenario. Scenarios run in any order on any thread; the
  // Top-k counts and regret sums below are accumulated serially in
  // scenario order, so every figure matches a serial loop bit for bit.
  const auto total = static_cast<std::size_t>(options.num_scenarios);
  EvalResult result;
  result.outcomes.resize(total);
  obs::Counter& scenarios_counter = obs::counter(
      "lts_eval_scenarios_total", {},
      "Evaluation scenarios completed (counterfactual truth computed)");
  std::mutex progress_mutex;
  std::size_t done = 0;
  // lts-lint: shared-guarded(partitioned: scenario s writes only result.outcomes[s]; models/matrix/options are read-only, the counter is atomic and the progress count is mutex-guarded)
  ThreadPool::global().parallel_for(total, [&](std::size_t s) {
    result.outcomes[s] = evaluate_scenario(models, matrix, options, s);
    scenarios_counter.inc();
    if (options.progress) {
      std::lock_guard lock(progress_mutex);
      options.progress(++done, total);
    }
  });

  std::map<std::string, int> top1_hits, top2_hits;
  std::map<std::string, double> regret_sum;
  for (const auto& outcome : result.outcomes) {
    for (const auto& method : method_order) {
      const auto& ranking = outcome.rankings.at(method);
      if (hit_topk(ranking, outcome.fastest_node, 1)) ++top1_hits[method];
      if (hit_topk(ranking, outcome.fastest_node, 2)) ++top2_hits[method];
      regret_sum[method] +=
          outcome.node_durations[ranking.front()] -
          outcome.node_durations[outcome.fastest_node];
    }
  }

  for (const auto& method : method_order) {
    MethodAccuracy acc;
    acc.method = method;
    acc.scenarios = options.num_scenarios;
    acc.top1 = static_cast<double>(top1_hits[method]) /
               static_cast<double>(options.num_scenarios);
    acc.top2 = static_cast<double>(top2_hits[method]) /
               static_cast<double>(options.num_scenarios);
    acc.mean_regret =
        regret_sum[method] / static_cast<double>(options.num_scenarios);
    result.accuracy.push_back(std::move(acc));
  }
  return result;
}

Json StreamSummary::to_json() const {
  Json j = Json::object();
  j["mean_jct_s"] = mean_jct;
  j["p50_jct_s"] = p50_jct;
  j["p95_jct_s"] = p95_jct;
  j["p99_jct_s"] = p99_jct;
  j["makespan_s"] = makespan;
  j["jobs"] = static_cast<double>(jobs);
  j["mean_queueing_delay_s"] = mean_queueing_delay;
  j["p95_queueing_delay_s"] = p95_queueing_delay;
  j["placement_retries"] = static_cast<double>(placement_retries);
  j["model_version"] = static_cast<double>(model_version);
  j["retrains"] = static_cast<double>(retrains);
  j["retrain_failures"] = static_cast<double>(retrain_failures);
  j["retrain_skips"] = static_cast<double>(retrain_skips);
  j["retrain_rejections"] = static_cast<double>(retrain_rejections);
  return j;
}

StreamSummary summarize_stream(const StreamResult& result) {
  StreamSummary summary;
  std::vector<double> durations;
  std::vector<double> queueing;
  durations.reserve(result.jobs.size());
  queueing.reserve(result.jobs.size());
  for (const auto& job : result.jobs) {
    durations.push_back(job.duration);
    queueing.push_back(job.queueing_delay);
    summary.placement_retries +=
        static_cast<std::size_t>(job.placement_retries);
  }
  summary.jobs = durations.size();
  if (!durations.empty()) {
    summary.mean_jct = mean(durations);
    summary.p50_jct = percentile(durations, 50);
    summary.p95_jct = percentile(durations, 95);
    summary.p99_jct = percentile(durations, 99);
    summary.mean_queueing_delay = mean(queueing);
    summary.p95_queueing_delay = percentile(queueing, 95);
  }
  summary.makespan = result.makespan;
  summary.model_version = result.model_version;
  for (const auto& event : result.retrain_events) {
    switch (event.outcome) {
      case core::RetrainOutcome::kSwapped: ++summary.retrains; break;
      case core::RetrainOutcome::kFailed: ++summary.retrain_failures; break;
      case core::RetrainOutcome::kSkipped: ++summary.retrain_skips; break;
      case core::RetrainOutcome::kRejected:
        ++summary.retrain_rejections;
        break;
    }
  }
  return summary;
}

}  // namespace lts::exp
