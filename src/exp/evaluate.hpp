// Table 4 evaluation protocol: Top-1/Top-2 node-selection accuracy.
//
// For each evaluation scenario, every method produces a full ranking of the
// six candidate nodes from the same pre-launch telemetry snapshot. Ground
// truth comes from counterfactual simulation: the environment (same seed →
// same background load, same job randomness) is warmed once, a copy of it
// runs the job once per candidate driver node, and the node with the
// shortest measured completion time is the "actual fastest node". A method
// scores a Top-k hit when the actual fastest node appears among its k
// highest-ranked choices — exactly the paper's §6 criterion, with the
// advantage that our fastest node is exact rather than inferred post hoc.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/scheduler.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "ml/model.hpp"

namespace lts::exp {

/// A scheduling method under evaluation: a fitted model plus the feature
/// layout it was trained on (Table 1 by default; kRich for the §8
/// extension).
struct MethodUnderTest {
  MethodUnderTest() = default;
  MethodUnderTest(std::string name_, std::shared_ptr<const ml::Regressor> model_,
                  core::FeatureSet features_ = core::FeatureSet::kTable1,
                  double risk_aversion_ = 0.0)
      : name(std::move(name_)),
        model(std::move(model_)),
        features(features_),
        risk_aversion(risk_aversion_) {}

  std::string name;
  std::shared_ptr<const ml::Regressor> model;
  core::FeatureSet features = core::FeatureSet::kTable1;
  /// See LtsScheduler: 0 = the paper's mean-duration ranking.
  double risk_aversion = 0.0;
  /// Degradation handling (fault tolerance experiments). All methods rank
  /// from the same raw snapshot; a method with `degradation.enabled` sees
  /// that snapshot after staleness annotation/imputation, and its scheduler
  /// applies `fallback`. With `fallback.enabled` the model may be null
  /// (pure fallback-ranking baseline).
  core::DegradationOptions degradation;
  core::FallbackOptions fallback;
};

struct EvalOptions {
  int num_scenarios = 100;
  std::uint64_t base_seed = 900000;
  EnvOptions env;
  /// Counterfactual runs per (scenario, node); the ground-truth duration is
  /// their mean. One run reproduces the paper's single-observation ground
  /// truth; >1 averages job-internal randomness so the "actual fastest
  /// node" is the one with the lowest *expected* completion time.
  int truth_repeats = 3;
  /// Extra non-model baselines to include, beyond kube_default/random:
  ///   "least_cpu"  — pick lowest load-average node (host-only heuristic)
  ///   "least_rtt"  — pick lowest mean-RTT node (network-only heuristic)
  std::vector<std::string> heuristics;
  /// Called after each scenario with (scenarios done, scenarios total).
  /// Calls are serialized (never concurrent) and `done` runs 1, 2, ...,
  /// total with no gaps or repeats, but a call may come from a pool thread,
  /// and `done` counts finished scenarios, not which scenario finished.
  std::function<void(std::size_t, std::size_t)> progress;
};

struct MethodAccuracy {
  std::string method;
  double top1 = 0.0;
  double top2 = 0.0;
  /// Mean of (chosen node's duration - fastest node's duration), seconds:
  /// how much runtime the method leaves on the table per decision.
  double mean_regret = 0.0;
  int scenarios = 0;
};

/// One scenario's full detail, for ablation analysis and tests.
struct ScenarioOutcome {
  std::string scenario_id;
  std::uint64_t seed = 0;
  std::vector<double> node_durations;  // counterfactual truth per node
  std::size_t fastest_node = 0;
  /// method -> ranked node indices (best first).
  std::map<std::string, std::vector<std::size_t>> rankings;
};

struct EvalResult {
  std::vector<MethodAccuracy> accuracy;  // ordered: baselines then models
  std::vector<ScenarioOutcome> outcomes;

  const MethodAccuracy& by_method(const std::string& name) const;
};

/// Evaluates all methods on `num_scenarios` fresh scenarios drawn from the
/// matrix. Options are validated before any scenario runs. Scenarios run
/// concurrently on ThreadPool::global(); outcomes and accuracy rows are
/// merged in scenario order and are bit-identical for every pool size.
EvalResult evaluate_methods(const std::vector<MethodUnderTest>& models,
                            const std::vector<Scenario>& matrix,
                            const EvalOptions& options);

/// Convenience overload: (name, model) pairs, all using Table-1 features.
EvalResult evaluate_methods(
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const ml::Regressor>>>& models,
    const std::vector<Scenario>& matrix, const EvalOptions& options);

/// JCT summary of one live-stream run — the end-to-end metrics the stream
/// comparisons (bench_ext_faults, bench_ext_retrain, `lts stream`) report.
struct StreamSummary {
  double mean_jct = 0.0;
  double p50_jct = 0.0;
  double p95_jct = 0.0;
  double p99_jct = 0.0;
  double makespan = 0.0;
  std::size_t jobs = 0;
  /// Placement queueing (actual submit minus planned arrival): the
  /// capacity-wait component the fairness bench compares across tenants.
  double mean_queueing_delay = 0.0;
  double p95_queueing_delay = 0.0;
  /// Total placement deferrals across the stream's jobs.
  std::size_t placement_retries = 0;
  /// Retraining streams only (0 / empty otherwise).
  std::uint64_t model_version = 0;
  std::size_t retrains = 0;
  std::size_t retrain_failures = 0;
  std::size_t retrain_skips = 0;
  std::size_t retrain_rejections = 0;

  Json to_json() const;
};

StreamSummary summarize_stream(const StreamResult& result);

}  // namespace lts::exp
