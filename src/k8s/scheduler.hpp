// The default Kubernetes scheduler (kube-scheduler), reproduced as the
// paper's baseline (§3.1): a two-stage pipeline of *filtering* (eliminate
// nodes that cannot host the pod) and *scoring* (rank the rest), operating
// purely on declared resource requests and policy constraints. It never sees
// live telemetry — which is exactly why Table 4's baseline row is weak for
// network-bound jobs.
//
// Implemented as a plugin framework matching the upstream scheduler's
// structure so tests can exercise plugins individually and the experiment
// harness can read the full ranking (for Top-2 baseline accuracy).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "k8s/api.hpp"
#include "util/rng.hpp"

namespace lts::k8s {

/// Decides whether `node` can host `pod` at all.
class FilterPlugin {
 public:
  virtual ~FilterPlugin() = default;
  virtual std::string name() const = 0;
  /// Returns an empty string if feasible, else a human-readable reason.
  virtual std::string filter(const PodSpec& pod,
                             const NodeEntry& node) const = 0;
};

/// Scores a feasible node in [0, 100]; higher is better.
class ScorePlugin {
 public:
  virtual ~ScorePlugin() = default;
  virtual std::string name() const = 0;
  virtual double score(const PodSpec& pod, const NodeEntry& node) const = 0;
};

// ---- Default filter plugins ------------------------------------------------

/// NodeResourcesFit: allocatable minus already-requested must cover the
/// pod's requests.
class NodeResourcesFitFilter : public FilterPlugin {
 public:
  std::string name() const override { return "NodeResourcesFit"; }
  std::string filter(const PodSpec& pod, const NodeEntry& node) const override;
};

/// NodeAffinity: required node-name match expression, when present.
class NodeAffinityFilter : public FilterPlugin {
 public:
  std::string name() const override { return "NodeAffinity"; }
  std::string filter(const PodSpec& pod, const NodeEntry& node) const override;
};

/// TaintToleration: every NoSchedule taint must be tolerated.
class TaintTolerationFilter : public FilterPlugin {
 public:
  std::string name() const override { return "TaintToleration"; }
  std::string filter(const PodSpec& pod, const NodeEntry& node) const override;
};

// ---- Default score plugins -------------------------------------------------

/// NodeResourcesLeastAllocated: prefers nodes with the most free *requested*
/// capacity after placing the pod (the upstream default for spreading load).
class LeastAllocatedScore : public ScorePlugin {
 public:
  std::string name() const override { return "LeastAllocated"; }
  double score(const PodSpec& pod, const NodeEntry& node) const override;
};

/// NodeResourcesBalancedAllocation: prefers nodes whose cpu and memory
/// request fractions stay close to each other after placement.
class BalancedAllocationScore : public ScorePlugin {
 public:
  std::string name() const override { return "BalancedAllocation"; }
  double score(const PodSpec& pod, const NodeEntry& node) const override;
};

/// TaintToleration scoring: penalizes untolerated PreferNoSchedule taints.
class TaintTolerationScore : public ScorePlugin {
 public:
  std::string name() const override { return "TaintTolerationScore"; }
  double score(const PodSpec& pod, const NodeEntry& node) const override;
};

// ---- Scheduler -------------------------------------------------------------

struct ScoredNode {
  std::string name;
  double score = 0.0;
};

struct ScheduleResult {
  /// Feasible nodes, best first (ties broken by a seeded random draw, as the
  /// upstream scheduler selects randomly among equal-score nodes).
  std::vector<ScoredNode> ranking;
  /// Per-node filter rejection reasons for infeasible nodes.
  std::vector<std::pair<std::string, std::string>> rejected;

  bool feasible() const { return !ranking.empty(); }
  const std::string& selected() const {
    LTS_REQUIRE(feasible(), "ScheduleResult: no feasible node");
    return ranking.front().name;
  }
};

class DefaultScheduler {
 public:
  /// Constructs with the upstream default plugin set.
  explicit DefaultScheduler(const ApiServer& api, std::uint64_t seed = 1);
  /// A copy of `other` (plugins and tie-break Rng state) reading `api`.
  /// Plugins are shared, not cloned: they are stateless.
  DefaultScheduler(const DefaultScheduler& other, const ApiServer& api);

  /// Empty plugin sets; add your own (used by plugin unit tests).
  static DefaultScheduler bare(const ApiServer& api, std::uint64_t seed = 1);

  void add_filter(std::unique_ptr<FilterPlugin> plugin);
  void add_score(std::unique_ptr<ScorePlugin> plugin, double weight = 1.0);

  /// Runs filtering + scoring for `pod` against all registered nodes.
  /// Does NOT bind — callers bind through the ApiServer, mirroring the
  /// scheduler/API-server split in Kubernetes.
  ScheduleResult schedule(const PodSpec& pod);

 private:
  DefaultScheduler(const ApiServer& api, std::uint64_t seed, bool with_defaults);

  const ApiServer* api_;
  Rng rng_;
  std::vector<std::shared_ptr<const FilterPlugin>> filters_;
  std::vector<std::pair<std::shared_ptr<const ScorePlugin>, double>> scores_;
};

}  // namespace lts::k8s
