#include "k8s/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace lts::k8s {

std::string NodeResourcesFitFilter::filter(const PodSpec& pod,
                                           const NodeEntry& node) const {
  const Resources free = node.allocatable - node.requested;
  if (pod.requests.cpu > free.cpu) return "insufficient cpu";
  if (pod.requests.memory > free.memory) return "insufficient memory";
  return "";
}

std::string NodeAffinityFilter::filter(const PodSpec& pod,
                                       const NodeEntry& node) const {
  if (!pod.node_affinity.has_value()) return "";
  if (pod.node_affinity->matches(node.name)) return "";
  return "node affinity mismatch";
}

std::string TaintTolerationFilter::filter(const PodSpec& pod,
                                          const NodeEntry& node) const {
  for (const auto& taint : node.taints) {
    if (taint.effect != TaintEffect::kNoSchedule) continue;
    bool tolerated = false;
    for (const auto& tol : pod.tolerations) {
      if (tol.tolerates(taint)) {
        tolerated = true;
        break;
      }
    }
    if (!tolerated) return "untolerated taint " + taint.key;
  }
  return "";
}

double LeastAllocatedScore::score(const PodSpec& pod,
                                  const NodeEntry& node) const {
  const Resources after = node.requested + pod.requests;
  const double cpu_free =
      node.allocatable.cpu > 0.0
          ? std::max(0.0, node.allocatable.cpu - after.cpu) /
                node.allocatable.cpu
          : 0.0;
  const double mem_free =
      node.allocatable.memory > 0.0
          ? std::max(0.0, node.allocatable.memory - after.memory) /
                node.allocatable.memory
          : 0.0;
  return 100.0 * (cpu_free + mem_free) / 2.0;
}

double BalancedAllocationScore::score(const PodSpec& pod,
                                      const NodeEntry& node) const {
  const Resources after = node.requested + pod.requests;
  const double cpu_frac =
      node.allocatable.cpu > 0.0
          ? std::min(1.0, after.cpu / node.allocatable.cpu)
          : 1.0;
  const double mem_frac =
      node.allocatable.memory > 0.0
          ? std::min(1.0, after.memory / node.allocatable.memory)
          : 1.0;
  return 100.0 - std::abs(cpu_frac - mem_frac) * 100.0;
}

double TaintTolerationScore::score(const PodSpec& pod,
                                   const NodeEntry& node) const {
  int untolerated = 0;
  for (const auto& taint : node.taints) {
    if (taint.effect != TaintEffect::kPreferNoSchedule) continue;
    bool tolerated = false;
    for (const auto& tol : pod.tolerations) {
      if (tol.tolerates(taint)) {
        tolerated = true;
        break;
      }
    }
    if (!tolerated) ++untolerated;
  }
  return untolerated == 0 ? 100.0 : std::max(0.0, 100.0 - 50.0 * untolerated);
}

DefaultScheduler::DefaultScheduler(const ApiServer& api, std::uint64_t seed)
    : DefaultScheduler(api, seed, /*with_defaults=*/true) {}

DefaultScheduler::DefaultScheduler(const ApiServer& api, std::uint64_t seed,
                                   bool with_defaults)
    : api_(&api), rng_(seed) {
  if (with_defaults) {
    add_filter(std::make_unique<NodeResourcesFitFilter>());
    add_filter(std::make_unique<NodeAffinityFilter>());
    add_filter(std::make_unique<TaintTolerationFilter>());
    add_score(std::make_unique<LeastAllocatedScore>(), 1.0);
    add_score(std::make_unique<BalancedAllocationScore>(), 1.0);
    add_score(std::make_unique<TaintTolerationScore>(), 1.0);
  }
}

DefaultScheduler::DefaultScheduler(const DefaultScheduler& other,
                                   const ApiServer& api)
    : api_(&api),
      rng_(other.rng_),
      filters_(other.filters_),
      scores_(other.scores_) {}

DefaultScheduler DefaultScheduler::bare(const ApiServer& api,
                                        std::uint64_t seed) {
  return DefaultScheduler(api, seed, /*with_defaults=*/false);
}

void DefaultScheduler::add_filter(std::unique_ptr<FilterPlugin> plugin) {
  filters_.push_back(std::move(plugin));
}

void DefaultScheduler::add_score(std::unique_ptr<ScorePlugin> plugin,
                                 double weight) {
  scores_.emplace_back(std::move(plugin), weight);
}

ScheduleResult DefaultScheduler::schedule(const PodSpec& pod) {
  ScheduleResult result;
  struct Candidate {
    const NodeEntry* node;
    double score;
    double tiebreak;
  };
  std::vector<Candidate> candidates;
  for (const auto& node : api_->nodes()) {
    if (!node.ready) {
      result.rejected.emplace_back(node.name, "node not ready");
      continue;
    }
    std::string reason;
    for (const auto& filter : filters_) {
      reason = filter->filter(pod, node);
      if (!reason.empty()) break;
    }
    if (!reason.empty()) {
      result.rejected.emplace_back(node.name, reason);
      continue;
    }
    double total = 0.0;
    for (const auto& [plugin, weight] : scores_) {
      total += weight * plugin->score(pod, node);
    }
    // kube-scheduler picks randomly among max-score nodes; a random tiebreak
    // key applied to *all* candidates realizes that and also gives a
    // deterministic full ranking for the Top-2 baseline measurement.
    candidates.push_back(Candidate{&node, total, rng_.uniform()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.tiebreak > b.tiebreak;
            });
  result.ranking.reserve(candidates.size());
  for (const auto& c : candidates) {
    result.ranking.push_back(ScoredNode{c.node->name, c.score});
  }
  return result;
}

}  // namespace lts::k8s
