#include "cluster/cpu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace lts::cluster {

namespace {
constexpr double kWorkEpsilon = 1e-9;
}

CpuPool::CpuPool(sim::Engine& engine, double cores)
    : engine_(&engine),
      kind_(engine.add_handler<&CpuPool::handle_completion_event>(this)),
      cores_(cores) {
  LTS_REQUIRE(cores > 0.0, "CpuPool: cores must be positive");
  last_update_ = engine_->now();
}

CpuPool::CpuPool(const CpuPool& other, sim::Engine& engine) : CpuPool(other) {
  engine_ = &engine;
  engine_->rebind_handler<&CpuPool::handle_completion_event>(kind_, this);
}

CpuTaskId CpuPool::run(double demand_cores, double work_core_seconds,
                       std::function<void()> on_complete) {
  LTS_REQUIRE(demand_cores > 0.0, "CpuPool: demand must be positive");
  LTS_REQUIRE(work_core_seconds > 0.0, "CpuPool: work must be positive");
  advance();
  Task task;
  task.demand = demand_cores;
  task.remaining = work_core_seconds;
  task.on_complete = engine_->closure(std::move(on_complete));
  const CpuTaskId id = next_id_++;
  tasks_.emplace(id, std::move(task));
  recompute_rates();
  schedule_next_completion();
  return id;
}

CpuTaskId CpuPool::add_persistent(double demand_cores) {
  LTS_REQUIRE(demand_cores > 0.0, "CpuPool: demand must be positive");
  advance();
  Task task;
  task.demand = demand_cores;
  task.remaining = std::numeric_limits<double>::infinity();
  const CpuTaskId id = next_id_++;
  tasks_.emplace(id, std::move(task));
  recompute_rates();
  schedule_next_completion();
  return id;
}

void CpuPool::cancel(CpuTaskId id) {
  advance();
  const auto it = tasks_.find(id);
  if (it != tasks_.end()) {
    engine_->discard(it->second.on_complete);
    tasks_.erase(it);
    recompute_rates();
    schedule_next_completion();
  }
}

double CpuPool::utilization() const {
  return std::min(1.0, total_demand_ / cores_);
}

void CpuPool::advance() {
  const SimTime now = engine_->now();
  const SimTime dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  for (auto& [id, t] : tasks_) {
    if (std::isfinite(t.remaining)) {
      t.remaining = std::max(0.0, t.remaining - t.rate * dt);
    }
  }
  last_update_ = now;
}

void CpuPool::recompute_rates() {
  total_demand_ = 0.0;
  for (const auto& [id, t] : tasks_) total_demand_ += t.demand;
  // Processor sharing: everyone gets their demand if the node is
  // under-committed, otherwise rates shrink proportionally.
  const double scale =
      total_demand_ <= cores_ ? 1.0 : cores_ / total_demand_;
  for (auto& [id, t] : tasks_) {
    t.rate = t.demand * scale;
  }
}

void CpuPool::schedule_next_completion() {
  if (completion_event_ != sim::kInvalidEvent) {
    engine_->cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  SimTime earliest = std::numeric_limits<SimTime>::infinity();
  for (const auto& [id, t] : tasks_) {
    if (!std::isfinite(t.remaining)) continue;
    LTS_ASSERT(t.rate > 0.0);
    earliest = std::min(earliest, t.remaining / t.rate);
  }
  if (!std::isfinite(earliest)) return;
  completion_event_ =
      engine_->schedule_in(std::max(earliest, 0.0), sim::Event{kind_});
}

void CpuPool::handle_completion_event(std::uint32_t, std::uint64_t) {
  completion_event_ = sim::kInvalidEvent;
  advance();
  std::vector<sim::Event> callbacks;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    // Done when remaining work is negligible OR would finish within a
    // nanosecond (guards against zero-progress loops once remaining/rate
    // underflows the clock's resolution at large timestamps).
    if (std::isfinite(it->second.remaining) &&
        it->second.remaining <=
            std::max(kWorkEpsilon, it->second.rate * 1e-9)) {
      if (!it->second.on_complete.empty()) {
        callbacks.push_back(it->second.on_complete);
      }
      it = tasks_.erase(it);
    } else {
      ++it;
    }
  }
  recompute_rates();
  schedule_next_completion();
  for (const auto& cb : callbacks) engine_->fire(cb);
}

}  // namespace lts::cluster
