// Processor-sharing CPU model.
//
// Each node's cores are shared among runnable tasks, mirroring the Linux CFS
// behavior the paper's CPU-load feature observes: when total demand exceeds
// the core count every task slows proportionally. Task completion is handled
// like flow completion — a single next-event recomputed whenever the runnable
// set changes — so CPU contention composes with network contention in one
// event timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::cluster {

using CpuTaskId = std::uint64_t;
inline constexpr CpuTaskId kInvalidCpuTask = 0;

class CpuPool {
 public:
  CpuPool(sim::Engine& engine, double cores);
  /// A copy of `other` driven by `engine`, a copy of other's engine.
  CpuPool(const CpuPool& other, sim::Engine& engine);

  CpuPool& operator=(const CpuPool&) = delete;

  /// Runs a task needing `work` core-seconds at a parallelism of up to
  /// `demand` cores. `on_complete` fires when the work finishes; completion
  /// time stretches under contention.
  CpuTaskId run(double demand_cores, double work_core_seconds,
                std::function<void()> on_complete);

  /// Adds load without a completion (daemons, background services). Remove
  /// with cancel().
  CpuTaskId add_persistent(double demand_cores);

  /// Cancels a task (finished tasks are a no-op).
  void cancel(CpuTaskId id);

  double cores() const { return cores_; }

  /// Sum of the demands of all runnable tasks — the "load average"
  /// instantaneous input (number of runnable processes, §Table 1).
  double total_demand() const { return total_demand_; }

  /// Fraction of core capacity in use, in [0, 1].
  double utilization() const;

  std::size_t num_tasks() const { return tasks_.size(); }

 private:
  struct Task {
    double demand = 0.0;
    double remaining = 0.0;  // core-seconds; infinity for persistent
    double rate = 0.0;       // core-seconds per second
    sim::Event on_complete;
  };

  /// Member-wise copy; the public copy constructor rebinds it.
  CpuPool(const CpuPool&) = default;

  void advance();
  void recompute_rates();
  void schedule_next_completion();
  void handle_completion_event(std::uint32_t, std::uint64_t);

  sim::Engine* engine_;
  sim::Kind kind_;
  double cores_;
  double total_demand_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::map<CpuTaskId, Task> tasks_;
  SimTime last_update_ = 0.0;
  sim::EventId completion_event_ = sim::kInvalidEvent;
};

}  // namespace lts::cluster
