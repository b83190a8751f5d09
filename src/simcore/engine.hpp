// Discrete-event simulation engine.
//
// All LTS substrates (network flows, CPU sharing, exporters, Spark stages)
// are driven by one Engine instance. Events execute in (time, insertion
// sequence) order, which makes every simulation a deterministic function of
// its inputs — the property the counterfactual evaluation in exp/evaluate
// relies on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "util/common.hpp"

namespace lts::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now). Returns a handle.
  EventId schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, std::function<void()> fn);

  /// Cancels a pending event. Safe to call with an already-fired or
  /// already-cancelled handle (returns false in that case).
  bool cancel(EventId id);

  /// True if `id` refers to an event that has not yet fired or been
  /// cancelled.
  bool pending(EventId id) const { return handlers_.count(id) > 0; }

  /// Executes the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  std::size_t num_pending() const { return handlers_.size(); }
  std::uint64_t num_processed() const { return processed_; }

 private:
  /// Outlined so the disabled-observability event loop carries only a
  /// relaxed load and a predictable branch, not the metrics code.
  __attribute__((noinline)) void record_step_metrics();

  struct QueueEntry {
    SimTime time;
    EventId id;  // ids are issued in insertion order: the tie-break
    bool operator>(const QueueEntry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  // Cached once at construction: checking observability in the event loop
  // is then a single relaxed load, with no static-init guard per event.
  const std::atomic<bool>* obs_enabled_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
  // std::map, not unordered_map: handlers_ is only ever probed by id today,
  // but an ordered container makes any future iteration deterministic by
  // construction — the same reasoning as FlowManager::flows_ (lint rule R2).
  std::map<EventId, std::function<void()>> handlers_;
};

/// Repeats a callback at a fixed interval until stopped. The first firing is
/// at `start + phase`; exporters use distinct phases so scrapes of different
/// nodes interleave rather than synchronize (as real Prometheus jitter does).
class PeriodicTask {
 public:
  PeriodicTask(Engine& engine, SimTime interval, SimTime phase,
               std::function<void()> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Engine& engine_;
  SimTime interval_;
  std::function<void()> fn_;
  EventId pending_ = kInvalidEvent;
  bool running_ = true;
};

}  // namespace lts::sim
