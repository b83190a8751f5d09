// Discrete-event simulation engine.
//
// All LTS substrates (network flows, CPU sharing, exporters, Spark stages)
// are driven by one Engine instance. Events execute in (time, insertion
// sequence) order, which makes every simulation a deterministic function of
// its inputs — the property the counterfactual evaluation in exp/evaluate
// relies on.
//
// Events are data: a record of a handler kind, a target index and a payload
// word. A substrate registers one handler per instance (add_handler) and
// schedules records addressed to it, so the queue holds no pointers and an
// Engine can be copied. A closure is one more kind whose payload indexes a
// pool of std::functions; stream runners and Spark stages keep scheduling
// lambdas. Closures capture pointers into the world that made them, so an
// engine with any closure pending refuses to copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/common.hpp"

namespace lts::sim {

/// Handle for a scheduled event; usable to cancel it before it fires. Slot
/// index in the low word, the slot's generation in the high word, so a
/// handle goes stale once its slot is reused.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Which handler an event record goes to: one registered with
/// Engine::add_handler, or one of the two built-in kinds below.
using Kind = std::uint32_t;
inline constexpr Kind kNoKind = 0;       // no event (an absent continuation)
inline constexpr Kind kClosureKind = 1;  // payload indexes the closure pool

/// An event as data. Flows and CPU tasks hold one as their completion
/// continuation; the engine queue holds one per scheduled event.
struct Event {
  Kind kind = kNoKind;
  std::uint32_t target = 0;
  std::uint64_t payload = 0;

  bool empty() const { return kind == kNoKind; }
};

class Engine {
 public:
  Engine();
  /// Copies the clock, the sequence counter and every pending record.
  /// Handlers are not copied: each substrate copied along with the engine
  /// rebinds its own kind to itself (rebind_handler). Throws lts::Error
  /// while a closure is pending — a scheduled lambda, or a flow or CPU task
  /// whose continuation is one (in practice: a job in flight).
  Engine(const Engine& other);
  Engine& operator=(const Engine&) = delete;

  /// Registers `self->*Method(target, payload)` as the handler of a new
  /// kind and returns it.
  template <auto Method, class T>
  Kind add_handler(T* self) {
    handlers_.push_back(Handler{&thunk<Method, T>, self});
    return static_cast<Kind>(handlers_.size() - 1);
  }

  /// Points an existing kind at `self`: how a substrate's copy takes over
  /// the records the copied queue still addresses to its original.
  template <auto Method, class T>
  void rebind_handler(Kind kind, T* self) {
    LTS_REQUIRE(kind > kClosureKind && kind < handlers_.size(),
                "Engine: rebinding an unknown handler kind");
    handlers_[kind] = Handler{&thunk<Method, T>, self};
  }

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules a record (or `fn`) at absolute time `t` (>= now). Returns a
  /// handle.
  EventId schedule_at(SimTime t, Event ev);
  EventId schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules a record (or `fn`) `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, Event ev);
  EventId schedule_in(SimTime delay, std::function<void()> fn);

  /// Stores `fn` in the closure pool and returns the record that runs it;
  /// an empty `fn` gives an empty record. The record must be fired or
  /// discarded exactly once.
  Event closure(std::function<void()> fn);

  /// Runs a record now (consuming it, if a closure). Empty records are a
  /// no-op.
  void fire(const Event& ev);

  /// Drops a record that will never fire, releasing its closure.
  void discard(const Event& ev);

  /// Cancels a pending event. Safe to call with an already-fired or
  /// already-cancelled handle (returns false in that case).
  bool cancel(EventId id);

  /// True if `id` refers to an event that has not yet fired or been
  /// cancelled.
  bool pending(EventId id) const;

  /// Executes the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  std::size_t num_pending() const { return slots_.size() - free_slots_.size(); }
  std::uint64_t num_processed() const { return processed_; }
  /// Closures stored and not yet fired or discarded.
  std::size_t num_closures() const {
    return closures_.size() - free_closures_.size();
  }

 private:
  struct Handler {
    void (*fn)(void* self, std::uint32_t target, std::uint64_t payload) =
        nullptr;
    void* self = nullptr;
  };

  template <auto Method, class T>
  static void thunk(void* self, std::uint32_t target, std::uint64_t payload) {
    (static_cast<T*>(self)->*Method)(target, payload);
  }

  /// A scheduled record; `gen` advances each time the slot is freed.
  struct Slot {
    Event event;
    std::uint32_t gen = 1;
  };

  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;  // insertion order: the tie-break
    EventId id;
    bool operator>(const QueueEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Frees the slot of a pending event and returns its record.
  Event release(EventId id);

  /// Outlined so the disabled-observability event loop carries only a
  /// relaxed load and a predictable branch, not the metrics code.
  __attribute__((noinline)) void record_step_metrics();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  // Cached once at construction: checking observability in the event loop
  // is then a single relaxed load, with no static-init guard per event.
  const std::atomic<bool>* obs_enabled_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Handler> handlers_;
  std::vector<std::function<void()>> closures_;
  std::vector<std::uint32_t> free_closures_;
};

/// Repeats a callback at a fixed interval until stopped. The first firing is
/// at `start + phase`; exporters use distinct phases so scrapes of different
/// nodes interleave rather than synchronize (as real Prometheus jitter does).
class PeriodicTask {
 public:
  PeriodicTask(Engine& engine, SimTime interval, SimTime phase,
               std::function<void()> fn);
  /// Continues `other`'s schedule on `engine`, a copy of other's engine,
  /// calling `fn` (bound to the copy of other's owner) from now on.
  PeriodicTask(const PeriodicTask& other, Engine& engine,
               std::function<void()> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm(std::uint32_t, std::uint64_t);

  Engine& engine_;
  SimTime interval_;
  std::function<void()> fn_;
  Kind kind_;
  EventId pending_ = kInvalidEvent;
  bool running_ = true;
};

}  // namespace lts::sim
