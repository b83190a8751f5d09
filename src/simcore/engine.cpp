#include "simcore/engine.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace lts::sim {

namespace {
// Aggregated across every Engine instance in the process (environments are
// rebuilt constantly for counterfactuals; per-instance series would explode
// the registry).
struct EngineMetrics {
  obs::Counter& events = obs::counter(
      "lts_sim_events_processed_total", {},
      "Events executed by all simulation engines");
  obs::Gauge& queue_depth = obs::gauge(
      "lts_sim_event_queue_depth", {},
      "Pending events in the most recently stepped engine");
  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}
}  // namespace

// Kinds 0 and 1 (no event, closure) have no handler entry of their own.
Engine::Engine()
    : obs_enabled_(obs::MetricsRegistry::global().enabled_flag()),
      handlers_(2) {}

Engine::Engine(const Engine& other)
    : now_(other.now_),
      next_seq_(other.next_seq_),
      processed_(other.processed_),
      obs_enabled_(other.obs_enabled_),
      handlers_(other.handlers_.size()) {
  LTS_REQUIRE(other.num_closures() == 0,
              "Engine: cannot copy while a closure is pending (a job is in "
              "flight)");
  queue_ = other.queue_;
  slots_ = other.slots_;
  free_slots_ = other.free_slots_;
}

void Engine::record_step_metrics() {
  auto& metrics = EngineMetrics::get();
  metrics.events.inc();
  metrics.queue_depth.set(static_cast<double>(num_pending()));
}

EventId Engine::schedule_at(SimTime t, Event ev) {
  LTS_REQUIRE(t >= now_, "Engine: cannot schedule event in the past");
  LTS_REQUIRE(!ev.empty(), "Engine: cannot schedule an empty event");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].event = ev;
  const EventId id = make_id(slot, slots_[slot].gen);
  queue_.push(QueueEntry{t, next_seq_++, id});
  return id;
}

EventId Engine::schedule_at(SimTime t, std::function<void()> fn) {
  // Checked before the closure is stored, so a rejected call leaks nothing.
  LTS_REQUIRE(t >= now_, "Engine: cannot schedule event in the past");
  return schedule_at(t, closure(std::move(fn)));
}

EventId Engine::schedule_in(SimTime delay, Event ev) {
  LTS_REQUIRE(delay >= 0.0, "Engine: negative delay");
  return schedule_at(now_ + delay, ev);
}

EventId Engine::schedule_in(SimTime delay, std::function<void()> fn) {
  LTS_REQUIRE(delay >= 0.0, "Engine: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

Event Engine::closure(std::function<void()> fn) {
  if (!fn) return Event{};
  std::uint32_t index;
  if (!free_closures_.empty()) {
    index = free_closures_.back();
    free_closures_.pop_back();
    closures_[index] = std::move(fn);
  } else {
    index = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  }
  return Event{kClosureKind, 0, index};
}

void Engine::fire(const Event& ev) {
  if (ev.kind == kClosureKind) {
    // Moved out and its slot freed first: the closure may schedule more.
    auto fn = std::move(closures_[ev.payload]);
    closures_[ev.payload] = nullptr;
    free_closures_.push_back(static_cast<std::uint32_t>(ev.payload));
    fn();
    return;
  }
  if (ev.empty()) return;
  const Handler h = handlers_[ev.kind];
  LTS_ASSERT(h.fn != nullptr);
  h.fn(h.self, ev.target, ev.payload);
}

void Engine::discard(const Event& ev) {
  if (ev.kind != kClosureKind) return;
  closures_[ev.payload] = nullptr;
  free_closures_.push_back(static_cast<std::uint32_t>(ev.payload));
}

bool Engine::pending(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id);
  return slot < slots_.size() && slots_[slot].gen == (id >> 32);
}

Event Engine::release(EventId id) {
  Slot& s = slots_[static_cast<std::uint32_t>(id)];
  const Event ev = s.event;
  s.event = Event{};
  if (++s.gen == 0) s.gen = 1;  // generation 0 would match kInvalidEvent
  free_slots_.push_back(static_cast<std::uint32_t>(id));
  return ev;
}

bool Engine::cancel(EventId id) {
  // Lazy deletion: free the slot; the queue entry is skipped when popped.
  if (!pending(id)) return false;
  discard(release(id));
  return true;
}

bool Engine::step() {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    if (!pending(entry.id)) continue;  // cancelled
    LTS_ASSERT(entry.time >= now_);
    now_ = entry.time;
    // Released before dispatch so the handler may schedule or cancel
    // events, including into the slot it just vacated.
    const Event ev = release(entry.id);
    ++processed_;
    if (obs_enabled_->load(std::memory_order_relaxed)) {
      record_step_metrics();
    }
    fire(ev);
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime t) {
  LTS_REQUIRE(t >= now_, "Engine: run_until into the past");
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    if (!pending(entry.id)) {
      queue_.pop();
      continue;
    }
    if (entry.time > t) break;
    step();
  }
  now_ = t;
}

PeriodicTask::PeriodicTask(Engine& engine, SimTime interval, SimTime phase,
                           std::function<void()> fn)
    : engine_(engine),
      interval_(interval),
      fn_(std::move(fn)),
      kind_(engine.add_handler<&PeriodicTask::arm>(this)) {
  LTS_REQUIRE(interval > 0.0, "PeriodicTask: interval must be positive");
  LTS_REQUIRE(phase >= 0.0, "PeriodicTask: negative phase");
  pending_ = engine_.schedule_in(phase, Event{kind_});
}

PeriodicTask::PeriodicTask(const PeriodicTask& other, Engine& engine,
                           std::function<void()> fn)
    : engine_(engine),
      interval_(other.interval_),
      fn_(std::move(fn)),
      kind_(other.kind_),
      pending_(other.pending_),
      running_(other.running_) {
  engine_.rebind_handler<&PeriodicTask::arm>(kind_, this);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != kInvalidEvent) engine_.cancel(pending_);
  pending_ = kInvalidEvent;
}

void PeriodicTask::arm(std::uint32_t, std::uint64_t) {
  if (!running_) return;
  fn_();
  if (!running_) return;  // fn may have stopped us
  pending_ = engine_.schedule_in(interval_, Event{kind_});
}

}  // namespace lts::sim
