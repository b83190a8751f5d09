// R8 fixture: the engine's record dispatch is a hot path. Linted under any
// virtual path (the rule keys on (class, function) names). Never built.
#include <functional>
#include <memory>
#include <vector>

namespace lts::fixture {

// Fires twice: a per-event heap box for the handler, and a type-erased
// wrapper built on every dispatch.
void Engine::fire(const Event& ev) {
  auto boxed = std::make_unique<Event>(ev);
  std::function<void()> call = [this, boxed = boxed.get()] { run_one(*boxed); };
  call();
}

// Clean: storing a closure allocates by design, and Engine::closure is not
// on the hot list.
Event Engine::closure(std::function<void()> fn) {
  closures_.push_back(std::make_unique<std::function<void()>>(std::move(fn)));
  return Event{};
}

// Clean: a free function named fire is not the engine's dispatch.
void fire(std::vector<int>& out) { out.push_back(*std::make_unique<int>(1)); }

}  // namespace lts::fixture
