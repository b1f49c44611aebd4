#pragma once

#include <coroutine>
#include <utility>
#include <vector>

#include "eclipse/sim/simulator.hpp"

namespace eclipse::sim {

/// Condition-variable-like wake-up point for simulation coroutines.
///
/// A process co_awaits `event.wait()`; another process calls notifyAll().
/// Woken coroutines resume as zero-delay events, i.e. later in the same
/// cycle, never re-entrantly inside the notifier. As with condition
/// variables, waiters must re-check their predicate after waking.
///
/// A waiter is an Event: a coroutine handle (wait()) or a callback
/// (park()), so a frame-free state machine such as a stream-cache walk can
/// wait here too. Both wake the same way, as one zero-delay event.
class SimEvent {
 public:
  explicit SimEvent(Simulator& sim) : sim_(&sim) {}

  struct Awaiter {
    SimEvent& ev;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ev.waiters_.emplace_back(h); }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{*this}; }

  /// Parks a callback, run as a zero-delay event by the next notify.
  template <typename F>
  void park(F&& fn) {
    waiters_.emplace_back(std::forward<F>(fn));
  }

  void notifyAll() {
    for (const Event& w : waiters_) sim_->schedule(0, w);
    waiters_.clear();
  }

  [[nodiscard]] std::size_t waiterCount() const { return waiters_.size(); }

  /// Forgets all parked waiters without running them. Only sound right
  /// after the owning simulator's destroyProcesses(): the recorded waiters
  /// point into destroyed coroutine frames then, and recycling the event
  /// for a fresh set of processes must not resume them.
  void clearWaiters() { waiters_.clear(); }

 private:
  Simulator* sim_;
  std::vector<Event> waiters_;
};

}  // namespace eclipse::sim
