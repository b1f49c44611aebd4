#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/event.hpp"
#include "eclipse/sim/event_queue.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

class FaultInjector;

/// Deterministic, event-driven cycle-level simulator.
///
/// The kernel is purely event-driven: hardware blocks (shells, buses,
/// memories, coprocessors) are modelled as coroutine processes that await
/// Delay / SimEvent awaitables. Events scheduled for the same
/// cycle run in scheduling order, so a given model and seed always produce
/// the same trace.
///
/// Threading contract: **one kernel and one driving thread per Simulator**.
/// run() and every model attached to the simulator execute on the thread
/// that drives it, so models keep plain (non-atomic, unlocked) state.
/// Independent Simulators on separate threads are safe: the eclipse_farm
/// worker pool gets its parallelism that way, across simulations.
class Simulator {
 public:
  static constexpr Cycle kForever = std::numeric_limits<Cycle>::max();

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated cycle.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedules an event `delay` cycles from now. Accepts anything an Event
  /// can hold: a coroutine handle, a small trivially copyable callable (see
  /// Event) or an Event. The event is built directly in its queue node.
  template <typename E>
    requires std::is_constructible_v<Event, E&&>
  void schedule(Cycle delay, E&& ev) {
    queue_.emplace(now_ + delay, std::forward<E>(ev));
  }

  /// Schedules an event at an absolute cycle (must be >= now()).
  template <typename E>
    requires std::is_constructible_v<Event, E&&>
  void scheduleAt(Cycle at, E&& ev) {
    queue_.emplace(at < now_ ? now_ : at, std::forward<E>(ev));
  }

  /// Fast path: schedules the resumption of a suspended coroutine `delay`
  /// cycles from now. No type erasure, no allocation — the handle is the
  /// event.
  void scheduleResume(Cycle delay, std::coroutine_handle<> h) {
    queue_.emplace(now_ + delay, h);
  }

  /// Awaitable that suspends the calling coroutine for `n` cycles.
  /// A zero-cycle delay completes immediately without suspending.
  struct DelayAwaiter {
    Simulator& sim;
    Cycle n;
    bool await_ready() const noexcept { return n == 0; }
    void await_suspend(std::coroutine_handle<> h) { sim.scheduleResume(n, h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(Cycle n) { return DelayAwaiter{*this, n}; }

  /// Registers a root process. The process starts at the current cycle (as
  /// a zero-delay event) and its coroutine frame is owned by the simulator.
  void spawn(Task<void> task, std::string name = "process");

  /// Runs until the event queue drains or simulated time passes `until`.
  /// Returns the cycle at which the run stopped. Rethrows the first
  /// unhandled exception from any root process.
  Cycle run(Cycle until = kForever);

  /// Requests run() to return after the current event completes.
  void stop() { halt_ = true; }

  /// True when no events are pending (all processes blocked or finished).
  [[nodiscard]] bool quiescent() const { return queue_.empty(); }

  /// Number of spawned root processes that have not yet completed.
  [[nodiscard]] std::size_t liveProcesses() const { return live_; }

  /// Destroys all coroutine frames and drops pending events.
  ///
  /// Coroutine frames may hold RAII objects that reference simulation
  /// models; owners whose models are destroyed
  /// before the Simulator member must call this first so frame unwinding
  /// never touches freed models. Idempotent; the destructor calls it too.
  void destroyProcesses();

  /// Total events dispatched so far (for sanity checks and profiling).
  [[nodiscard]] std::uint64_t eventsDispatched() const { return events_; }

  /// Fault-injection hook. Null (the default) means no faults: models guard
  /// every query with a branch-on-null, so the unarmed path costs nothing
  /// and schedules nothing. The injector is owned by the caller (typically
  /// an app::EclipseInstance) and must outlive the simulation.
  void setFaultInjector(FaultInjector* inj) { faults_ = inj; }
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

 private:
  friend void detail::notifyRootDone(Simulator& sim, std::exception_ptr exception);

  struct RootProcess {
    std::string name;
    Task<void>::handle_type handle;
  };

  Cycle now_ = 0;
  EventQueue queue_;
  std::vector<RootProcess> roots_;
  std::size_t live_ = 0;
  std::uint64_t events_ = 0;
  bool halt_ = false;  // ends run()'s drain loop: stop() or a root's error
  std::exception_ptr pending_error_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace eclipse::sim
