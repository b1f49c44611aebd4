#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "eclipse/sim/simulator.hpp"

namespace eclipse::sim {

/// Condition-variable-like wake-up point for simulation coroutines.
///
/// A process co_awaits `event.wait()`; another process calls notifyAll() /
/// notifyOne(). Woken coroutines resume as zero-delay events, i.e. later in
/// the same cycle, never re-entrantly inside the notifier. As with condition
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
    for (Event& w : waiters_) sim_->schedule(0, std::move(w));
    waiters_.clear();
  }

  void notifyOne() {
    if (waiters_.empty()) return;
    sim_->schedule(0, std::move(waiters_.front()));
    waiters_.erase(waiters_.begin());
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

/// Counting semaphore with FIFO wake order.
///
/// Used for mutual exclusion and for modelling single-resource arbitration
/// (e.g. a bus grants requests in arrival order). release() hands ownership
/// directly to the oldest waiter, so the resource is never stolen by a
/// late-arriving requester in the same cycle.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::uint32_t initial) : sim_(&sim), count_(initial) {}

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      if (sem.count_ > 0) {
        --sem.count_;
        return false;  // acquired without suspension
      }
      sem.waiters_.push_back(h);
      return true;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter acquire() { return Awaiter{*this}; }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->scheduleResume(0, h);
    } else {
      ++count_;
    }
  }

  [[nodiscard]] std::uint32_t available() const { return count_; }
  [[nodiscard]] std::size_t waiterCount() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::uint32_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// RAII guard for a Semaphore used as a mutex. Acquire with
/// `co_await sem.acquire()`, then construct the guard to release on scope
/// exit (coroutine frames honour destructors across suspensions).
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  ~SemaphoreGuard() {
    if (sem_ != nullptr) sem_->release();
  }

 private:
  Semaphore* sem_;
};

}  // namespace eclipse::sim
