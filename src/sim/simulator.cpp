#include "eclipse/sim/simulator.hpp"

#include <utility>

namespace eclipse::sim {

namespace detail {

void notifyRootDone(Simulator& sim, std::exception_ptr exception) {
  if (sim.live_ > 0) --sim.live_;
  if (exception && !sim.pending_error_) {
    sim.pending_error_ = exception;
    sim.halt_ = true;
  }
}

}  // namespace detail

Simulator::~Simulator() { destroyProcesses(); }

void Simulator::destroyProcesses() {
  // Destroy remaining coroutine frames. Frames suspended at a co_await are
  // safe to destroy; their local objects are unwound. Pending events may
  // capture handles into these frames, so the queue goes first.
  queue_.clear();
  for (auto& root : roots_) {
    if (root.handle) {
      root.handle.destroy();
      root.handle = nullptr;
    }
  }
  roots_.clear();
  live_ = 0;
}

void Simulator::spawn(Task<void> task, std::string name) {
  // Reclaim finished frames so long runs with many short-lived processes
  // do not accumulate unbounded memory.
  if (roots_.size() >= 1024) {
    std::erase_if(roots_, [](RootProcess& r) {
      if (r.handle && r.handle.done()) {
        r.handle.destroy();
        return true;
      }
      return false;
    });
  }
  auto handle = task.release();
  handle.promise().root_sim = this;
  roots_.push_back(RootProcess{std::move(name), handle});
  ++live_;
  scheduleResume(0, handle);
}

Cycle Simulator::run(Cycle until) {
  // One flag ends the drain: stop() and the root-error path both set it,
  // so the loop tests no other state per event.
  halt_ = false;
  while (!halt_ && !queue_.empty()) {
    const Cycle at = queue_.nextCycle();
    if (at > until) {
      now_ = until;
      return now_;
    }
    now_ = at;
    ++events_;
    queue_.dispatchNext();
  }
  if (pending_error_) std::rethrow_exception(std::exchange(pending_error_, nullptr));
  return now_;
}

}  // namespace eclipse::sim
