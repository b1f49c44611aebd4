#include "eclipse/sim/simulator.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace eclipse::sim {

namespace detail {

void notifyRootDone(Simulator& sim, std::exception_ptr exception) {
  if (sim.engine_) {
    sim.engine_->notifyRootDone(exception);
    return;
  }
  if (sim.live_ > 0) --sim.live_;
  if (exception && !sim.pending_error_) {
    sim.pending_error_ = exception;
    sim.halt_ = true;
  }
}

}  // namespace detail

Simulator::~Simulator() { destroyProcesses(); }

void Simulator::destroyProcesses() {
  if (engine_) {
    engine_->destroyProcesses();
    return;
  }
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

void Simulator::setShardCount(std::uint32_t shards) {
  // Idempotent for an unchanged count: a recycled (farm-reused) instance
  // re-applies its plan without resetting lanes or simulated time — the
  // serial kernel's clock also persists across recycles.
  if (engine_ && engine_->shardCount() == shards) return;
  const bool pristine = engine_ ? (engine_->quiescent() && engine_->liveProcesses() == 0)
                                : (queue_.empty() && roots_.empty());
  if (!pristine) {
    throw std::logic_error("setShardCount requires a pristine simulator "
                           "(no spawned processes or pending events)");
  }
  if (shards <= 1) {
    engine_.reset();
    return;
  }
  engine_ = std::make_unique<ShardEngine>(*this, shards);
}

void Simulator::assertOnShard(ShardId home, const char* what) const {
  if (!engine_) return;
  ShardScheduler* lane = engine_->executingLane();
  if (lane != nullptr && lane->id != home) {
    throw std::logic_error(std::string("shard-affinity violation: ") + what +
                           " is homed on shard " + std::to_string(home) +
                           " but was touched from shard " + std::to_string(lane->id));
  }
}

void Simulator::spawn(Task<void> task, std::string name, ShardId shard) {
  if (engine_) {
    auto handle = task.release();
    handle.promise().root_sim = this;
    engine_->spawn(handle, std::move(name), shard);
    return;
  }
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
  if (engine_) return engine_->run(until);
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
    Event ev = queue_.pop();
    ++events_;
    ev();
  }
  if (pending_error_) std::rethrow_exception(std::exchange(pending_error_, nullptr));
  return now_;
}

void Simulator::trace(int level, std::string_view msg) const {
  if (level <= verbosity_) {
    std::fprintf(stderr, "[%12llu] %.*s\n", static_cast<unsigned long long>(now()),
                 static_cast<int>(msg.size()), msg.data());
  }
}

}  // namespace eclipse::sim
