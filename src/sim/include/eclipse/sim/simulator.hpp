#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/event.hpp"
#include "eclipse/sim/event_queue.hpp"
#include "eclipse/sim/shard.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

class FaultInjector;

/// Deterministic, event-driven cycle-level simulator.
///
/// The kernel is purely event-driven: hardware blocks (shells, buses,
/// memories, coprocessors) are modelled as coroutine processes that await
/// Delay / SimEvent / Semaphore awaitables. Events scheduled for the same
/// cycle run in scheduling order, so a given model and seed always produce
/// the same trace.
///
/// Two execution kernels sit behind this one interface:
///   * the serial oracle (the default, shardCount() == 1): one timing wheel,
///     one thread, exactly the historical kernel — bit-identical to every
///     prior release;
///   * the sharded conservative-PDES engine (setShardCount(N >= 2)): N
///     ShardSchedulers each owning a private wheel, synchronized in barrier
///     windows sized by the minimum declared cross-shard latency. See
///     shard.hpp for the protocol and the determinism argument.
///
/// Threading contract: **one driving thread per Simulator**. run() is called
/// from a single thread; in sharded mode the engine manages its own worker
/// team internally, and models must respect shard affinity (everything a
/// semaphore/bus couples tightly must live on one shard — the app-layer
/// partitioner enforces this with its fusion rule). Concurrency across
/// *independent* Simulators on separate threads remains safe as before (the
/// eclipse_farm worker pool does exactly this), and composes with in-run
/// sharding under one thread budget.
class Simulator {
 public:
  static constexpr Cycle kForever = std::numeric_limits<Cycle>::max();

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated cycle: the executing lane's cycle from inside an
  /// event, the global (coordinator) cycle otherwise.
  [[nodiscard]] Cycle now() const { return engine_ ? engine_->now() : now_; }

  /// Schedules an event `delay` cycles from now. Accepts anything an Event
  /// can hold: a coroutine handle (allocation-free fast path) or a callable
  /// (stored inline when small and trivially copyable). In sharded mode the
  /// event lands on the executing lane (shard 0 from outside execution).
  void schedule(Cycle delay, Event ev) {
    if (engine_) {
      engine_->schedule(delay, std::move(ev));
      return;
    }
    queue_.push(now_ + delay, std::move(ev));
  }

  /// Schedules an event at an absolute cycle (must be >= now()).
  void scheduleAt(Cycle at, Event ev) {
    if (engine_) {
      engine_->scheduleAt(at, std::move(ev));
      return;
    }
    queue_.push(at < now_ ? now_ : at, std::move(ev));
  }

  /// Fast path: schedules the resumption of a suspended coroutine `delay`
  /// cycles from now. No type erasure, no allocation — the handle is the
  /// event.
  void scheduleResume(Cycle delay, std::coroutine_handle<> h) {
    if (engine_) {
      engine_->schedule(delay, Event(h));
      return;
    }
    queue_.push(now_ + delay, Event(h));
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
  /// `shard` selects the owning lane in sharded mode (kAutoShard: the
  /// executing lane from inside an event, shard 0 otherwise) and is ignored
  /// by the serial kernel.
  void spawn(Task<void> task, std::string name = "process", ShardId shard = kAutoShard);

  /// Runs until the event queue drains or simulated time passes `until`.
  /// Returns the cycle at which the run stopped. Rethrows the first
  /// unhandled exception from any root process (in sharded mode: the
  /// earliest by (cycle, shard) across lanes).
  Cycle run(Cycle until = kForever);

  /// Requests run() to return after the current event completes. In sharded
  /// mode the stop is lane-local-immediate: sibling lanes finish the open
  /// window (bounded by the lookahead) before run() returns.
  void stop() {
    if (engine_) {
      engine_->stop();
      return;
    }
    halt_ = true;
  }

  /// True when no events are pending (all processes blocked or finished).
  [[nodiscard]] bool quiescent() const {
    return engine_ ? engine_->quiescent() : queue_.empty();
  }

  /// Number of spawned root processes that have not yet completed.
  [[nodiscard]] std::size_t liveProcesses() const {
    return engine_ ? engine_->liveProcesses() : live_;
  }

  /// Destroys all coroutine frames and drops pending events.
  ///
  /// Coroutine frames may hold RAII objects (e.g. semaphore guards)
  /// that reference simulation models; owners whose models are destroyed
  /// before the Simulator member must call this first so frame unwinding
  /// never touches freed models. Idempotent; the destructor calls it too.
  void destroyProcesses();

  /// Total events dispatched so far (for sanity checks and profiling).
  /// Sharded mode sums the per-lane counters — each dispatched event is
  /// counted exactly once, so the total matches the serial oracle on
  /// equivalent runs.
  [[nodiscard]] std::uint64_t eventsDispatched() const {
    return engine_ ? engine_->eventsDispatched() : events_;
  }

  // --- sharding -----------------------------------------------------------

  /// Switches the kernel to N conservative-PDES shards (N >= 2) or back to
  /// the serial oracle (N <= 1). Must be called on a pristine simulator —
  /// before any spawn or schedule — so every event's home lane is
  /// well-defined from the start.
  void setShardCount(std::uint32_t shards);
  [[nodiscard]] std::uint32_t shardCount() const {
    return engine_ ? engine_->shardCount() : 1;
  }
  [[nodiscard]] bool sharded() const { return engine_ != nullptr; }

  /// Shard executing on this thread (0 outside execution or when serial).
  [[nodiscard]] ShardId currentShard() const {
    return engine_ ? engine_->currentShard() : 0;
  }

  /// Declares a modeled cross-shard latency; the engine's conservative
  /// lookahead is the minimum declared value. No-op when serial.
  void declareCrossShardLatency(Cycle latency) {
    if (engine_) engine_->declareCrossLatency(latency);
  }
  [[nodiscard]] Cycle crossShardLookahead() const {
    return engine_ ? engine_->lookahead() : 0;
  }

  /// Schedules onto an explicit shard. From inside a window targeting a
  /// remote lane this is a cross-shard injection and the delay must be >=
  /// the declared lookahead (std::logic_error otherwise). Serial mode
  /// ignores the shard and schedules locally.
  void scheduleOnShard(ShardId shard, Cycle delay, Event ev) {
    if (engine_) {
      engine_->scheduleOn(shard, delay, std::move(ev));
      return;
    }
    queue_.push(now_ + delay, std::move(ev));
  }

  /// Debug guard for shard-affine resources (buses, MMIO windows): throws
  /// std::logic_error when called from a lane other than `home`. Outside
  /// window execution (setup, control plane between runs) it never fires.
  void assertOnShard(ShardId home, const char* what) const;

  /// Wall-clock jitter for determinism stress tests; forwarded to the
  /// engine. 0 (default) disables. No-op when serial.
  void setShardJitter(std::uint64_t seed) {
    if (engine_) engine_->setJitter(seed);
  }

  /// Per-lane / channel counters; nullopt-equivalent (empty stats) when
  /// serial. See ShardStats.
  [[nodiscard]] ShardStats shardStats() const {
    return engine_ ? engine_->snapshotStats() : ShardStats{};
  }
  [[nodiscard]] ShardEngine* shardEngine() const { return engine_.get(); }

  /// Verbosity: 0 silent, 1 info, 2 debug. trace() writes to stderr when
  /// level <= verbosity.
  void setVerbosity(int v) { verbosity_ = v; }
  [[nodiscard]] int verbosity() const { return verbosity_; }
  void trace(int level, std::string_view msg) const;

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
  int verbosity_ = 0;
  std::exception_ptr pending_error_;
  FaultInjector* faults_ = nullptr;
  std::unique_ptr<ShardEngine> engine_;
};

}  // namespace eclipse::sim
