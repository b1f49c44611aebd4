#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "eclipse/mem/message_network.hpp"
#include "eclipse/mem/pi_bus.hpp"
#include "eclipse/mem/sram.hpp"
#include "eclipse/shell/params.hpp"
#include "eclipse/shell/stream_cache.hpp"
#include "eclipse/shell/tables.hpp"
#include "eclipse/shell/window_view.hpp"
#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::shell {

/// The coprocessor shell — the paper's central contribution (Sections 3–5).
///
/// One shell instance fronts one coprocessor and implements the five-
/// primitive task-level interface (GetTask / Read / Write / GetSpace /
/// PutSpace) plus all generic infrastructure behind it:
///  * multi-tasking: weighted round-robin task scheduling with cycle
///    budgets and 'best guess' readiness (Section 5.3),
///  * stream synchronization: local `space` accounting with putspace
///    messages to the remote access point's shell (Section 5.1, Figure 7),
///  * data transport: cyclic FIFO addressing into the shared SRAM through
///    per-port stream caches with sync-driven explicit coherency and
///    prefetching (Section 5.2),
///  * performance measurement: per-stream and per-task counters plus a
///    sampling process, all CPU-readable over the PI-bus (Section 5.4).
///
/// All primitives are called by the coprocessor (the coprocessor has the
/// initiative) and are awaited: their completion time models the
/// master-slave handshake and any memory traffic incurred. GetTask,
/// GetSpace, PutSpace and the acquires are awaiters held in the caller's
/// frame, not coroutines: the fixed delay is one event, which either
/// resumes the caller (whose await_resume does the bookkeeping) or runs the
/// next step of a resumable walk (stream-cache accesses and flushes,
/// chained through bus-request callbacks). An exception raised after the
/// delay is stored in the awaiter and rethrown from await_resume, in the
/// caller, at the cycle it arose.
class Shell {
 public:
  class GetTaskOp;
  class GetSpaceOp;
  class PutSpaceOp;
  class AcquireOp;

  Shell(sim::Simulator& sim, const ShellParams& params, mem::SharedSram& sram,
        mem::MessageNetwork& network);

  Shell(const Shell&) = delete;
  Shell& operator=(const Shell&) = delete;

  // ------------------------------------------------------------------
  // Task-level interface (Section 3.2)
  // ------------------------------------------------------------------

  /// GetTask: returns the next task to execute and its parameter word.
  /// Suspends (coprocessor idles) while no configured task is runnable.
  [[nodiscard]] GetTaskOp getTask();

  /// GetSpace: inquires whether `n_bytes` of data (input port) or room
  /// (output port) are available ahead of the access point. Purely local.
  [[nodiscard]] GetSpaceOp getSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);

  /// PutSpace: commits `n_bytes` — advances the access point, flushes any
  /// dirty cache lines in the committed window, then signals the remote
  /// access point's shell.
  [[nodiscard]] PutSpaceOp putSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);

  /// Acquires a zero-copy read view of [offset, offset+n) within the
  /// granted window of an input port. Charged exactly the cycle costs of a
  /// read() of the same size (port handshake, cache hit/miss walk,
  /// prefetch); the returned view points directly into the stream FIFO in
  /// SRAM. putSpace(task, port, offset + n) commits it.
  [[nodiscard]] AcquireOp acquireRead(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                      std::size_t n);

  /// Acquires a zero-copy write view of [offset, offset+n) within the
  /// granted window of an output port; same cycle costs as a write() of
  /// the same size. Bytes stored through the view land in the stream FIFO
  /// immediately (write-through); the cache replays the dirty-line /
  /// flush timing. putSpace(task, port, offset + n) commits it.
  [[nodiscard]] AcquireOp acquireWrite(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                       std::size_t n);

  /// Read: copies from the stream at [offset, offset+out.size()) within
  /// the granted window into `out`. Input ports only. (Adapter over
  /// acquireRead — same simulated timing.)
  sim::Task<void> read(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                       std::span<std::uint8_t> out);

  /// Write: copies `in` into the stream window at `offset`. Output ports
  /// only. (Adapter over acquireWrite — same simulated timing.)
  sim::Task<void> write(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                        std::span<const std::uint8_t> in);

  /// Reusable per-port scratch buffer for gathering the rare fragmented
  /// (buffer-wrapping) view into contiguous bytes (used by packet_io).
  [[nodiscard]] std::vector<std::uint8_t>& portScratch(sim::TaskId task, sim::PortId port) {
    return ports_[streams_.lookup(task, port)].scratch;
  }

  /// Convenience for blocking-coprocessor designs (Section 4.2 alternative:
  /// "let the coprocessor wait for the space to arrive"): suspends until a
  /// GetSpace of `n_bytes` succeeds.
  sim::Task<void> waitSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);

  // ------------------------------------------------------------------
  // Configuration (CPU side)
  // ------------------------------------------------------------------

  void configureTask(sim::TaskId task, const TaskConfig& cfg);
  std::uint32_t configureStream(const StreamConfig& cfg);
  void setTaskEnabled(sim::TaskId task, bool enabled);

  // ------------------------------------------------------------------
  // Fault containment (tentpole of the robustness PR)
  // ------------------------------------------------------------------

  /// Latches a fault into the task's fault register: records cause, cycle,
  /// stream row and diagnostic text, clears the enable bit (so the
  /// scheduler skips the task while siblings keep running) and notifies
  /// fault observers. The first fault wins; repeats only bump fault_count.
  void latchFault(sim::TaskId task, FaultCause cause, std::int32_t row,
                  const std::string& what);

  /// Clears a latched fault (CPU recovery path); optionally re-enables.
  void clearFault(sim::TaskId task, bool reenable);

  /// Observer called on each latchFault (task id, latched row snapshot).
  /// Returns an id usable with removeFaultObserver.
  using FaultObserver = std::function<void(sim::TaskId, const TaskRow&)>;
  int addFaultObserver(FaultObserver fn);
  void removeFaultObserver(int id);

  /// Arms the per-stream progress watchdog: a periodic scan latches a
  /// stall (StreamRow.stalled + task FaultCause::Watchdog) when a blocked
  /// task has waited `timeout` cycles with no space granted. timeout 0
  /// stops the watchdog after the current period.
  void startWatchdog(sim::Cycle timeout, sim::Cycle period = 0);

  /// Sticky counter of putspace messages that arrived for an unconfigured
  /// stream row (e.g. a message in flight across teardown) and were
  /// dropped instead of tearing down the simulation.
  [[nodiscard]] std::uint64_t lateSyncDrops() const { return late_sync_drops_; }
  [[nodiscard]] std::uint64_t stallsLatched() const { return stalls_latched_; }

  /// Maps the stream and task tables as 32-bit registers on the PI-bus at
  /// `base`. The window size is mmioWindowBytes().
  void mapMmio(mem::PiBus& bus, sim::Addr base);
  [[nodiscard]] sim::Addr mmioWindowBytes() const;

  /// Direct register access (also used by the PI-bus mapping).
  [[nodiscard]] std::uint32_t mmioRead(sim::Addr offset) const;
  void mmioWrite(sim::Addr offset, std::uint32_t value);

  // ------------------------------------------------------------------
  // Measurement / introspection
  // ------------------------------------------------------------------

  [[nodiscard]] const ShellParams& params() const { return params_; }
  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] std::uint32_t id() const { return params_.id; }

  [[nodiscard]] StreamTable& streams() { return streams_; }
  [[nodiscard]] const StreamTable& streams() const { return streams_; }
  [[nodiscard]] TaskTable& tasks() { return tasks_; }
  [[nodiscard]] const TaskTable& tasks() const { return tasks_; }

  [[nodiscard]] sim::Cycle idleCycles() const { return idle_cycles_; }
  [[nodiscard]] std::uint64_t taskSwitches() const { return task_switches_; }

  /// Coprocessor busy fraction over `elapsed` cycles (busy = not waiting
  /// inside GetTask).
  [[nodiscard]] double utilization(sim::Cycle elapsed) const;

  /// Starts the sampling process (requires params.profiler_period > 0).
  void startProfiler();


 private:
  struct Port {
    std::unique_ptr<StreamCache> cache;
    std::vector<std::uint8_t> scratch;  // fragmented-view gather fallback
  };

  /// Throws std::invalid_argument unless the cache lines of the stream
  /// buffer [base, base+bytes) lie inside the SRAM. Checked when a row
  /// becomes valid, so the stream caches never time an access outside it.
  void checkBufferInSram(sim::Addr base, std::uint64_t bytes) const;

  void onSyncMessage(const mem::SyncMessage& msg);

  /// True when the task cannot run because a previously denied GetSpace is
  /// still unsatisfied; self-clears once space arrives (best guess).
  [[nodiscard]] bool blockedNow(TaskRow& t);

  /// Buffer offset of the stream position `rel` bytes past the access
  /// point, for 0 <= rel <= row.size: one compare-and-subtract on the
  /// maintained `pos_off`, no division.
  [[nodiscard]] static std::uint64_t bufferOffset(const StreamRow& row, std::uint64_t rel) {
    const std::uint64_t off = row.pos_off + rel;
    return off >= row.size ? off - row.size : off;
  }

  /// Splits the cyclic window of `len` <= row.size bytes starting `rel`
  /// bytes past the access point into at most two linear SRAM segments and
  /// invokes fn(addr, seg_len, seg_off).
  template <typename Fn>
  void forEachSegment(const StreamRow& row, std::uint64_t rel, std::uint64_t len, Fn&& fn) const {
    if (len == 0) return;
    const std::uint64_t off = bufferOffset(row, rel);
    const std::uint64_t first = std::min<std::uint64_t>(len, row.size - off);
    fn(row.base + off, first, std::uint64_t{0});
    if (first < len) fn(row.base, len - first, first);
  }

  /// The bookkeeping of the primitives, run after their fixed delay.
  bool getSpaceNow(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);
  void chargeStep();
  bool pickTask(GetTaskResult& out);
  void commitPut(std::uint32_t idx, sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);
  [[nodiscard]] WindowView makeView(const StreamRow& row, std::uint64_t offset, std::size_t n);

  sim::Task<void> profilerProcess();
  sim::Task<void> watchdogProcess();

  /// One watchdog scan: latches stalls for tasks blocked past the timeout.
  void scanStalls();

  sim::Simulator& sim_;
  ShellParams params_;
  std::uint32_t port_width_shift_;  // log2(params_.port_width_bytes)
  mem::SharedSram& sram_;
  mem::MessageNetwork& network_;
  StreamTable streams_;
  TaskTable tasks_;
  std::vector<Port> ports_;  // parallel to stream rows

  // Scheduler state.
  sim::TaskId current_task_ = sim::kNoTask;
  std::uint32_t rr_index_ = 0;
  sim::Cycle last_gettask_return_ = 0;
  sim::SimEvent sched_event_;
  sim::SimEvent space_event_;
  sim::Cycle idle_cycles_ = 0;
  std::optional<sim::Cycle> idle_since_;
  std::uint64_t task_switches_ = 0;
  bool profiling_ = false;

  // Fault containment state.
  std::uint64_t late_sync_drops_ = 0;
  std::uint64_t faults_latched_ = 0;
  std::uint64_t stalls_latched_ = 0;
  bool watchdog_running_ = false;
  std::vector<std::pair<int, FaultObserver>> fault_observers_;
  int next_observer_id_ = 0;
};

/// GetTask awaiter: the handshake delay, then the budget / round-robin
/// pick. With nothing runnable the awaiter parks on the scheduler event
/// and picks again when woken; the caller resumes once a task is chosen.
class [[nodiscard]] Shell::GetTaskOp {
 public:
  explicit GetTaskOp(Shell& sh) : sh_(sh) {}
  GetTaskOp(const GetTaskOp&) = delete;
  GetTaskOp& operator=(const GetTaskOp&) = delete;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    caller_ = h;
    if (const sim::Cycle d = sh_.params_.gettask_latency; d > 0) {
      sh_.sim_.schedule(d, [this] {
        if (!start()) caller_.resume();
      });
      return true;
    }
    return start();
  }
  GetTaskResult await_resume() const {
    if (error_) std::rethrow_exception(error_);
    return result_;
  }

 private:
  /// Charges the finished step and picks; true when parked.
  bool start();
  /// Picks a task, or parks until the scheduler event; true when parked.
  bool pick();

  Shell& sh_;
  std::coroutine_handle<> caller_;
  GetTaskResult result_;
  std::exception_ptr error_;
};

/// GetSpace awaiter: the handshake delay, then the space check, window
/// extension (invalidate, prefetch) or denial in await_resume.
class [[nodiscard]] Shell::GetSpaceOp {
 public:
  GetSpaceOp(Shell& sh, sim::TaskId task, sim::PortId port, std::uint32_t n_bytes)
      : sh_(sh), task_(task), port_(port), n_bytes_(n_bytes) {}

  bool await_ready() const noexcept { return sh_.params_.sync_latency == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sh_.sim_.scheduleResume(sh_.params_.sync_latency, h);
  }
  bool await_resume() const { return sh_.getSpaceNow(task_, port_, n_bytes_); }

 private:
  Shell& sh_;
  sim::TaskId task_;
  sim::PortId port_;
  std::uint32_t n_bytes_;
};

/// PutSpace awaiter: the handshake delay, then (output ports) a flush walk
/// over the dirty lines of the committed window, one write burst each,
/// then the commit and the putspace message.
class [[nodiscard]] Shell::PutSpaceOp : StreamCache::Walk {
 public:
  PutSpaceOp(Shell& sh, sim::TaskId task, sim::PortId port, std::uint32_t n_bytes)
      : sh_(sh), task_(task), port_(port), n_bytes_(n_bytes) {
    finished = &walkDone;
  }
  PutSpaceOp(const PutSpaceOp&) = delete;
  PutSpaceOp& operator=(const PutSpaceOp&) = delete;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    caller_ = h;
    if (const sim::Cycle d = sh_.params_.sync_latency; d > 0) {
      sh_.sim_.schedule(d, [this] {
        if (!start()) caller_.resume();
      });
      return true;
    }
    return start();
  }
  void await_resume() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// Checks the commit and starts the flush walk; true when suspended.
  bool start();
  /// Flushes the next buffer segment, or commits; true when suspended.
  bool flushNext();
  static void walkDone(StreamCache::Walk& w) {
    auto& op = static_cast<PutSpaceOp&>(w);
    if (!op.flushNext()) op.caller_.resume();
  }

  Shell& sh_;
  sim::TaskId task_;
  sim::PortId port_;
  std::uint32_t n_bytes_;
  std::uint32_t idx_ = 0;
  std::uint32_t flushed_ = 0;  // bytes of the committed window walked
  std::coroutine_handle<> caller_;
  std::exception_ptr error_;
};

/// Acquire awaiter behind acquireRead/acquireWrite: checks the access,
/// waits the port transfer, then walks the stream cache over at most two
/// buffer segments and returns the view.
class [[nodiscard]] Shell::AcquireOp : StreamCache::Walk {
 public:
  AcquireOp(Shell& sh, sim::TaskId task, sim::PortId port, std::uint64_t offset, std::size_t n,
            bool writing)
      : sh_(sh), task_(task), port_(port), offset_(offset), n_(n), writing_(writing) {
    finished = &walkDone;
  }
  AcquireOp(const AcquireOp&) = delete;
  AcquireOp& operator=(const AcquireOp&) = delete;

  /// Checks port direction and window (throws like the primitive would).
  bool await_ready() {
    prepare();
    return false;
  }
  bool await_suspend(std::coroutine_handle<> h) {
    caller_ = h;
    if (xfer_ > 0) {
      sh_.sim_.schedule(xfer_, [this] {
        if (!walk()) caller_.resume();
      });
      return true;
    }
    return walk();
  }
  WindowView await_resume() {
    row_->access_latency.add(static_cast<double>(sh_.sim_.now() - t0_));
    return sh_.makeView(*row_, offset_, n_);
  }

 private:
  void prepare();
  /// Counts the access and walks the first segment; true when suspended.
  bool walk();
  /// Walks the next buffer segment; true when suspended, false when done.
  bool nextSegment();
  static void walkDone(StreamCache::Walk& w) {
    auto& op = static_cast<AcquireOp&>(w);
    if (!op.nextSegment()) op.caller_.resume();
  }

  Shell& sh_;
  sim::TaskId task_;
  sim::PortId port_;
  std::uint64_t offset_;
  std::size_t n_;
  bool writing_;
  std::uint32_t idx_ = 0;
  StreamRow* row_ = nullptr;
  StreamCache* cache_ = nullptr;
  sim::Cycle xfer_ = 0;
  sim::Cycle t0_ = 0;
  sim::Addr hint_ = StreamCache::kNoPrefetch;
  std::size_t walked_ = 0;  // bytes of the access walked
  std::coroutine_handle<> caller_;
};

inline Shell::GetTaskOp Shell::getTask() { return GetTaskOp(*this); }

inline Shell::GetSpaceOp Shell::getSpace(sim::TaskId task, sim::PortId port,
                                         std::uint32_t n_bytes) {
  return GetSpaceOp(*this, task, port, n_bytes);
}

inline Shell::PutSpaceOp Shell::putSpace(sim::TaskId task, sim::PortId port,
                                         std::uint32_t n_bytes) {
  return PutSpaceOp(*this, task, port, n_bytes);
}

inline Shell::AcquireOp Shell::acquireRead(sim::TaskId task, sim::PortId port,
                                           std::uint64_t offset, std::size_t n) {
  return AcquireOp(*this, task, port, offset, n, /*writing=*/false);
}

inline Shell::AcquireOp Shell::acquireWrite(sim::TaskId task, sim::PortId port,
                                            std::uint64_t offset, std::size_t n) {
  return AcquireOp(*this, task, port, offset, n, /*writing=*/true);
}

}  // namespace eclipse::shell
