#pragma once

#include <cstdint>
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
/// initiative); they are coroutines whose completion time models the
/// master-slave handshake and any memory traffic incurred.
class Shell {
 public:
  Shell(sim::Simulator& sim, const ShellParams& params, mem::SharedSram& sram,
        mem::MessageNetwork& network);

  Shell(const Shell&) = delete;
  Shell& operator=(const Shell&) = delete;

  // ------------------------------------------------------------------
  // Task-level interface (Section 3.2)
  // ------------------------------------------------------------------

  /// GetTask: returns the next task to execute and its parameter word.
  /// Suspends (coprocessor idles) while no configured task is runnable.
  sim::Task<GetTaskResult> getTask();

  /// GetSpace: inquires whether `n_bytes` of data (input port) or room
  /// (output port) are available ahead of the access point. Purely local.
  sim::Task<bool> getSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);

  /// PutSpace: commits `n_bytes` — advances the access point, flushes any
  /// dirty cache lines in the committed window, then signals the remote
  /// access point's shell.
  sim::Task<void> putSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes);

  /// Acquires a zero-copy read view of [offset, offset+n) within the
  /// granted window of an input port. Charged exactly the cycle costs of a
  /// read() of the same size (port handshake, cache hit/miss walk,
  /// prefetch); the returned view points directly into the stream FIFO in
  /// SRAM. view.commit() performs PutSpace(offset + n).
  sim::Task<WindowView> acquireRead(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                    std::size_t n);

  /// Acquires a zero-copy write view of [offset, offset+n) within the
  /// granted window of an output port; same cycle costs as a write() of
  /// the same size. Bytes stored through the view land in the stream FIFO
  /// immediately (write-through); the cache replays the dirty-line /
  /// flush timing. view.commit() performs PutSpace(offset + n).
  sim::Task<WindowView> acquireWrite(sim::TaskId task, sim::PortId port, std::uint64_t offset,
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
  [[nodiscard]] sim::Cycle watchdogTimeout() const { return params_.watchdog_timeout; }

  /// Sticky counter of putspace messages that arrived for an unconfigured
  /// stream row (e.g. a message in flight across teardown) and were
  /// dropped instead of tearing down the simulation.
  [[nodiscard]] std::uint64_t lateSyncDrops() const { return late_sync_drops_; }
  [[nodiscard]] std::uint64_t faultsLatched() const { return faults_latched_; }
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
  [[nodiscard]] std::uint64_t syncMessagesReceived() const { return sync_messages_rx_; }

  /// Coprocessor busy fraction over `elapsed` cycles (busy = not waiting
  /// inside GetTask).
  [[nodiscard]] double utilization(sim::Cycle elapsed) const;

  /// Starts the sampling process (requires params.profiler_period > 0).
  void startProfiler();
  void stopProfiler() { profiling_ = false; }

  /// Returns the shell to its just-constructed scheduler state so the
  /// instance can be reused for a fresh set of control-loop processes
  /// (farm worker recycling). Only sound after every task/stream row has
  /// been invalidated (teardown) and the owning simulator's
  /// destroyProcesses() ran: the parked GetTask/waitSpace waiters recorded
  /// in the shell's events are dangling handles then. Measurement counters
  /// (idle cycles, task switches, latched-fault totals) are preserved —
  /// they are cumulative statistics, not scheduler state.
  void recycle();

 private:
  struct Port {
    std::unique_ptr<StreamCache> cache;
    std::vector<std::uint8_t> scratch;  // fragmented-view gather fallback
  };

  /// Shared timing + view construction behind acquireRead/acquireWrite.
  sim::Task<WindowView> acquire(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                std::size_t n, bool writing);

  /// Throws std::invalid_argument unless the cache lines of the stream
  /// buffer [base, base+bytes) lie inside the SRAM. Checked when a row
  /// becomes valid, so the stream caches never time an access outside it.
  void checkBufferInSram(sim::Addr base, std::uint64_t bytes) const;

  void onSyncMessage(const mem::SyncMessage& msg);

  /// True when the task cannot run because a previously denied GetSpace is
  /// still unsatisfied; self-clears once space arrives (best guess).
  [[nodiscard]] bool blockedNow(TaskRow& t);

  /// Splits the cyclic window [pos_from, pos_from+len) of `row` into at
  /// most two linear SRAM segments and invokes fn(addr, seg_len, seg_off).
  template <typename Fn>
  void forEachSegment(const StreamRow& row, std::uint64_t pos_from, std::uint64_t len, Fn&& fn) const {
    std::uint64_t done = 0;
    while (done < len) {
      const std::uint64_t p = pos_from + done;
      const std::uint64_t off = p % row.size;
      const std::uint64_t seg = std::min<std::uint64_t>(len - done, row.size - off);
      fn(row.base + off, seg, done);
      done += seg;
    }
  }

  sim::Task<void> profilerProcess();
  sim::Task<void> watchdogProcess();

  /// One watchdog scan: latches stalls for tasks blocked past the timeout.
  void scanStalls();

  sim::Simulator& sim_;
  ShellParams params_;
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
  std::uint64_t sync_messages_rx_ = 0;
  bool profiling_ = false;

  // Fault containment state.
  std::uint64_t late_sync_drops_ = 0;
  std::uint64_t faults_latched_ = 0;
  std::uint64_t stalls_latched_ = 0;
  bool watchdog_running_ = false;
  std::vector<std::pair<int, FaultObserver>> fault_observers_;
  int next_observer_id_ = 0;
};

}  // namespace eclipse::shell
