#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eclipse/sim/stats.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::shell {

/// Cause codes latched in the per-task fault register (MMIO-readable).
/// Mirrors a hardware error-cause CSR: the first fault wins, later ones
/// only bump the count.
enum class FaultCause : std::uint32_t {
  None = 0,
  TaskException = 1,  ///< generic C++ exception escaped the processing step
  Bitstream = 2,      ///< media::BitstreamError — corrupted input data
  Protocol = 3,       ///< std::logic_error — five-primitive protocol misuse
  Watchdog = 4,       ///< progress watchdog expired (no space granted)
  Injected = 5,       ///< fault injector asked for an explicit task fault
  Hang = 6,           ///< injected task hang exceeded the watchdog
};

[[nodiscard]] constexpr const char* faultCauseName(FaultCause c) {
  switch (c) {
    case FaultCause::None: return "none";
    case FaultCause::TaskException: return "task-exception";
    case FaultCause::Bitstream: return "bitstream";
    case FaultCause::Protocol: return "protocol";
    case FaultCause::Watchdog: return "watchdog";
    case FaultCause::Injected: return "injected";
    case FaultCause::Hang: return "hang";
  }
  return "?";
}

/// Configuration of one access point written by the CPU (Section 5.1).
struct StreamConfig {
  sim::TaskId task = 0;
  sim::PortId port = 0;
  bool is_producer = false;       ///< output port (writes data) vs input port
  sim::Addr buffer_base = 0;      ///< stream FIFO base address in on-chip SRAM
  std::uint32_t buffer_bytes = 0; ///< FIFO size
  std::uint32_t remote_shell = 0; ///< shell holding the other access point
  std::uint32_t remote_row = 0;   ///< stream-table row at that shell
  std::uint32_t initial_space = 0;///< producer: buffer size; consumer: 0
};

/// One stream-table row: the local state of one access point onto a stream
/// FIFO, including the (maybe pessimistic) `space` field of Figure 7 and
/// the per-stream measurement counters of Section 5.4.
struct StreamRow {
  bool valid = false;
  sim::TaskId task = 0;
  sim::PortId port = 0;
  bool is_producer = false;
  sim::Addr base = 0;
  std::uint32_t size = 0;
  std::uint64_t pos = 0;       ///< absolute stream position of the access point
  std::uint32_t pos_off = 0;   ///< pos % size: the access point's buffer offset
  std::uint32_t space = 0;     ///< known available data (consumer) or room (producer)
  std::uint32_t granted = 0;   ///< high-water mark of the granted access window
  std::uint32_t remote_shell = 0;
  std::uint32_t remote_row = 0;

  // Measurement fields (memory-mapped, CPU-readable).
  std::uint64_t bytes_transferred = 0;
  std::uint64_t getspace_calls = 0;
  std::uint64_t getspace_denied = 0;
  std::uint64_t putspace_calls = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flushes = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t prefetches = 0;
  sim::Accumulator access_latency;  ///< cycles per Read/Write call (Section 5.4)
  sim::TimeSeries fill_series;      ///< sampled `space` (profiler)

  // Stall register (latched by the progress watchdog, CPU-readable):
  // the row's task waited on this access point with no space granted for
  // longer than the configured timeout.
  bool stalled = false;
  sim::Cycle stall_cycle = 0;  ///< cycle the stall was latched
};

/// Configuration of one task slot written by the CPU (Section 5.3).
struct TaskConfig {
  bool enabled = true;
  std::uint32_t budget_cycles = 2000;  ///< weighted round-robin budget
  std::uint32_t task_info = 0;         ///< parameter word returned by GetTask
};

/// One task-table row: configuration, scheduler state and measurements.
struct TaskRow {
  bool valid = false;
  bool enabled = false;
  std::uint32_t budget_cycles = 0;
  std::uint32_t task_info = 0;

  // Scheduler state ('best guess', Section 5.3): a task whose GetSpace was
  // denied is not rescheduled until the offending row has enough space.
  bool blocked = false;
  std::int32_t blocked_row = -1;
  std::uint32_t blocked_need = 0;
  sim::Cycle blocked_since = 0;  ///< cycle the current block started
  sim::Cycle budget_left = 0;

  // Fault register (Section 5.3 spirit: error cause latched per task slot,
  // readable over the PI-bus). First fault wins; `fault_count` tracks
  // repeats. Latching a fault clears `enabled` so siblings keep running.
  bool faulted = false;
  FaultCause fault_cause = FaultCause::None;
  sim::Cycle fault_cycle = 0;
  std::int32_t fault_row = -1;    ///< stream row involved, -1 if none
  std::uint32_t fault_count = 0;
  std::string fault_what;         ///< diagnostic text (not MMIO-visible)

  // Measurement fields.
  sim::Cycle busy_cycles = 0;
  sim::Cycle blocked_cycles = 0;
  std::uint64_t gettask_count = 0;
  std::uint64_t schedule_count = 0;  ///< times selected (incl. continuations)
  std::uint64_t switch_count = 0;    ///< times selected when another task ran before
  sim::Cycle last_selected_at = 0;
  sim::Accumulator step_cycles;  ///< processing-step durations (Section 5.3)
  sim::TimeSeries stall_series;  ///< sampled blocked state (profiler)
};

/// Fixed-capacity stream table with O(1) (task, port) lookup.
///
/// A dense (task, port) -> row map answers lookup() for task ids below
/// `max_tasks` and port ids below kMapPorts; other keys fall back to a
/// scan. The map names the lowest-index valid row with the key, as a scan
/// would. It is kept current wherever a row's valid, task or port field
/// changes: configure(), and rekey() for the MMIO writes.
class StreamTable {
 public:
  static constexpr std::uint32_t kMapPorts = 16;

  StreamTable(std::uint32_t capacity, std::uint32_t max_tasks)
      : rows_(capacity), map_tasks_(max_tasks), map_(std::size_t{max_tasks} * kMapPorts, kNone) {}

  /// Installs a configuration in the first free row; returns the row index.
  std::uint32_t configure(const StreamConfig& cfg) {
    for (std::uint32_t i = 0; i < rows_.size(); ++i) {
      if (!rows_[i].valid) {
        rekey(i, [&](StreamRow& r) {
          r = StreamRow{};
          r.valid = true;
          r.task = cfg.task;
          r.port = cfg.port;
          r.is_producer = cfg.is_producer;
          r.base = cfg.buffer_base;
          r.size = cfg.buffer_bytes;
          r.space = cfg.initial_space;
          r.remote_shell = cfg.remote_shell;
          r.remote_row = cfg.remote_row;
        });
        return i;
      }
    }
    throw std::runtime_error("StreamTable: no free row");
  }

  /// Applies `change` to row `i`, which may rewrite its valid, task or port
  /// field, and brings the lookup map up to date for the old and new key.
  template <typename Fn>
  void rekey(std::uint32_t i, Fn&& change) {
    StreamRow& r = rows_.at(i);
    const sim::TaskId old_task = r.task;
    const sim::PortId old_port = r.port;
    change(r);
    refresh(old_task, old_port);
    refresh(r.task, r.port);
  }

  /// Finds the row for (task, port); throws if absent.
  [[nodiscard]] std::uint32_t lookup(sim::TaskId task, sim::PortId port) const {
    const std::size_t key = slot(task, port);
    const std::uint32_t i = key != kNoSlot ? map_[key] : scan(task, port);
    if (i == kNone) [[unlikely]] noRow(task, port);
    return i;
  }

  [[nodiscard]] StreamRow& row(std::uint32_t i) { return rows_.at(i); }
  [[nodiscard]] const StreamRow& row(std::uint32_t i) const { return rows_.at(i); }
  [[nodiscard]] std::uint32_t capacity() const { return static_cast<std::uint32_t>(rows_.size()); }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Map index of (task, port), or kNoSlot outside the dense map.
  [[nodiscard]] std::size_t slot(sim::TaskId task, sim::PortId port) const {
    const auto t = static_cast<std::uint32_t>(task);  // negative ids wrap high
    const auto p = static_cast<std::uint32_t>(port);
    if (t >= map_tasks_ || p >= kMapPorts) return kNoSlot;
    return std::size_t{t} * kMapPorts + p;
  }

  [[noreturn]] [[gnu::cold]] static void noRow(sim::TaskId task, sim::PortId port) {
    throw std::out_of_range("StreamTable: no row for task " + std::to_string(task) + " port " +
                            std::to_string(port));
  }

  /// Lowest-index valid row holding (task, port), or kNone.
  [[nodiscard]] std::uint32_t scan(sim::TaskId task, sim::PortId port) const {
    for (std::uint32_t i = 0; i < rows_.size(); ++i) {
      const StreamRow& r = rows_[i];
      if (r.valid && r.task == task && r.port == port) return i;
    }
    return kNone;
  }

  void refresh(sim::TaskId task, sim::PortId port) {
    if (const std::size_t key = slot(task, port); key != kNoSlot) map_[key] = scan(task, port);
  }

  std::vector<StreamRow> rows_;
  std::uint32_t map_tasks_;
  std::vector<std::uint32_t> map_;  // (task * kMapPorts + port) -> row, or kNone
};

/// Fixed-capacity task table.
class TaskTable {
 public:
  explicit TaskTable(std::uint32_t capacity) : rows_(capacity) {}

  void configure(sim::TaskId task, const TaskConfig& cfg) {
    TaskRow& r = rows_.at(static_cast<std::size_t>(task));
    r = TaskRow{};
    r.valid = true;
    r.enabled = cfg.enabled;
    r.budget_cycles = cfg.budget_cycles;
    r.task_info = cfg.task_info;
  }

  [[nodiscard]] TaskRow& row(sim::TaskId task) { return rows_.at(static_cast<std::size_t>(task)); }
  [[nodiscard]] const TaskRow& row(sim::TaskId task) const {
    return rows_.at(static_cast<std::size_t>(task));
  }
  [[nodiscard]] std::uint32_t capacity() const { return static_cast<std::uint32_t>(rows_.size()); }

 private:
  std::vector<TaskRow> rows_;
};

/// PI-bus register map of a shell's tables (Section 5.4): max_streams
/// stream rows of kStreamRowWords 32-bit words, then max_tasks task rows
/// of kTaskRowWords words, then a kShellCtlWords control block. Each field
/// is a word offset within its row or block; Shell::mmioRead/mmioWrite
/// decode these, and app::mmio builds bus addresses from them.
namespace mmio {

inline constexpr std::uint32_t kStreamRowWords = 32;
inline constexpr std::uint32_t kTaskRowWords = 32;
inline constexpr std::uint32_t kShellCtlWords = 8;

/// Stream-row fields. Fields past kStreamRemoteRow are read-only
/// position/measurement registers, except kStreamStalled (write 0 to clear
/// a latched stall).
enum StreamField : std::uint32_t {
  kStreamValid = 0,
  kStreamTask = 1,
  kStreamPort = 2,
  kStreamIsProducer = 3,
  kStreamBase = 4,
  kStreamSize = 5,
  kStreamSpace = 6,
  kStreamRemoteShell = 7,
  kStreamRemoteRow = 8,
  kStreamPosLo = 9,
  kStreamPosHi = 10,
  kStreamGranted = 11,
  kStreamBytesLo = 12,
  kStreamBytesHi = 13,
  kStreamGetspaceCalls = 14,
  kStreamGetspaceDenied = 15,
  kStreamPutspaceCalls = 16,
  kStreamReadCalls = 17,
  kStreamWriteCalls = 18,
  kStreamCacheHits = 19,
  kStreamCacheMisses = 20,
  kStreamCacheFlushes = 21,
  kStreamCacheInvalidations = 22,
  kStreamPrefetches = 23,
  kStreamAccessCount = 24,
  kStreamAccessMean = 25,
  kStreamAccessMax = 26,
  // Watchdog stall latch (DESIGN §9).
  kStreamStalled = 27,
  kStreamStallCycleLo = 28,
  kStreamStallCycleHi = 29,
};

/// Task-row fields. Fields past kTaskInfo are read-only, except
/// kTaskBlocked and kTaskFaulted (write 0 to clear the latch; after a fault
/// the enable bit must be restored separately — recovery is a deliberate
/// two-step).
enum TaskField : std::uint32_t {
  kTaskValid = 0,
  kTaskEnabled = 1,
  kTaskBudget = 2,
  kTaskInfo = 3,
  kTaskBusyLo = 4,
  kTaskBusyHi = 5,
  kTaskBlocked = 6,  ///< write 0 to clear the blocked latch (row re-binding)
  kTaskGettaskCount = 7,
  kTaskScheduleCount = 8,
  kTaskSwitchCount = 9,
  kTaskBlockedCycles = 10,
  kTaskStepCount = 11,
  kTaskStepMean = 12,
  kTaskStepMax = 13,
  // Fault register block (DESIGN §9).
  kTaskFaulted = 14,
  kTaskFaultCause = 15,
  kTaskFaultCycleLo = 16,
  kTaskFaultCycleHi = 17,
  kTaskFaultRow = 18,
  kTaskFaultCount = 19,
};

/// Shell control block fields (word offsets past the task table).
enum CtlField : std::uint32_t {
  kCtlLateSyncDrops = 0,    ///< sticky drop counter; writable (reset)
  kCtlWatchdogTimeout = 1,  ///< write arms/disarms the watchdog (0 = off)
  kCtlWatchdogPeriod = 2,   ///< scan period; write BEFORE the timeout
  kCtlFaultsLatched = 3,    ///< read-only
  kCtlStallsLatched = 4,    ///< read-only
};

}  // namespace mmio

}  // namespace eclipse::shell
