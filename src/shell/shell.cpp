#include "eclipse/shell/shell.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "eclipse/sim/fault.hpp"

namespace eclipse::shell {

using namespace mmio;

namespace {

std::uint32_t lo32(std::uint64_t v) { return static_cast<std::uint32_t>(v); }
std::uint32_t hi32(std::uint64_t v) { return static_cast<std::uint32_t>(v >> 32); }

}  // namespace

Shell::Shell(sim::Simulator& sim, const ShellParams& params, mem::SharedSram& sram,
             mem::MessageNetwork& network)
    : sim_(sim),
      params_(params),
      port_width_shift_(static_cast<std::uint32_t>(std::countr_zero(
          mem::requirePowerOfTwo(params.port_width_bytes, "shell.port_width_bytes")))),
      sram_(sram),
      network_(network),
      streams_(params.max_streams, params.max_tasks),
      tasks_(params.max_tasks),
      ports_(params.max_streams),
      sched_event_(sim),
      space_event_(sim) {
  mem::requirePowerOfTwo(params_.cache_line_bytes, "shell.cache_line_bytes");
  network_.attach(params_.id, [this](const mem::SyncMessage& msg) { onSyncMessage(msg); });
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

void Shell::configureTask(sim::TaskId task, const TaskConfig& cfg) {
  tasks_.configure(task, cfg);
  sched_event_.notifyAll();
}

std::uint32_t Shell::configureStream(const StreamConfig& cfg) {
  if (cfg.buffer_bytes == 0 || cfg.buffer_bytes % params_.cache_line_bytes != 0 ||
      cfg.buffer_base % params_.cache_line_bytes != 0) {
    throw std::invalid_argument(
        "Shell: stream buffers must be non-empty and cache-line aligned (base and size)");
  }
  checkBufferInSram(cfg.buffer_base, cfg.buffer_bytes);
  const std::uint32_t row = streams_.configure(cfg);
  ports_[row].cache = std::make_unique<StreamCache>(
      sim_, sram_, params_.cache_line_bytes, params_.cache_lines_per_port);
  return row;
}

void Shell::checkBufferInSram(sim::Addr base, std::uint64_t bytes) const {
  const std::uint64_t line = params_.cache_line_bytes;
  const std::uint64_t end = (base + bytes + line - 1) / line * line;
  if (end < base || end > sram_.storage().size()) {
    throw std::invalid_argument("Shell: stream buffer [" + std::to_string(base) + ", " +
                                std::to_string(base + bytes) + ") extends past the " +
                                std::to_string(sram_.storage().size()) + "-byte SRAM");
  }
}

void Shell::setTaskEnabled(sim::TaskId task, bool enabled) {
  tasks_.row(task).enabled = enabled;
  if (enabled) sched_event_.notifyAll();
}

// ---------------------------------------------------------------------
// Scheduler (Section 5.3)
// ---------------------------------------------------------------------

bool Shell::blockedNow(TaskRow& t) {
  if (!t.blocked) return false;
  if (t.blocked_row >= 0) {
    const StreamRow& row = streams_.row(static_cast<std::uint32_t>(t.blocked_row));
    if (row.space >= t.blocked_need) {
      t.blocked = false;
      t.blocked_row = -1;
      return false;
    }
  }
  // Naive-scheduler ablation: without best guess the scheduler considers
  // every enabled task runnable, paying a wasted processing-step attempt
  // for tasks that are in fact still blocked.
  return params_.best_guess;
}

void Shell::chargeStep() {
  // Charge the elapsed processing step to the task that just yielded. A
  // row torn down mid-step (valid cleared over MMIO) takes no charge: the
  // slot may already belong to a later application.
  if (current_task_ == sim::kNoTask) return;
  TaskRow& t = tasks_.row(current_task_);
  if (!t.valid) return;
  const sim::Cycle elapsed = sim_.now() - last_gettask_return_;
  t.busy_cycles += elapsed;
  t.budget_left -= std::min(t.budget_left, elapsed);
  ++t.gettask_count;
  t.step_cycles.add(static_cast<double>(elapsed));
}

bool Shell::pickTask(GetTaskResult& out) {
  sim::TaskId chosen = sim::kNoTask;

  // Budget rule: the running task keeps the coprocessor while its budget
  // lasts and it is not blocked.
  if (current_task_ != sim::kNoTask) {
    TaskRow& cur = tasks_.row(current_task_);
    if (cur.valid && cur.enabled && cur.budget_left > 0 && !blockedNow(cur)) {
      chosen = current_task_;
    }
  }

  if (chosen == sim::kNoTask) {
    // Weighted round-robin over the task table.
    const std::uint32_t n = tasks_.capacity();
    std::uint32_t idx = rr_index_;
    for (std::uint32_t i = 0; i < n; ++i, idx = idx + 1 == n ? 0 : idx + 1) {
      TaskRow& t = tasks_.row(static_cast<sim::TaskId>(idx));
      if (t.valid && t.enabled && !blockedNow(t)) {
        chosen = static_cast<sim::TaskId>(idx);
        rr_index_ = idx + 1 == n ? 0 : idx + 1;
        t.budget_left = t.budget_cycles;
        break;
      }
    }
  }

  if (chosen == sim::kNoTask) return false;
  TaskRow& t = tasks_.row(chosen);
  ++t.schedule_count;
  if (chosen != current_task_) {
    ++t.switch_count;
    ++task_switches_;
  }
  t.last_selected_at = sim_.now();
  current_task_ = chosen;
  last_gettask_return_ = sim_.now();
  out = GetTaskResult{chosen, t.task_info};
  return true;
}

bool Shell::GetTaskOp::start() {
  try {
    sh_.chargeStep();
  } catch (...) {
    error_ = std::current_exception();
    return false;
  }
  return pick();
}

bool Shell::GetTaskOp::pick() {
  try {
    if (sh_.pickTask(result_)) return false;
  } catch (...) {
    error_ = std::current_exception();
    return false;
  }
  // Nothing runnable: the coprocessor idles until synchronization
  // messages (or reconfiguration) make a task ready.
  sh_.idle_since_ = sh_.sim_.now();
  sh_.sched_event_.park([this] {
    sh_.idle_cycles_ += sh_.sim_.now() - *sh_.idle_since_;
    sh_.idle_since_.reset();
    if (!pick()) caller_.resume();
  });
  return true;
}

// ---------------------------------------------------------------------
// Synchronization (Section 5.1)
// ---------------------------------------------------------------------

bool Shell::getSpaceNow(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes) {
  const std::uint32_t idx = streams_.lookup(task, port);
  StreamRow& row = streams_.row(idx);
  ++row.getspace_calls;

  if (n_bytes > row.size) {
    throw std::invalid_argument("Shell::getSpace: request larger than the stream buffer");
  }
  if (n_bytes <= row.space) {
    if (n_bytes > row.granted) {
      // Window extension: data in the cache overlapping the newly granted
      // region may be stale (observation 2) — invalidate it.
      StreamCache& cache = *ports_[idx].cache;
      const std::uint64_t from = row.granted;
      forEachSegment(row, from, n_bytes - from,
                     [&](sim::Addr addr, std::uint64_t seg, std::uint64_t) {
                       cache.invalidateRange(row, addr, seg);
                     });
      row.granted = n_bytes;
      // Prefetch the first line of the fresh window for input ports.
      if (params_.prefetch && !row.is_producer) {
        cache.startPrefetch(row, cache.alignDown(row.base + bufferOffset(row, from)));
      }
    }
    return true;
  }
  ++row.getspace_denied;
  TaskRow& t = tasks_.row(task);
  if (!t.blocked) t.blocked_since = sim_.now();
  t.blocked = true;
  t.blocked_row = static_cast<std::int32_t>(idx);
  t.blocked_need = n_bytes;
  return false;
}

bool Shell::PutSpaceOp::start() {
  try {
    idx_ = sh_.streams_.lookup(task_, port_);
    StreamRow& row = sh_.streams_.row(idx_);
    ++row.putspace_calls;
    if (n_bytes_ > row.granted) {
      throw std::logic_error("Shell::putSpace: commit exceeds the granted window");
    }
  } catch (...) {
    error_ = std::current_exception();
    return false;
  }
  return flushNext();
}

bool Shell::PutSpaceOp::flushNext() {
  StreamRow& row = sh_.streams_.row(idx_);
  if (row.is_producer) {
    // Observation 3: flush dirty data in the committed region before the
    // putspace message makes it visible to the consumer.
    StreamCache& cache = *sh_.ports_[idx_].cache;
    while (flushed_ < n_bytes_) {
      const std::uint64_t off = bufferOffset(row, flushed_);
      const auto seg =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(n_bytes_ - flushed_, row.size - off));
      flushed_ += seg;
      if (cache.flushRange(*this, row, row.base + off, seg)) return true;
    }
  }
  sh_.commitPut(idx_, task_, port_, n_bytes_);
  return false;
}

void Shell::commitPut(std::uint32_t idx, sim::TaskId task, sim::PortId port,
                      std::uint32_t n_bytes) {
  StreamRow& row = streams_.row(idx);
  // Fault hook: corrupt the payload of the committed window in SRAM just
  // before it becomes visible to the consumer. The packet framing (u32
  // length + tag, first 5 bytes of the commit) is left intact so the
  // corruption surfaces downstream as a *parse* error inside the packet —
  // the recoverable case — rather than desynchronised framing.
  if (sim::FaultInjector* inj = sim_.faults(); inj != nullptr && row.is_producer) {
    if (auto mask = inj->corruptPayload(params_.id, task, port, sim_.now())) {
      auto storage = sram_.storage().view();
      forEachSegment(row, 0, n_bytes,
                     [&](sim::Addr addr, std::uint64_t seg, std::uint64_t off0) {
                       for (std::uint64_t k = 0; k < seg; ++k) {
                         if (off0 + k >= 5) storage[addr + k] ^= *mask;
                       }
                     });
      inj->logTrigger(
          {sim::FaultKind::CorruptPayload, sim_.now(), params_.id, task, n_bytes});
    }
  }

  row.space -= n_bytes;
  row.granted -= n_bytes;
  row.pos += n_bytes;
  row.pos_off = static_cast<std::uint32_t>(bufferOffset(row, n_bytes));

  network_.send(mem::SyncMessage{params_.id, row.remote_shell, row.remote_row, n_bytes});
}

void Shell::onSyncMessage(const mem::SyncMessage& msg) {
  StreamRow& row = streams_.row(msg.dst_row);
  if (!row.valid) {
    // Late putspace for a row torn down (or never configured) while the
    // message was in flight — a teardown race, not a programming error.
    // Hardware drops it and bumps a sticky counter the CPU can inspect.
    ++late_sync_drops_;
    return;
  }
  row.space += msg.bytes;
  // Best-guess readiness may have changed; wake an idle coprocessor and
  // any blocking-style waiters.
  sched_event_.notifyAll();
  space_event_.notifyAll();
}

sim::Task<void> Shell::waitSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes) {
  while (true) {
    const bool ok = co_await getSpace(task, port, n_bytes);
    if (ok) co_return;
    co_await space_event_.wait();
  }
}

// ---------------------------------------------------------------------
// Data transport (Section 5.2)
// ---------------------------------------------------------------------

void Shell::AcquireOp::prepare() {
  idx_ = sh_.streams_.lookup(task_, port_);
  row_ = &sh_.streams_.row(idx_);
  if (writing_) {
    if (!row_->is_producer) throw std::logic_error("Shell::write: write on an input port");
  } else {
    if (row_->is_producer) throw std::logic_error("Shell::read: read on an output port");
  }
  if (offset_ + n_ > row_->granted) {
    throw std::logic_error(writing_ ? "Shell::write: access outside the granted window"
                                    : "Shell::read: access outside the granted window");
  }
  // Port handshake plus data transfer over the coprocessor interface.
  const ShellParams& p = sh_.params_;
  xfer_ = p.io_latency + ((n_ + p.port_width_bytes - 1) >> sh_.port_width_shift_);
  t0_ = sh_.sim_.now();  // access latency includes the port handshake
}

bool Shell::AcquireOp::walk() {
  StreamRow& row = *row_;
  if (writing_) {
    ++row.write_calls;
  } else {
    ++row.read_calls;
  }
  row.bytes_transferred += n_;

  // Replay the cache traffic of the copying transport path: the same
  // per-line hit / miss / fill / dirty-mark walk, without moving bytes.
  cache_ = sh_.ports_[idx_].cache.get();

  // Prefetch hint: the cyclically next line after this read, if still
  // inside the granted window.
  if (!writing_ && sh_.params_.prefetch) {
    const std::uint64_t end_pos = row.pos + offset_ + n_;
    const std::uint64_t next_line_pos = cache_->alignDown(end_pos + cache_->lineBytes() - 1);
    if (next_line_pos < row.pos + row.granted) {
      hint_ = row.base + bufferOffset(row, next_line_pos - row.pos);
    }
  }
  return nextSegment();
}

bool Shell::AcquireOp::nextSegment() {
  StreamRow& row = *row_;
  while (walked_ < n_) {
    const std::uint64_t off = bufferOffset(row, offset_ + walked_);
    const auto seg =
        static_cast<std::size_t>(std::min<std::uint64_t>(n_ - walked_, row.size - off));
    walked_ += seg;
    const sim::Addr hint = walked_ >= n_ ? hint_ : StreamCache::kNoPrefetch;
    if (cache_->touch(*this, row, row.base + off, seg, writing_, hint)) return true;
  }
  return false;
}

WindowView Shell::makeView(const StreamRow& row, std::uint64_t offset, std::size_t n) {
  // The scatter-gather view straight into the FIFO's SRAM bytes (<= 2
  // segments: the window may wrap the cyclic buffer once, since the
  // granted window never exceeds the buffer size).
  WindowView v;
  const auto storage = sram_.storage().view();
  forEachSegment(row, offset, n, [&](sim::Addr addr, std::uint64_t seg, std::uint64_t) {
    v.chunks_[v.n_chunks_++] =
        WindowView::Chunk{storage.data() + addr, static_cast<std::size_t>(seg)};
  });
  return v;
}

sim::Task<void> Shell::read(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                            std::span<std::uint8_t> out) {
  WindowView v = co_await acquireRead(task, port, offset, out.size());
  v.copyTo(out);
}

sim::Task<void> Shell::write(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                             std::span<const std::uint8_t> in) {
  WindowView v = co_await acquireWrite(task, port, offset, in.size());
  v.copyFrom(in);
}

// ---------------------------------------------------------------------
// Fault containment
// ---------------------------------------------------------------------

void Shell::latchFault(sim::TaskId task, FaultCause cause, std::int32_t row,
                       const std::string& what) {
  TaskRow& t = tasks_.row(task);
  if (!t.valid) return;
  ++t.fault_count;
  if (!t.faulted) {
    // First fault wins: the register keeps the original cause so the CPU
    // sees the root event, not a cascade symptom.
    t.faulted = true;
    t.fault_cause = cause;
    t.fault_cycle = sim_.now();
    t.fault_row = row;
    t.fault_what = what;
    ++faults_latched_;
  }
  // Containment: the scheduler skips the task from now on; sibling tasks
  // on the same coprocessor keep running.
  t.enabled = false;
  if (!fault_observers_.empty()) {
    // Copy: an observer may add/remove observers (e.g. teardown) mid-call.
    auto observers = fault_observers_;
    for (auto& [id, fn] : observers) fn(task, t);
  }
}

void Shell::clearFault(sim::TaskId task, bool reenable) {
  TaskRow& t = tasks_.row(task);
  if (!t.valid) return;
  t.faulted = false;
  t.fault_cause = FaultCause::None;
  t.fault_cycle = 0;
  t.fault_row = -1;
  t.fault_what.clear();
  if (reenable) {
    t.enabled = true;
    sched_event_.notifyAll();
  }
}

int Shell::addFaultObserver(FaultObserver fn) {
  const int id = next_observer_id_++;
  fault_observers_.emplace_back(id, std::move(fn));
  return id;
}

void Shell::removeFaultObserver(int id) {
  std::erase_if(fault_observers_, [id](const auto& p) { return p.first == id; });
}

void Shell::startWatchdog(sim::Cycle timeout, sim::Cycle period) {
  params_.watchdog_timeout = timeout;
  if (period > 0) params_.watchdog_period = period;
  if (timeout == 0) {
    watchdog_running_ = false;  // process exits at its next tick
    return;
  }
  if (!watchdog_running_) {
    watchdog_running_ = true;
    sim_.spawn(watchdogProcess(), params_.name + ".watchdog");
  }
}

sim::Task<void> Shell::watchdogProcess() {
  while (watchdog_running_ && params_.watchdog_timeout > 0) {
    co_await sim_.delay(params_.watchdog_period);
    if (!watchdog_running_ || params_.watchdog_timeout == 0) break;
    scanStalls();
  }
  watchdog_running_ = false;
}

void Shell::scanStalls() {
  const sim::Cycle now = sim_.now();
  const sim::Cycle timeout = params_.watchdog_timeout;

  // Per-stream progress check: a task blocked on a GetSpace denial with no
  // space granted for `timeout` cycles latches a stall into the stream row.
  // Detection only — the stall register is CPU-readable; nothing is
  // disabled, so a merely-slow peer never kills a healthy task.
  for (std::uint32_t i = 0; i < tasks_.capacity(); ++i) {
    TaskRow& t = tasks_.row(static_cast<sim::TaskId>(i));
    if (!t.valid || !t.enabled || !t.blocked || t.blocked_row < 0) continue;
    if (now - t.blocked_since < timeout) continue;
    StreamRow& r = streams_.row(static_cast<std::uint32_t>(t.blocked_row));
    if (!r.valid || r.stalled) continue;
    if (r.space >= t.blocked_need) continue;  // space arrived, task not yet rescheduled
    r.stalled = true;
    r.stall_cycle = now;
    ++stalls_latched_;
  }

  // Step-overrun check: the scheduled task has not come back to GetTask
  // for `timeout` cycles — it is wedged inside a processing step (e.g. an
  // injected hang), which blocks every sibling on this coprocessor. This
  // one *is* a task fault: latch Hang so the scheduler moves on when the
  // wedged coroutine finally yields.
  if (current_task_ != sim::kNoTask && !idle_since_.has_value()) {
    TaskRow& t = tasks_.row(current_task_);
    if (t.valid && t.enabled && !t.faulted && now - last_gettask_return_ >= timeout) {
      latchFault(current_task_, FaultCause::Hang, -1,
                 "processing step exceeded watchdog timeout (" +
                     std::to_string(now - last_gettask_return_) + " cycles)");
    }
  }
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

double Shell::utilization(sim::Cycle elapsed) const {
  if (elapsed == 0) return 0.0;
  sim::Cycle idle = idle_cycles_;
  if (idle_since_.has_value() && sim_.now() > *idle_since_) {
    idle += sim_.now() - *idle_since_;  // still parked in GetTask
  }
  const double busy = static_cast<double>(elapsed - std::min(elapsed, idle));
  return busy / static_cast<double>(elapsed);
}

void Shell::startProfiler() {
  if (params_.profiler_period == 0) {
    throw std::logic_error("Shell::startProfiler: profiler_period is 0");
  }
  if (profiling_) return;
  profiling_ = true;
  sim_.spawn(profilerProcess(), params_.name + ".profiler");
}

sim::Task<void> Shell::profilerProcess() {
  while (profiling_) {
    for (std::uint32_t i = 0; i < streams_.capacity(); ++i) {
      StreamRow& row = streams_.row(i);
      if (row.valid) row.fill_series.sample(sim_.now(), static_cast<double>(row.space));
    }
    for (std::uint32_t i = 0; i < tasks_.capacity(); ++i) {
      TaskRow& t = tasks_.row(static_cast<sim::TaskId>(i));
      if (t.valid) t.stall_series.sample(sim_.now(), blockedNow(t) ? 1.0 : 0.0);
    }
    co_await sim_.delay(params_.profiler_period);
  }
}

// ---------------------------------------------------------------------
// Memory-mapped tables (PI-bus)
// ---------------------------------------------------------------------

sim::Addr Shell::mmioWindowBytes() const {
  return (static_cast<sim::Addr>(params_.max_streams) * kStreamRowWords +
          static_cast<sim::Addr>(params_.max_tasks) * kTaskRowWords + kShellCtlWords) *
         4;
}

void Shell::mapMmio(mem::PiBus& bus, sim::Addr base) {
  bus.attach(
      params_.name, base, mmioWindowBytes(),
      [this](sim::Addr off) { return mmioRead(off); },
      [this](sim::Addr off, std::uint32_t v) { mmioWrite(off, v); });
}

std::uint32_t Shell::mmioRead(sim::Addr offset) const {
  const sim::Addr word = offset / 4;
  const sim::Addr stream_words = static_cast<sim::Addr>(params_.max_streams) * kStreamRowWords;
  if (word < stream_words) {
    const auto rix = static_cast<std::uint32_t>(word / kStreamRowWords);
    const auto f = static_cast<std::uint32_t>(word % kStreamRowWords);
    const StreamRow& r = streams_.row(rix);
    switch (f) {
      case kStreamValid: return r.valid ? 1 : 0;
      case kStreamTask: return static_cast<std::uint32_t>(r.task);
      case kStreamPort: return static_cast<std::uint32_t>(r.port);
      case kStreamIsProducer: return r.is_producer ? 1 : 0;
      case kStreamBase: return static_cast<std::uint32_t>(r.base);
      case kStreamSize: return r.size;
      case kStreamSpace: return r.space;
      case kStreamRemoteShell: return r.remote_shell;
      case kStreamRemoteRow: return r.remote_row;
      case kStreamPosLo: return lo32(r.pos);
      case kStreamPosHi: return hi32(r.pos);
      case kStreamGranted: return r.granted;
      case kStreamBytesLo: return lo32(r.bytes_transferred);
      case kStreamBytesHi: return hi32(r.bytes_transferred);
      case kStreamGetspaceCalls: return lo32(r.getspace_calls);
      case kStreamGetspaceDenied: return lo32(r.getspace_denied);
      case kStreamPutspaceCalls: return lo32(r.putspace_calls);
      case kStreamReadCalls: return lo32(r.read_calls);
      case kStreamWriteCalls: return lo32(r.write_calls);
      case kStreamCacheHits: return lo32(r.cache_hits);
      case kStreamCacheMisses: return lo32(r.cache_misses);
      case kStreamCacheFlushes: return lo32(r.cache_flushes);
      case kStreamCacheInvalidations: return lo32(r.cache_invalidations);
      case kStreamPrefetches: return lo32(r.prefetches);
      case kStreamAccessCount: return lo32(r.access_latency.count());
      case kStreamAccessMean: return static_cast<std::uint32_t>(r.access_latency.mean());
      case kStreamAccessMax: return static_cast<std::uint32_t>(r.access_latency.max());
      case kStreamStalled: return r.stalled ? 1 : 0;
      case kStreamStallCycleLo: return lo32(r.stall_cycle);
      case kStreamStallCycleHi: return hi32(r.stall_cycle);
      default: return 0;
    }
  }
  const sim::Addr tword = word - stream_words;
  const sim::Addr task_words = static_cast<sim::Addr>(params_.max_tasks) * kTaskRowWords;
  if (tword >= task_words) {
    // Shell-control block: watchdog configuration and sticky counters.
    const sim::Addr c = tword - task_words;
    if (c >= kShellCtlWords) throw std::out_of_range("Shell::mmioRead: offset beyond tables");
    switch (static_cast<std::uint32_t>(c)) {
      case kCtlLateSyncDrops: return lo32(late_sync_drops_);
      case kCtlWatchdogTimeout: return lo32(params_.watchdog_timeout);
      case kCtlWatchdogPeriod: return lo32(params_.watchdog_period);
      case kCtlFaultsLatched: return lo32(faults_latched_);
      case kCtlStallsLatched: return lo32(stalls_latched_);
      default: return 0;
    }
  }
  const auto tix = static_cast<sim::TaskId>(tword / kTaskRowWords);
  const auto f = static_cast<std::uint32_t>(tword % kTaskRowWords);
  const TaskRow& t = tasks_.row(tix);
  switch (f) {
    case kTaskValid: return t.valid ? 1 : 0;
    case kTaskEnabled: return t.enabled ? 1 : 0;
    case kTaskBudget: return t.budget_cycles;
    case kTaskInfo: return t.task_info;
    case kTaskBusyLo: return lo32(t.busy_cycles);
    case kTaskBusyHi: return hi32(t.busy_cycles);
    case kTaskBlocked: return t.blocked ? 1 : 0;
    case kTaskGettaskCount: return lo32(t.gettask_count);
    case kTaskScheduleCount: return lo32(t.schedule_count);
    case kTaskSwitchCount: return lo32(t.switch_count);
    case kTaskBlockedCycles: return lo32(t.blocked_cycles);
    case kTaskStepCount: return lo32(t.step_cycles.count());
    case kTaskStepMean: return static_cast<std::uint32_t>(t.step_cycles.mean());
    case kTaskStepMax: return static_cast<std::uint32_t>(t.step_cycles.max());
    case kTaskFaulted: return t.faulted ? 1 : 0;
    case kTaskFaultCause: return static_cast<std::uint32_t>(t.fault_cause);
    case kTaskFaultCycleLo: return lo32(t.fault_cycle);
    case kTaskFaultCycleHi: return hi32(t.fault_cycle);
    case kTaskFaultRow: return static_cast<std::uint32_t>(t.fault_row);
    case kTaskFaultCount: return t.fault_count;
    default: return 0;
  }
}

void Shell::mmioWrite(sim::Addr offset, std::uint32_t value) {
  const sim::Addr word = offset / 4;
  const sim::Addr stream_words = static_cast<sim::Addr>(params_.max_streams) * kStreamRowWords;
  if (word < stream_words) {
    const auto rix = static_cast<std::uint32_t>(word / kStreamRowWords);
    const auto f = static_cast<std::uint32_t>(word % kStreamRowWords);
    StreamRow& r = streams_.row(rix);
    switch (f) {
      case kStreamValid: {
        const bool was_valid = r.valid;
        if (value != 0 && !was_valid) checkBufferInSram(r.base, r.size);
        streams_.rekey(rix, [&](StreamRow& row) {
          row.valid = value != 0;
          // Teardown: clearing the valid bit resets the whole row (config,
          // position, space accounting, counters), so the row can be
          // reprogrammed for a later application.
          if (!row.valid && was_valid) row = StreamRow{};
        });
        if (r.valid && !was_valid) {
          ports_[rix].cache = std::make_unique<StreamCache>(
              sim_, sram_, params_.cache_line_bytes, params_.cache_lines_per_port);
        } else if (!r.valid && was_valid) {
          ports_[rix].cache.reset();  // and the port cache goes with it
        }
        break;
      }
      case kStreamTask:
        streams_.rekey(rix, [&](StreamRow& row) { row.task = static_cast<sim::TaskId>(value); });
        break;
      case kStreamPort:
        streams_.rekey(rix, [&](StreamRow& row) { row.port = static_cast<sim::PortId>(value); });
        break;
      case kStreamIsProducer: r.is_producer = value != 0; break;
      case kStreamBase: r.base = value; break;
      case kStreamSize:
        r.size = value;
        r.pos_off = value == 0 ? 0 : static_cast<std::uint32_t>(r.pos % value);
        break;
      case kStreamSpace: {
        // Space repair (recovery path): raising the space field of a live
        // row may make a best-guess-blocked task runnable, so wake the
        // scheduler. Configuration writes (valid bit still clear — the
        // Configurator programs valid last) must stay silent to keep the
        // no-fault event trace bit-identical.
        const bool wake = r.valid && value > r.space;
        r.space = value;
        if (wake) {
          sched_event_.notifyAll();
          space_event_.notifyAll();
        }
        break;
      }
      case kStreamRemoteShell: r.remote_shell = value; break;
      case kStreamRemoteRow: r.remote_row = value; break;
      case kStreamStalled:
        r.stalled = value != 0;
        if (!r.stalled) r.stall_cycle = 0;
        break;
      default:
        throw std::invalid_argument("Shell::mmioWrite: read-only stream field");
    }
    return;
  }
  const sim::Addr tword = word - stream_words;
  const sim::Addr task_words = static_cast<sim::Addr>(params_.max_tasks) * kTaskRowWords;
  if (tword >= task_words) {
    const sim::Addr c = tword - task_words;
    if (c >= kShellCtlWords) throw std::out_of_range("Shell::mmioWrite: offset beyond tables");
    switch (static_cast<std::uint32_t>(c)) {
      case kCtlLateSyncDrops: late_sync_drops_ = value; break;  // sticky counter reset
      case kCtlWatchdogTimeout: startWatchdog(value, params_.watchdog_period); break;
      case kCtlWatchdogPeriod: params_.watchdog_period = value; break;
      default:
        throw std::invalid_argument("Shell::mmioWrite: read-only control field");
    }
    return;
  }
  const auto tix = static_cast<sim::TaskId>(tword / kTaskRowWords);
  const auto f = static_cast<std::uint32_t>(tword % kTaskRowWords);
  TaskRow& t = tasks_.row(tix);
  switch (f) {
    case kTaskValid: {
      const bool was_valid = t.valid;
      t.valid = value != 0;
      if (!t.valid && was_valid) {
        // Teardown: the slot returns to its power-on state, ready for a
        // later application's configuration.
        t = TaskRow{};
      }
      break;
    }
    case kTaskEnabled:
      t.enabled = value != 0;
      if (t.enabled) sched_event_.notifyAll();
      break;
    case kTaskBudget: t.budget_cycles = value; break;
    case kTaskInfo: t.task_info = value; break;
    case kTaskBlocked:
      // Writing 0 clears the best-guess blocked latch. After a mode
      // transition re-binds stream rows, a task may be parked on a space
      // threshold of a row that no longer exists; clearing the latch makes
      // the scheduler re-evaluate it against the new stream table.
      if (value == 0 && t.blocked) {
        t.blocked = false;
        t.blocked_row = -1;
        sched_event_.notifyAll();
      }
      break;
    case kTaskFaulted:
      // Writing 0 acknowledges and clears the fault register (the enable
      // bit is restored separately via kTaskEnabled — two-step recovery).
      if (value == 0) clearFault(tix, /*reenable=*/false);
      break;
    default:
      throw std::invalid_argument("Shell::mmioWrite: read-only task field");
  }
}

}  // namespace eclipse::shell
