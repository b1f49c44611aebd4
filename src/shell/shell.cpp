#include "eclipse/shell/shell.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "eclipse/sim/fault.hpp"

namespace eclipse::shell {

namespace {

/// Register map strides (32-bit words). A shell-control block of
/// kShellCtlWords registers (watchdog config, sticky fault counters)
/// follows the task table.
constexpr sim::Addr kStreamRowWords = 32;
constexpr sim::Addr kTaskRowWords = 32;
constexpr sim::Addr kShellCtlWords = 8;

std::uint32_t lo32(std::uint64_t v) { return static_cast<std::uint32_t>(v); }
std::uint32_t hi32(std::uint64_t v) { return static_cast<std::uint32_t>(v >> 32); }

}  // namespace

Shell::Shell(sim::Simulator& sim, const ShellParams& params, mem::SharedSram& sram,
             mem::MessageNetwork& network)
    : sim_(sim),
      params_(params),
      sram_(sram),
      network_(network),
      streams_(params.max_streams),
      tasks_(params.max_tasks),
      ports_(params.max_streams),
      sched_event_(sim),
      space_event_(sim) {
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

sim::Task<GetTaskResult> Shell::getTask() {
  co_await sim_.delay(params_.gettask_latency);

  // Charge the elapsed processing step to the task that just yielded. A
  // row torn down mid-step (valid cleared over MMIO) takes no charge: the
  // slot may already belong to a later application.
  if (current_task_ != sim::kNoTask) {
    TaskRow& t = tasks_.row(current_task_);
    if (t.valid) {
      const sim::Cycle elapsed = sim_.now() - last_gettask_return_;
      t.busy_cycles += elapsed;
      t.budget_left -= std::min(t.budget_left, elapsed);
      ++t.gettask_count;
      t.step_cycles.add(static_cast<double>(elapsed));
    }
  }

  while (true) {
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
      for (std::uint32_t i = 0; i < tasks_.capacity(); ++i) {
        const std::uint32_t idx = (rr_index_ + i) % tasks_.capacity();
        TaskRow& t = tasks_.row(static_cast<sim::TaskId>(idx));
        if (t.valid && t.enabled && !blockedNow(t)) {
          chosen = static_cast<sim::TaskId>(idx);
          rr_index_ = (idx + 1) % tasks_.capacity();
          t.budget_left = t.budget_cycles;
          break;
        }
      }
    }

    if (chosen != sim::kNoTask) {
      TaskRow& t = tasks_.row(chosen);
      ++t.schedule_count;
      if (chosen != current_task_) {
        ++t.switch_count;
        ++task_switches_;
      }
      t.last_selected_at = sim_.now();
      current_task_ = chosen;
      last_gettask_return_ = sim_.now();
      co_return GetTaskResult{chosen, t.task_info};
    }

    // Nothing runnable: the coprocessor idles until synchronization
    // messages (or reconfiguration) make a task ready.
    idle_since_ = sim_.now();
    co_await sched_event_.wait();
    idle_cycles_ += sim_.now() - *idle_since_;
    idle_since_.reset();
  }
}

// ---------------------------------------------------------------------
// Synchronization (Section 5.1)
// ---------------------------------------------------------------------

sim::Task<bool> Shell::getSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes) {
  co_await sim_.delay(params_.sync_latency);
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
      const std::uint64_t from = row.pos + row.granted;
      const std::uint64_t len = n_bytes - row.granted;
      forEachSegment(row, from, len, [&](sim::Addr addr, std::uint64_t seg, std::uint64_t) {
        ports_[idx].cache->invalidateRange(row, addr, seg);
      });
      row.granted = n_bytes;
      // Prefetch the first line of the fresh window for input ports.
      if (params_.prefetch && !row.is_producer) {
        const std::uint64_t first_pos = from;
        const sim::Addr addr = row.base + first_pos % row.size;
        const sim::Addr line = addr / params_.cache_line_bytes * params_.cache_line_bytes;
        ports_[idx].cache->startPrefetch(row, line);
      }
    }
    co_return true;
  }
  ++row.getspace_denied;
  TaskRow& t = tasks_.row(task);
  if (!t.blocked) t.blocked_since = sim_.now();
  t.blocked = true;
  t.blocked_row = static_cast<std::int32_t>(idx);
  t.blocked_need = n_bytes;
  co_return false;
}

sim::Task<void> Shell::putSpace(sim::TaskId task, sim::PortId port, std::uint32_t n_bytes) {
  co_await sim_.delay(params_.sync_latency);
  const std::uint32_t idx = streams_.lookup(task, port);
  StreamRow& row = streams_.row(idx);
  ++row.putspace_calls;
  if (n_bytes > row.granted) {
    throw std::logic_error("Shell::putSpace: commit exceeds the granted window");
  }

  if (row.is_producer) {
    // Observation 3: flush dirty data in the committed region before the
    // putspace message makes it visible to the consumer.
    std::uint64_t done = 0;
    while (done < n_bytes) {
      const std::uint64_t off = (row.pos + done) % row.size;
      const std::uint64_t seg = std::min<std::uint64_t>(n_bytes - done, row.size - off);
      co_await ports_[idx].cache->flushRange(row, row.base + off, seg);
      done += seg;
    }
  }

  // Fault hook: corrupt the payload of the committed window in SRAM just
  // before it becomes visible to the consumer. The packet framing (u32
  // length + tag, first 5 bytes of the commit) is left intact so the
  // corruption surfaces downstream as a *parse* error inside the packet —
  // the recoverable case — rather than desynchronised framing.
  if (sim::FaultInjector* inj = sim_.faults(); inj != nullptr && row.is_producer) {
    if (auto mask = inj->corruptPayload(params_.id, task, port, sim_.now())) {
      auto storage = sram_.storage().view();
      forEachSegment(row, row.pos, n_bytes,
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
  ++sync_messages_rx_;
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

sim::Task<WindowView> Shell::acquire(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                     std::size_t n, bool writing) {
  const std::uint32_t idx = streams_.lookup(task, port);
  StreamRow& row = streams_.row(idx);
  if (writing) {
    if (!row.is_producer) throw std::logic_error("Shell::write: write on an input port");
  } else {
    if (row.is_producer) throw std::logic_error("Shell::read: read on an output port");
  }
  if (offset + n > row.granted) {
    throw std::logic_error(writing ? "Shell::write: access outside the granted window"
                                   : "Shell::read: access outside the granted window");
  }
  // Port handshake plus data transfer over the coprocessor interface.
  const sim::Cycle xfer =
      params_.io_latency + (n + params_.port_width_bytes - 1) / params_.port_width_bytes;
  co_await sim_.delay(xfer);

  if (writing) {
    ++row.write_calls;
  } else {
    ++row.read_calls;
  }
  row.bytes_transferred += n;

  // Prefetch hint: the cyclically next line after this read, if still
  // inside the granted window.
  std::optional<sim::Addr> hint;
  if (!writing && params_.prefetch) {
    const std::uint64_t end_pos = row.pos + offset + n;
    const std::uint64_t next_line_pos =
        (end_pos + params_.cache_line_bytes - 1) / params_.cache_line_bytes *
        params_.cache_line_bytes;
    if (next_line_pos < row.pos + row.granted) {
      hint = row.base + next_line_pos % row.size;
    }
  }

  // Replay the cache traffic of the copying transport path: the same
  // per-line hit / miss / fill / dirty-mark walk, without moving bytes.
  const sim::Cycle t0 = sim_.now() - xfer;  // include the port handshake
  std::uint64_t done = 0;
  const std::uint64_t start = row.pos + offset;
  while (done < n) {
    const std::uint64_t off = (start + done) % row.size;
    const std::uint64_t seg = std::min<std::uint64_t>(n - done, row.size - off);
    const bool last = done + seg >= n;
    co_await ports_[idx].cache->touch(row, row.base + off, static_cast<std::size_t>(seg), writing,
                                      last ? hint : std::nullopt);
    done += seg;
  }
  row.access_latency.add(static_cast<double>(sim_.now() - t0));

  // Build the scatter-gather view straight into the FIFO's SRAM bytes
  // (≤ 2 segments: the window may wrap the cyclic buffer once, since the
  // granted window never exceeds the buffer size).
  WindowView v;
  v.shell_ = this;
  v.task_ = task;
  v.port_ = port;
  v.commit_bytes_ = static_cast<std::uint32_t>(offset + n);
  const auto storage = sram_.storage().view();
  forEachSegment(row, start, n, [&](sim::Addr addr, std::uint64_t seg, std::uint64_t) {
    v.chunks_[v.n_chunks_++] =
        WindowView::Chunk{storage.data() + addr, static_cast<std::size_t>(seg)};
  });
  co_return v;
}

sim::Task<WindowView> Shell::acquireRead(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                         std::size_t n) {
  return acquire(task, port, offset, n, /*writing=*/false);
}

sim::Task<WindowView> Shell::acquireWrite(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                                          std::size_t n) {
  return acquire(task, port, offset, n, /*writing=*/true);
}

sim::Task<void> Shell::read(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                            std::span<std::uint8_t> out) {
  WindowView v = co_await acquire(task, port, offset, out.size(), /*writing=*/false);
  v.copyTo(out);
}

sim::Task<void> Shell::write(sim::TaskId task, sim::PortId port, std::uint64_t offset,
                             std::span<const std::uint8_t> in) {
  WindowView v = co_await acquire(task, port, offset, in.size(), /*writing=*/true);
  v.copyFrom(in);
}

sim::Task<void> WindowView::commit() {
  if (shell_ == nullptr) throw std::logic_error("WindowView::commit: empty view");
  Shell* sh = shell_;
  shell_ = nullptr;
  co_await sh->putSpace(task_, port_, commit_bytes_);
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
  sim_.trace(1, "[" + params_.name + "] fault latched: task " + std::to_string(task) + " " +
                    faultCauseName(cause) + " @" + std::to_string(sim_.now()) + ": " + what);
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
    sim_.trace(1, "[" + params_.name + "] stall latched: task " + std::to_string(i) +
                      " row " + std::to_string(t.blocked_row) + " needs " +
                      std::to_string(t.blocked_need) + "B, has " + std::to_string(r.space) +
                      "B since cycle " + std::to_string(t.blocked_since));
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

void Shell::recycle() {
  // Fresh scheduler: next GetTask starts its round-robin scan at slot 0
  // with no task charged, exactly like a cold shell. Event waiter lists
  // hold handles into coroutine frames destroyProcesses() already freed.
  current_task_ = sim::kNoTask;
  rr_index_ = 0;
  last_gettask_return_ = 0;
  idle_since_.reset();
  sched_event_.clearWaiters();
  space_event_.clearWaiters();
  // The profiler and watchdog processes died with destroyProcesses();
  // clear their running flags (and the armed timeout) so a recycled
  // instance starts without observers until re-armed.
  profiling_ = false;
  watchdog_running_ = false;
  params_.watchdog_timeout = 0;
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
      case 0: return r.valid ? 1 : 0;
      case 1: return static_cast<std::uint32_t>(r.task);
      case 2: return static_cast<std::uint32_t>(r.port);
      case 3: return r.is_producer ? 1 : 0;
      case 4: return static_cast<std::uint32_t>(r.base);
      case 5: return r.size;
      case 6: return r.space;
      case 7: return r.remote_shell;
      case 8: return r.remote_row;
      case 9: return lo32(r.pos);
      case 10: return hi32(r.pos);
      case 11: return r.granted;
      case 12: return lo32(r.bytes_transferred);
      case 13: return hi32(r.bytes_transferred);
      case 14: return lo32(r.getspace_calls);
      case 15: return lo32(r.getspace_denied);
      case 16: return lo32(r.putspace_calls);
      case 17: return lo32(r.read_calls);
      case 18: return lo32(r.write_calls);
      case 19: return lo32(r.cache_hits);
      case 20: return lo32(r.cache_misses);
      case 21: return lo32(r.cache_flushes);
      case 22: return lo32(r.cache_invalidations);
      case 23: return lo32(r.prefetches);
      case 24: return lo32(r.access_latency.count());
      case 25: return static_cast<std::uint32_t>(r.access_latency.mean());
      case 26: return static_cast<std::uint32_t>(r.access_latency.max());
      case 27: return r.stalled ? 1 : 0;
      case 28: return lo32(r.stall_cycle);
      case 29: return hi32(r.stall_cycle);
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
      case 0: return lo32(late_sync_drops_);
      case 1: return lo32(params_.watchdog_timeout);
      case 2: return lo32(params_.watchdog_period);
      case 3: return lo32(faults_latched_);
      case 4: return lo32(stalls_latched_);
      default: return 0;
    }
  }
  const auto tix = static_cast<sim::TaskId>(tword / kTaskRowWords);
  const auto f = static_cast<std::uint32_t>(tword % kTaskRowWords);
  const TaskRow& t = tasks_.row(tix);
  switch (f) {
    case 0: return t.valid ? 1 : 0;
    case 1: return t.enabled ? 1 : 0;
    case 2: return t.budget_cycles;
    case 3: return t.task_info;
    case 4: return lo32(t.busy_cycles);
    case 5: return hi32(t.busy_cycles);
    case 6: return t.blocked ? 1 : 0;
    case 7: return lo32(t.gettask_count);
    case 8: return lo32(t.schedule_count);
    case 9: return lo32(t.switch_count);
    case 10: return lo32(t.blocked_cycles);
    case 11: return lo32(t.step_cycles.count());
    case 12: return static_cast<std::uint32_t>(t.step_cycles.mean());
    case 13: return static_cast<std::uint32_t>(t.step_cycles.max());
    case 14: return t.faulted ? 1 : 0;
    case 15: return static_cast<std::uint32_t>(t.fault_cause);
    case 16: return lo32(t.fault_cycle);
    case 17: return hi32(t.fault_cycle);
    case 18: return static_cast<std::uint32_t>(t.fault_row);
    case 19: return t.fault_count;
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
      case 0: {
        const bool was_valid = r.valid;
        if (value != 0 && !was_valid) checkBufferInSram(r.base, r.size);
        r.valid = value != 0;
        if (r.valid && !was_valid) {
          ports_[rix].cache = std::make_unique<StreamCache>(
              sim_, sram_, params_.cache_line_bytes, params_.cache_lines_per_port);
        } else if (!r.valid && was_valid) {
          // Teardown: clearing the valid bit resets the whole row (config,
          // position, space accounting, counters) and releases the port
          // cache, so the row can be reprogrammed for a later application.
          r = StreamRow{};
          ports_[rix].cache.reset();
        }
        break;
      }
      case 1: r.task = static_cast<sim::TaskId>(value); break;
      case 2: r.port = static_cast<sim::PortId>(value); break;
      case 3: r.is_producer = value != 0; break;
      case 4: r.base = value; break;
      case 5: r.size = value; break;
      case 6: {
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
      case 7: r.remote_shell = value; break;
      case 8: r.remote_row = value; break;
      case 27:
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
      case 0: late_sync_drops_ = value; break;  // sticky counter reset
      case 1: startWatchdog(value, params_.watchdog_period); break;
      case 2: params_.watchdog_period = value; break;
      default:
        throw std::invalid_argument("Shell::mmioWrite: read-only control field");
    }
    return;
  }
  const auto tix = static_cast<sim::TaskId>(tword / kTaskRowWords);
  const auto f = static_cast<std::uint32_t>(tword % kTaskRowWords);
  TaskRow& t = tasks_.row(tix);
  switch (f) {
    case 0: {
      const bool was_valid = t.valid;
      t.valid = value != 0;
      if (!t.valid && was_valid) {
        // Teardown: the slot returns to its power-on state, ready for a
        // later application's configuration.
        t = TaskRow{};
      }
      break;
    }
    case 1:
      t.enabled = value != 0;
      if (t.enabled) sched_event_.notifyAll();
      break;
    case 2: t.budget_cycles = value; break;
    case 3: t.task_info = value; break;
    case 6:
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
    case 14:
      // Writing 0 acknowledges and clears the fault register (the enable
      // bit is restored separately via field 1 — two-step recovery).
      if (value == 0) clearFault(tix, /*reenable=*/false);
      break;
    default:
      throw std::invalid_argument("Shell::mmioWrite: read-only task field");
  }
}

}  // namespace eclipse::shell
