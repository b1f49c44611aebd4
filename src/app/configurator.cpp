#include "eclipse/app/configurator.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

namespace eclipse::app {

namespace {

/// First stream-table row of `sh` whose valid bit reads back 0 over the
/// PI-bus — the same first-free-row policy the direct configureStream path
/// uses, so MMIO-configured graphs land in identical rows.
std::uint32_t findFreeStreamRow(mem::PiBus& bus, const shell::Shell& sh) {
  for (std::uint32_t row = 0; row < sh.params().max_streams; ++row) {
    if (bus.read(mmio::streamReg(sh, row, mmio::kStreamValid)) == 0) return row;
  }
  throw std::runtime_error("AppHandle: no free stream row on shell '" + sh.name() + "'");
}

}  // namespace

// ---------------------------------------------------------------------
// AppHandle
// ---------------------------------------------------------------------

AppHandle AppHandle::configure(EclipseInstance& inst, const GraphSpec& spec,
                               const std::function<void(AppHandle&)>& before_enable) {
  AppHandle handle;
  handle.inst_ = &inst;
  handle.name_ = spec.name();
  handle.switchTo(spec, before_enable);
  return handle;
}

void AppHandle::requireLive() const {
  if (inst_ == nullptr) throw std::logic_error("AppHandle: empty handle");
  if (torn_down_) throw std::logic_error("AppHandle '" + name_ + "': already torn down");
}

sim::TaskId AppHandle::taskId(std::string_view task_name) const {
  for (const AppTask& t : tasks_) {
    if (t.spec.name == task_name) return t.id;
  }
  throw std::out_of_range("AppHandle '" + name_ + "': no task named '" +
                          std::string(task_name) + "'");
}

shell::Shell& AppHandle::taskShell(std::string_view task_name) const {
  for (const AppTask& t : tasks_) {
    if (t.spec.name == task_name) return *t.shell;
  }
  throw std::out_of_range("AppHandle '" + name_ + "': no task named '" +
                          std::string(task_name) + "'");
}

const AppStream& AppHandle::stream(std::string_view stream_name) const {
  for (const AppStream& s : streams_) {
    if (s.spec.name == stream_name) return s;
  }
  throw std::out_of_range("AppHandle '" + name_ + "': no stream named '" +
                          std::string(stream_name) + "'");
}

void AppHandle::setTaskEnabled(std::string_view task_name, bool enabled) {
  requireLive();
  for (const AppTask& t : tasks_) {
    if (t.spec.name == task_name) {
      inst_->piBus().write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), enabled ? 1 : 0);
      return;
    }
  }
  throw std::out_of_range("AppHandle '" + name_ + "': no task named '" +
                          std::string(task_name) + "'");
}

void AppHandle::pause() {
  requireLive();
  for (const AppTask& t : tasks_) {
    inst_->piBus().write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), 0);
  }
  paused_ = true;
}

void AppHandle::resume() {
  requireLive();
  for (const AppTask& t : tasks_) {
    if (t.spec.enabled) {
      inst_->piBus().write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), 1);
    }
  }
  paused_ = false;
}

AppHealth AppHandle::health() const {
  requireLive();
  AppHealth h;
  mem::PiBus& bus = inst_->piBus();
  for (const AppTask& t : tasks_) {
    if (bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaulted)) == 0) continue;
    TaskFault f;
    f.task = t.spec.name;
    f.shell = t.shell->name();
    f.id = t.id;
    f.cause = bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaultCause));
    f.cycle = static_cast<sim::Cycle>(
                  bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaultCycleLo))) |
              (static_cast<sim::Cycle>(
                   bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaultCycleHi)))
               << 32);
    f.row = static_cast<std::int32_t>(
        bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaultRow)));
    f.count = bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaultCount));
    h.faults.push_back(std::move(f));
  }
  for (const AppStream& s : streams_) {
    auto check = [&](const shell::Shell& sh, std::uint32_t row, bool producer_side) {
      if (bus.read(mmio::streamReg(sh, row, mmio::kStreamStalled)) == 0) return;
      StreamStall st;
      st.stream = s.spec.name;
      st.producer_side = producer_side;
      st.cycle = static_cast<sim::Cycle>(
                     bus.read(mmio::streamReg(sh, row, mmio::kStreamStallCycleLo))) |
                 (static_cast<sim::Cycle>(
                      bus.read(mmio::streamReg(sh, row, mmio::kStreamStallCycleHi)))
                  << 32);
      h.stalls.push_back(std::move(st));
    };
    check(*s.producer_shell, s.producer_row, true);
    check(*s.consumer_shell, s.consumer_row, false);
  }
  std::vector<const shell::Shell*> seen;
  for (const AppTask& t : tasks_) {
    if (std::find(seen.begin(), seen.end(), t.shell) != seen.end()) continue;
    seen.push_back(t.shell);
    h.late_sync_drops += bus.read(mmio::ctlReg(*t.shell, mmio::kCtlLateSyncDrops));
  }
  return h;
}

void AppHandle::onFault(std::function<void(const TaskFault&)> fn) {
  requireLive();
  // One shared copy of the callback; one observer per hosting shell. The
  // lambdas must not capture `this`: the handle is movable and the
  // observers outlive any particular address it lives at.
  auto shared = std::make_shared<std::function<void(const TaskFault&)>>(std::move(fn));
  std::vector<shell::Shell*> seen;
  for (const AppTask& t : tasks_) {
    if (std::find(seen.begin(), seen.end(), t.shell) != seen.end()) continue;
    seen.push_back(t.shell);
    shell::Shell* sh = t.shell;
    std::map<sim::TaskId, std::string> names;
    for (const AppTask& u : tasks_) {
      if (u.shell == sh) names[u.id] = u.spec.name;
    }
    const int id = sh->addFaultObserver(
        [names, shell_name = sh->name(), shared](sim::TaskId task, const shell::TaskRow& row) {
          const auto it = names.find(task);
          if (it == names.end()) return;  // another application's task on a shared shell
          TaskFault f;
          f.task = it->second;
          f.shell = shell_name;
          f.id = task;
          f.cause = static_cast<std::uint32_t>(row.fault_cause);
          f.cycle = row.fault_cycle;
          f.row = row.fault_row;
          f.count = row.fault_count;
          (*shared)(f);
        });
    fault_observers_.emplace_back(sh, id);
  }
}

void AppHandle::clearFault(std::string_view task_name, bool reenable) {
  requireLive();
  for (const AppTask& t : tasks_) {
    if (t.spec.name != task_name) continue;
    inst_->piBus().write(mmio::taskReg(*t.shell, t.id, mmio::kTaskFaulted), 0);
    if (reenable) {
      inst_->piBus().write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), 1);
    }
    return;
  }
  throw std::out_of_range("AppHandle '" + name_ + "': no task named '" +
                          std::string(task_name) + "'");
}

void AppHandle::repairStream(std::string_view stream_name) {
  requireLive();
  const AppStream& s = stream(stream_name);
  mem::PiBus& bus = inst_->piBus();
  auto pos64 = [&](const shell::Shell& sh, std::uint32_t row) {
    return static_cast<std::uint64_t>(bus.read(mmio::streamReg(sh, row, mmio::kStreamPosLo))) |
           (static_cast<std::uint64_t>(bus.read(mmio::streamReg(sh, row, mmio::kStreamPosHi)))
            << 32);
  };
  // Committed positions are the ground truth; the space registers are the
  // derived (and possibly corrupted/stale) view. in_flight counts bytes
  // written but not yet released by the consumer.
  const std::uint64_t in_flight =
      pos64(*s.producer_shell, s.producer_row) - pos64(*s.consumer_shell, s.consumer_row);
  bus.write(mmio::streamReg(*s.producer_shell, s.producer_row, mmio::kStreamSpace),
            static_cast<std::uint32_t>(s.spec.buffer_bytes - in_flight));
  bus.write(mmio::streamReg(*s.consumer_shell, s.consumer_row, mmio::kStreamSpace),
            static_cast<std::uint32_t>(in_flight));
  bus.write(mmio::streamReg(*s.producer_shell, s.producer_row, mmio::kStreamStalled), 0);
  bus.write(mmio::streamReg(*s.consumer_shell, s.consumer_row, mmio::kStreamStalled), 0);
}

bool AppHandle::streamsSettled(const std::set<std::string>* subset) const {
  for (const AppStream& s : streams_) {
    if (subset != nullptr && subset->count(s.spec.name) == 0) continue;
    const std::uint32_t producer_room = inst_->piBus().read(
        mmio::streamReg(*s.producer_shell, s.producer_row, mmio::kStreamSpace));
    const std::uint32_t consumer_data = inst_->piBus().read(
        mmio::streamReg(*s.consumer_shell, s.consumer_row, mmio::kStreamSpace));
    // Empty and settled: the producer sees the whole buffer free again and
    // the consumer sees nothing to read (no putspace message in flight).
    if (producer_room != s.spec.buffer_bytes || consumer_data != 0) return false;
  }
  return true;
}

bool AppHandle::quiesced() const {
  return inst_ == nullptr || torn_down_ || streamsSettled(nullptr);
}

bool AppHandle::settle(const std::set<std::string>* subset) {
  const sim::Cycle deadline = inst_->simulator().now() + kSettleCycles;
  while (!streamsSettled(subset)) {
    const sim::Cycle before = inst_->simulator().now();
    if (before >= deadline) return false;
    inst_->run(std::min(deadline, before + kSettleSlice));
    if (inst_->simulator().now() == before) {
      // The event queue ran dry without advancing time: the state is
      // final, so one last check decides.
      return streamsSettled(subset);
    }
  }
  return true;
}

bool AppHandle::drain() {
  requireLive();
  // Stop injecting new data; the rest of the graph keeps running and
  // consumes whatever is still buffered in the FIFOs.
  for (const AppTask& t : tasks_) {
    if (t.spec.source) {
      inst_->piBus().write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), 0);
    }
  }
  return settle(nullptr);
}

void AppHandle::teardown(bool force) {
  if (inst_ == nullptr || torn_down_) return;
  if (!force && !quiesced()) {
    // Residual FIFO bytes are harmless once no task can run (a finished
    // graph's reference/feedback streams legitimately end non-empty, every
    // task having disabled itself at Eos). A graph with an enabled task
    // may be mid-transaction — discarding it needs an explicit force.
    bool inert = true;
    for (const AppTask& t : tasks_) {
      if (inst_->piBus().read(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled)) != 0) {
        inert = false;
        break;
      }
    }
    if (!inert) {
      throw std::logic_error("AppHandle '" + name_ +
                             "': teardown on an undrained graph — tasks are still enabled and "
                             "stream FIFOs hold data (drain() first, or pass force to discard a "
                             "wedged graph)");
    }
  }
  for (const auto& [sh, id] : fault_observers_) sh->removeFaultObserver(id);
  fault_observers_.clear();
  // Task rows first, so the schedulers stop selecting the tasks.
  for (const AppTask& t : tasks_) releaseTask(t);
  for (const AppStream& s : streams_) releaseStream(s);
  for (const auto& [addr, bytes] : dram_regions_) inst_->freeDram(addr, bytes);
  dram_regions_.clear();
  torn_down_ = true;
}

void AppHandle::releaseTask(const AppTask& t) {
  // Clearing the valid bit resets the row for the next application.
  mem::PiBus& bus = inst_->piBus();
  bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), 0);
  bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskValid), 0);
  if (t.spec.software) {
    if (coproc::SoftCpu* cpu = inst_->softCpuAt(*t.shell)) cpu->unregisterTask(t.id);
  }
  inst_->freeTask(*t.shell, t.id);
}

void AppHandle::releaseStream(const AppStream& s) {
  // Clearing valid resets position/space state and releases the port cache.
  mem::PiBus& bus = inst_->piBus();
  bus.write(mmio::streamReg(*s.producer_shell, s.producer_row, mmio::kStreamValid), 0);
  bus.write(mmio::streamReg(*s.consumer_shell, s.consumer_row, mmio::kStreamValid), 0);
  inst_->freeSram(s.buffer_base, s.spec.buffer_bytes);
}

AppStream AppHandle::programStream(const StreamSpec& s) {
  mem::PiBus& bus = inst_->piBus();
  AppStream as;
  as.spec = s;
  as.producer_shell = &taskShell(s.producer.task);
  as.consumer_shell = &taskShell(s.consumer.task);
  as.buffer_base = inst_->allocSram(s.buffer_bytes);

  const shell::Shell& psh = *as.producer_shell;
  as.producer_row = findFreeStreamRow(bus, psh);
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamTask),
            static_cast<std::uint32_t>(taskId(s.producer.task)));
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamPort),
            static_cast<std::uint32_t>(s.producer.port));
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamIsProducer), 1);
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamBase),
            static_cast<std::uint32_t>(as.buffer_base));
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamSize), s.buffer_bytes);
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamSpace), s.buffer_bytes);
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamRemoteShell),
            as.consumer_shell->id());
  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamValid), 1);

  const shell::Shell& csh = *as.consumer_shell;
  as.consumer_row = findFreeStreamRow(bus, csh);
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamTask),
            static_cast<std::uint32_t>(taskId(s.consumer.task)));
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamPort),
            static_cast<std::uint32_t>(s.consumer.port));
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamIsProducer), 0);
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamBase),
            static_cast<std::uint32_t>(as.buffer_base));
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamSize), s.buffer_bytes);
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamSpace), 0);
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamRemoteShell), psh.id());
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamRemoteRow), as.producer_row);
  bus.write(mmio::streamReg(csh, as.consumer_row, mmio::kStreamValid), 1);

  bus.write(mmio::streamReg(psh, as.producer_row, mmio::kStreamRemoteRow), as.consumer_row);
  return as;
}

TransitionStats AppHandle::switchTo(const GraphSpec& target,
                                    const std::function<void(AppHandle&)>& before_enable) {
  requireLive();

  // ---- Check: nothing is written before the target is known to fit ---
  // The currently programmed graph, rebuilt from the placed elements, and
  // what removing the diff's elements gives back.
  GraphSpec current(mode_);
  for (const AppTask& t : tasks_) current.task(t.spec);
  for (const AppStream& s : streams_) current.stream(s.spec);
  const GraphDiff d = diffGraphs(current, target);
  const std::set<std::string> removed(d.streams_removed.begin(), d.streams_removed.end());
  Released released;
  for (const AppTask& t : tasks_) {
    if (target.findTask(t.spec.name) == nullptr) released.task_slots.push_back(t.shell);
  }
  for (const AppStream& s : streams_) {
    if (removed.count(s.spec.name) == 0) continue;
    released.stream_rows.push_back(s.producer_shell);
    released.stream_rows.push_back(s.consumer_shell);
    released.buffers.emplace_back(s.buffer_base, s.spec.buffer_bytes);
  }
  checkTransition(*inst_, current, target, d, released);
  // The target fits: a sink this graph is the first to use starts now,
  // ahead of every event the transition causes.
  inst_->startSinks();

  mem::PiBus& bus = inst_->piBus();
  const sim::Cycle t0 = inst_->simulator().now();
  const std::uint64_t w0 = bus.writeCount();
  const std::uint64_t r0 = bus.readCount();

  TransitionStats st;
  st.from = mode_;
  st.to = target.name();
  st.tasks_added = static_cast<std::uint32_t>(d.tasks_added.size());
  st.tasks_removed = static_cast<std::uint32_t>(d.tasks_removed.size());
  st.tasks_updated = static_cast<std::uint32_t>(d.tasks_updated.size());
  st.tasks_kept = static_cast<std::uint32_t>(d.tasks_kept.size());
  st.streams_added = static_cast<std::uint32_t>(d.streams_added.size());
  st.streams_removed = static_cast<std::uint32_t>(d.streams_removed.size());
  st.streams_kept = static_cast<std::uint32_t>(d.streams_kept.size());

  // ---- Phase 1: drain only the affected subgraph ----------------------
  // Every stream that can still feed data into a removed stream (reverse
  // reachability over consumer-task -> produced-stream edges, cycles
  // included) must settle before any row is re-bound; only the sources
  // feeding that closure are gated. The rest of the graph keeps running.
  if (!removed.empty()) {
    std::set<std::string> closure = removed;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const AppStream& s : streams_) {
        if (closure.count(s.spec.name) != 0) continue;
        for (const AppStream& t : streams_) {
          if (closure.count(t.spec.name) != 0 && t.spec.producer.task == s.spec.consumer.task) {
            closure.insert(s.spec.name);
            grew = true;
            break;
          }
        }
      }
    }
    for (const AppTask& t : tasks_) {
      if (!t.spec.source) continue;
      bool feeds_closure = false;
      for (const AppStream& s : streams_) {
        feeds_closure = feeds_closure ||
                        (s.spec.producer.task == t.spec.name && closure.count(s.spec.name) != 0);
      }
      if (feeds_closure) {
        bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), 0);
      }
    }
    // A finished subgraph cannot settle: its tasks self-disabled at Eos,
    // and whatever trailing bytes remain in the closure FIFOs are exactly
    // what the removal discards. Only a live closure — some task on one of
    // its streams still enabled — needs draining.
    bool closure_live = false;
    for (const AppTask& t : tasks_) {
      bool touches = false;
      for (const AppStream& s : streams_) {
        touches = touches || (closure.count(s.spec.name) != 0 &&
                              (s.spec.producer.task == t.spec.name ||
                               s.spec.consumer.task == t.spec.name));
      }
      if (touches && bus.read(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled)) != 0) {
        closure_live = true;
        break;
      }
    }
    if (closure_live) {
      if (!settle(&closure)) {
        throw std::runtime_error("AppHandle '" + name_ + "': mode transition to '" +
                                 target.name() + "' could not drain the affected subgraph");
      }
      st.drained = true;
    }
  }

  // ---- Phase 2: invalidate and free only the removed elements ---------
  for (const AppTask& t : tasks_) {
    if (target.findTask(t.spec.name) == nullptr) releaseTask(t);
  }
  for (const AppStream& s : streams_) {
    if (removed.count(s.spec.name) != 0) releaseStream(s);
  }
  std::erase_if(streams_, [&](const AppStream& s) { return removed.count(s.spec.name) != 0; });

  // ---- Phase 3: allocate/program added elements, rebind the rest ------
  // Tasks first (stream rows reference task ids); kept tasks keep their
  // slots, software handlers are refreshed from the target spec.
  std::vector<AppTask> new_tasks;
  new_tasks.reserve(target.tasks().size());
  for (const TaskSpec& tspec : target.tasks()) {
    AppTask* existing = nullptr;
    for (AppTask& t : tasks_) {
      if (t.spec.name == tspec.name) {
        existing = &t;
        break;
      }
    }
    if (existing != nullptr) {
      AppTask t = *existing;
      t.spec = tspec;
      if (t.spec.software) inst_->softCpuAt(*t.shell)->registerTask(t.id, t.spec.software);
      new_tasks.push_back(std::move(t));
    } else {
      shell::Shell& sh = inst_->shell(tspec.shell);
      const sim::TaskId id = inst_->allocTask(sh);
      if (tspec.software) inst_->softCpuAt(sh)->registerTask(id, tspec.software);
      new_tasks.push_back(AppTask{tspec, &sh, id});
    }
  }
  tasks_ = std::move(new_tasks);

  std::vector<AppStream> new_streams;
  new_streams.reserve(target.streams().size());
  for (const StreamSpec& sspec : target.streams()) {
    AppStream* kept = nullptr;
    for (AppStream& s : streams_) {
      if (s.spec.name == sspec.name) {
        kept = &s;  // survivors of phase 2 are exactly the kept streams
        break;
      }
    }
    if (kept != nullptr) {
      AppStream s = *kept;
      s.spec = sspec;
      new_streams.push_back(std::move(s));
    } else {
      new_streams.push_back(programStream(sspec));
    }
  }
  streams_ = std::move(new_streams);

  // Coprocessor-specific parameter setup (needs the new task ids, must
  // precede the first scheduling opportunity of the target mode).
  if (before_enable) before_enable(*this);

  // Enables last, on an already-consistent graph. Kept tasks only get the
  // writes the diff demands: changed scalar fields, plus — when any row
  // was re-bound — a blocked-latch clear and an enable refresh so tasks
  // parked on a stale row re-evaluate against the new stream table.
  const bool rebind = d.touchesStreams();
  for (const AppTask& t : tasks_) {
    const TaskSpec* prev = current.findTask(t.spec.name);
    if (prev == nullptr) {  // added: fields, then valid, then enable
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskBudget), t.spec.budget_cycles);
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskInfo), t.spec.task_info);
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskValid), 1);
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), t.spec.enabled ? 1 : 0);
      continue;
    }
    if (prev->budget_cycles != t.spec.budget_cycles) {
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskBudget), t.spec.budget_cycles);
    }
    if (prev->task_info != t.spec.task_info) {
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskInfo), t.spec.task_info);
    }
    if (rebind) {
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskBlocked), 0);
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), t.spec.enabled ? 1 : 0);
    } else if (prev->enabled != t.spec.enabled) {
      bus.write(mmio::taskReg(*t.shell, t.id, mmio::kTaskEnabled), t.spec.enabled ? 1 : 0);
    }
  }

  st.cycles = inst_->simulator().now() - t0;
  st.mmio_writes = bus.writeCount() - w0;
  st.mmio_reads = bus.readCount() - r0;
  mode_ = target.name();
  paused_ = false;
  last_transition_ = st;
  return st;
}

void AppHandle::adoptDram(sim::Addr addr, std::size_t bytes) {
  requireLive();
  dram_regions_.emplace_back(addr, bytes);
}

}  // namespace eclipse::app
