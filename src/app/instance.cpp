#include "eclipse/app/instance.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "eclipse/app/configurator.hpp"

namespace eclipse::app {

InstanceParams InstanceParams::fromConfig(const sim::Config& cfg) {
  InstanceParams p;
  std::set<std::string> known;
  auto read = [&](const std::string& key, auto& field) {
    known.insert(key);
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) field = cfg.getBool(key, field);
    else field = static_cast<T>(cfg.getInt(key, static_cast<std::int64_t>(field)));
  };
  read("sram.size_bytes", p.sram.size_bytes);
  read("sram.bus_width_bytes", p.sram.bus_width_bytes);
  read("sram.bus_arbitration_latency", p.sram.bus_arbitration_latency);
  read("sram.access_latency", p.sram.access_latency);
  read("dram.size_bytes", p.dram.size_bytes);
  read("dram.bus_width_bytes", p.dram.bus_width_bytes);
  read("dram.bus_arbitration_latency", p.dram.bus_arbitration_latency);
  read("dram.access_latency", p.dram.access_latency);
  read("network.message_latency", p.message_latency);
  read("shell.cache_line_bytes", p.cache_line_bytes);
  read("shell.cache_lines_per_port", p.cache_lines_per_port);
  read("shell.prefetch", p.prefetch);
  read("shell.sync_latency", p.sync_latency);
  read("shell.gettask_latency", p.gettask_latency);
  read("shell.io_latency", p.io_latency);
  read("shell.port_width_bytes", p.port_width_bytes);
  read("shell.profiler_period", p.profiler_period);
  read("shell.best_guess", p.best_guess);
  read("vld.cycles_per_symbol", p.vld.cycles_per_symbol);
  read("vld.fetch_chunk", p.vld.fetch_chunk);
  read("rlsq.cycles_per_pair", p.rlsq.cycles_per_pair);
  read("rlsq.cycles_per_block", p.rlsq.cycles_per_block);
  read("dct.cycles_per_block", p.dct.cycles_per_block);
  read("dct.pipelined", p.dct.pipelined);
  read("mc.cycles_per_block_add", p.mc.cycles_per_block_add);
  read("mc.cycles_per_candidate", p.mc.cycles_per_candidate);
  read("mc.search_range", p.mc.search_range);
  for (const std::string& key : cfg.keys()) {
    if (known.count(key) == 0) {
      throw std::invalid_argument("InstanceParams: unknown setup key '" + key + "'");
    }
  }
  return p;
}

EclipseInstance::EclipseInstance(const InstanceParams& params) : params_(params) {
  sram_ = std::make_unique<mem::SharedSram>(sim_, params_.sram);
  dram_ = std::make_unique<mem::OffChipMemory>(sim_, params_.dram);
  network_ = std::make_unique<mem::MessageNetwork>(sim_, params_.message_latency);

  sram_free_.push_back(Region{0, sram_->storage().size()});
  dram_free_.push_back(Region{0, dram_->storage().size()});

  // The five computation modules of the Figure-8 instance, each behind its
  // own shell instance derived from the shell template.
  vld_ = std::make_unique<coproc::VldCoproc>(sim_, makeShell("vld"), *dram_, params_.vld);
  rlsq_ = std::make_unique<coproc::RlsqCoproc>(sim_, makeShell("rlsq"), params_.rlsq);
  dct_ = std::make_unique<coproc::DctCoproc>(sim_, makeShell("dct"), params_.dct);
  mc_ = std::make_unique<coproc::McCoproc>(sim_, makeShell("mc"), *dram_, params_.mc);
  cpu_ = std::make_unique<coproc::SoftCpu>(sim_, makeShell("dsp-cpu"));
}

shell::Shell& EclipseInstance::makeShell(const std::string& name) {
  shell::ShellParams sp;
  sp.id = next_shell_id_++;
  sp.name = name;
  sp.port_width_bytes = params_.port_width_bytes;
  sp.cache_line_bytes = params_.cache_line_bytes;
  sp.cache_lines_per_port = params_.cache_lines_per_port;
  sp.prefetch = params_.prefetch;
  sp.sync_latency = params_.sync_latency;
  sp.gettask_latency = params_.gettask_latency;
  sp.io_latency = params_.io_latency;
  sp.max_tasks = params_.max_tasks;
  sp.max_streams = params_.max_streams;
  sp.profiler_period = params_.profiler_period;
  sp.best_guess = params_.best_guess;
  auto sh = std::make_unique<shell::Shell>(sim_, sp, *sram_, *network_);
  sh->mapMmio(pi_bus_, mmioBase(*sh));
  shells_.push_back(std::move(sh));
  task_used_.emplace_back(sp.max_tasks, false);
  return *shells_.back();
}

shell::Shell* EclipseInstance::findShell(std::string_view name) {
  for (auto& sh : shells_) {
    if (sh->name() == name) return sh.get();
  }
  return nullptr;
}

shell::Shell& EclipseInstance::shell(std::string_view name) {
  if (shell::Shell* sh = findShell(name)) return *sh;
  std::string known;
  for (auto& sh : shells_) {
    if (!known.empty()) known += ", ";
    known += sh->name();
  }
  throw std::out_of_range("EclipseInstance: no shell named '" + std::string(name) +
                          "' (known: " + known + ")");
}

coproc::SoftCpu* EclipseInstance::softCpuAt(const shell::Shell& sh) {
  if (cpu_ && &cpu_->shell() == &sh) return cpu_.get();
  return nullptr;
}

void EclipseInstance::dropLastSink() {
  if (sinks_started_ == sinks_.size()) return;
  const shell::Shell& sh = *shells_.back();
  pi_bus_.detach(mmioBase(sh));
  network_->attach(sh.id(), {});
  sinks_.pop_back();
  shells_.pop_back();
  task_used_.pop_back();
  --next_shell_id_;
}

void EclipseInstance::startSinks() {
  if (!started_) return;
  for (; sinks_started_ < sinks_.size(); ++sinks_started_) {
    coproc::Sink& s = *sinks_[sinks_started_];
    s.start();
    if (params_.profiler_period > 0) s.shell().startProfiler();
  }
}

// ---------------------------------------------------------------------
// Memory and task-slot resource management
// ---------------------------------------------------------------------

std::optional<sim::Addr> EclipseInstance::allocRegion(std::vector<Region>& free_list,
                                                      std::uint64_t bytes) {
  // First fit over the address-sorted free list: on a fresh instance this
  // degenerates to the classic bump allocator (identical addresses), while
  // teardown returns holes that later applications reuse.
  for (auto it = free_list.begin(); it != free_list.end(); ++it) {
    if (it->bytes >= bytes) {
      const sim::Addr addr = it->addr;
      it->addr += bytes;
      it->bytes -= bytes;
      if (it->bytes == 0) free_list.erase(it);
      return addr;
    }
  }
  return std::nullopt;
}

void EclipseInstance::freeRegion(std::vector<Region>& free_list, sim::Addr addr,
                                 std::uint64_t bytes, const char* what) {
  if (bytes == 0) return;
  auto it = std::lower_bound(free_list.begin(), free_list.end(), addr,
                             [](const Region& r, sim::Addr a) { return r.addr < a; });
  // Overlap with a neighbouring free region means a double free or a
  // mis-sized free — fail loudly instead of corrupting the allocator.
  if (it != free_list.end() && addr + bytes > it->addr) {
    throw std::logic_error(std::string("EclipseInstance: double free in ") + what);
  }
  if (it != free_list.begin()) {
    auto prev = std::prev(it);
    if (prev->addr + prev->bytes > addr) {
      throw std::logic_error(std::string("EclipseInstance: double free in ") + what);
    }
  }
  it = free_list.insert(it, Region{addr, bytes});
  // Coalesce with the successor, then the predecessor.
  if (auto next = std::next(it); next != free_list.end() && it->addr + it->bytes == next->addr) {
    it->bytes += next->bytes;
    free_list.erase(next);
  }
  if (it != free_list.begin()) {
    auto prev = std::prev(it);
    if (prev->addr + prev->bytes == it->addr) {
      prev->bytes += it->bytes;
      free_list.erase(it);
    }
  }
}

std::size_t EclipseInstance::regionBytes(const std::vector<Region>& free_list) {
  std::size_t total = 0;
  for (const Region& r : free_list) total += r.bytes;
  return total;
}

std::uint32_t EclipseInstance::sramRounded(std::uint32_t bytes) const {
  const std::uint32_t line = params_.cache_line_bytes;
  return (bytes + line - 1) / line * line;
}

sim::Addr EclipseInstance::allocSram(std::uint32_t bytes) {
  if (const auto addr = allocRegion(sram_free_, sramRounded(bytes))) return *addr;
  throw std::runtime_error("EclipseInstance: out of on-chip SRAM");
}

void EclipseInstance::freeSram(sim::Addr addr, std::uint32_t bytes) {
  freeRegion(sram_free_, addr, sramRounded(bytes), "on-chip SRAM");
}

std::size_t EclipseInstance::sramBytesFree() const { return regionBytes(sram_free_); }

std::size_t EclipseInstance::sramFirstMisfit(
    const std::vector<std::pair<sim::Addr, std::uint32_t>>& released,
    const std::vector<std::uint32_t>& wanted) const {
  std::vector<Region> free_list = sram_free_;
  for (const auto& [addr, bytes] : released) {
    freeRegion(free_list, addr, sramRounded(bytes), "on-chip SRAM");
  }
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (!allocRegion(free_list, sramRounded(wanted[i]))) return i;
  }
  return wanted.size();
}

sim::Addr EclipseInstance::allocDram(std::size_t bytes) {
  const std::size_t rounded = (bytes + 63) / 64 * 64;
  if (const auto addr = allocRegion(dram_free_, rounded)) return *addr;
  throw std::runtime_error("EclipseInstance: out of off-chip memory");
}

void EclipseInstance::freeDram(sim::Addr addr, std::size_t bytes) {
  const std::size_t rounded = (bytes + 63) / 64 * 64;
  freeRegion(dram_free_, addr, rounded, "off-chip memory");
}

std::size_t EclipseInstance::dramBytesFree() const { return regionBytes(dram_free_); }

sim::TaskId EclipseInstance::allocTask(shell::Shell& sh) {
  std::vector<bool>& used = task_used_.at(sh.id());
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (!used[i]) {
      used[i] = true;
      return static_cast<sim::TaskId>(i);
    }
  }
  throw std::runtime_error("EclipseInstance: task table of " + sh.name() + " is full");
}

std::uint32_t EclipseInstance::freeTaskSlots(const shell::Shell& sh) const {
  const std::vector<bool>& used = task_used_.at(sh.id());
  std::uint32_t free = 0;
  for (bool u : used) {
    if (!u) ++free;
  }
  return free;
}

void EclipseInstance::freeTask(shell::Shell& sh, sim::TaskId task) {
  std::vector<bool>& used = task_used_.at(sh.id());
  const auto idx = static_cast<std::size_t>(task);
  if (idx >= used.size() || !used[idx]) {
    throw std::logic_error("EclipseInstance: freeing unallocated task slot on " + sh.name());
  }
  used[idx] = false;
}

void EclipseInstance::start() {
  if (started_) return;
  started_ = true;
  vld_->start();
  rlsq_->start();
  dct_->start();
  mc_->start();
  cpu_->start();
  for (auto& s : sinks_) s->start();
  sinks_started_ = sinks_.size();
  if (params_.profiler_period > 0) {
    for (auto& sh : shells_) sh->startProfiler();
  }
}

sim::Cycle EclipseInstance::run(sim::Cycle until) {
  start();
  // Every sink stops the simulation at its Eos; go on while that left
  // another application pending. A stop that finished no sink (a caller's
  // own sim.stop()) still ends the run.
  int pending = pendingApps();
  sim::Cycle now = sim_.run(until);
  for (int left = pendingApps(); left > 0 && left < pending; left = pendingApps()) {
    pending = left;
    now = sim_.run(until);
  }
  return now;
}

int EclipseInstance::pendingApps() const {
  return static_cast<int>(std::count_if(sinks_.begin(), sinks_.end(),
                                        [](const auto& s) { return s->pending(); }));
}

// ---------------------------------------------------------------------
// Fault injection and quiescence classification (DESIGN §9)
// ---------------------------------------------------------------------

void EclipseInstance::armFaults(const sim::FaultPlan& plan) {
  injector_.clear();
  // Events cannot be cancelled, so the bit flips of the plan being replaced
  // stay queued; each carries the plan it belongs to and returns untouched
  // when that plan is no longer the armed one.
  bit_flips_.clear();
  ++fault_plan_;
  for (const sim::FaultSpec& f : plan.faults) {
    if (f.kind == sim::FaultKind::BitFlipSram || f.kind == sim::FaultKind::BitFlipDram) {
      // State-mutating faults fire as one-shot events at their trigger
      // cycle; the injector only keeps the trigger log for them. The spec
      // stays in bit_flips_ while its plan is armed, and the event names it
      // by index.
      bit_flips_.push_back(f);
      sim_.scheduleAt(f.at_cycle, [this, plan = fault_plan_, i = bit_flips_.size() - 1] {
        if (plan != fault_plan_) return;
        const sim::FaultSpec& spec = bit_flips_[i];
        auto storage = spec.kind == sim::FaultKind::BitFlipSram ? sram_->storage().view()
                                                                : dram_->storage().view();
        if (spec.addr < storage.size()) {
          storage[spec.addr] ^= static_cast<std::uint8_t>(1u << (spec.bit % 8));
        }
        injector_.logTrigger(sim::FaultTrigger{spec.kind, sim_.now(), spec.shell, spec.task,
                                               static_cast<std::uint32_t>(spec.addr)});
      });
    } else {
      injector_.arm(f);
    }
  }
  sim_.setFaultInjector(&injector_);
}

void EclipseInstance::armWatchdogs(sim::Cycle timeout, sim::Cycle period) {
  // Programmed over the PI-bus like any other table state; the period must
  // land before the timeout because the timeout write arms the scan.
  for (auto& sh : shells_) {
    pi_bus_.write(mmio::ctlReg(*sh, mmio::kCtlWatchdogPeriod),
                  static_cast<std::uint32_t>(period));
    pi_bus_.write(mmio::ctlReg(*sh, mmio::kCtlWatchdogTimeout),
                  static_cast<std::uint32_t>(timeout));
  }
}

Quiescence EclipseInstance::classifyQuiescence() {
  auto findShellById = [&](std::uint32_t id) -> shell::Shell* {
    for (auto& sh : shells_) {
      if (sh->id() == id) return sh.get();
    }
    return nullptr;
  };

  bool any_enabled = false;
  for (auto& sh : shells_) {
    for (std::uint32_t i = 0; i < sh->tasks().capacity(); ++i) {
      const shell::TaskRow& t = sh->tasks().row(static_cast<sim::TaskId>(i));
      if (!t.valid || !t.enabled) continue;
      any_enabled = true;
      if (!t.blocked) return Quiescence::Running;
    }
  }
  if (!any_enabled) return Quiescence::Done;

  // Every enabled task is blocked. Walk each wait chain: blocked_row names
  // the starving access point, whose remote row names the task being
  // waited on. Revisiting a task on the chain is a deadlock cycle; a chain
  // ending anywhere else (disabled task, faulted task, unconfigured row)
  // is starvation — re-enabling the chain's end could restart the graph.
  for (auto& sh0 : shells_) {
    for (std::uint32_t i0 = 0; i0 < sh0->tasks().capacity(); ++i0) {
      const shell::TaskRow& t0 = sh0->tasks().row(static_cast<sim::TaskId>(i0));
      if (!t0.valid || !t0.enabled || !t0.blocked) continue;
      std::vector<std::pair<std::uint32_t, sim::TaskId>> visited;
      shell::Shell* sh = sh0.get();
      auto task = static_cast<sim::TaskId>(i0);
      while (true) {
        const auto key = std::make_pair(sh->id(), task);
        if (std::find(visited.begin(), visited.end(), key) != visited.end()) {
          return Quiescence::Deadlocked;
        }
        visited.push_back(key);
        const shell::TaskRow& t = sh->tasks().row(task);
        if (!t.valid || !t.enabled || !t.blocked || t.blocked_row < 0) break;
        const shell::StreamRow& row =
            sh->streams().row(static_cast<std::uint32_t>(t.blocked_row));
        if (!row.valid) break;
        shell::Shell* remote = findShellById(row.remote_shell);
        if (remote == nullptr) break;
        const shell::StreamRow& rrow = remote->streams().row(row.remote_row);
        if (!rrow.valid) break;
        sh = remote;
        task = rrow.task;
      }
    }
  }
  return Quiescence::Starved;
}

}  // namespace eclipse::app
