#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eclipse/coproc/dct_coproc.hpp"
#include "eclipse/coproc/mc.hpp"
#include "eclipse/coproc/rlsq.hpp"
#include "eclipse/coproc/sinks.hpp"
#include "eclipse/coproc/soft_cpu.hpp"
#include "eclipse/coproc/vld.hpp"
#include "eclipse/mem/message_network.hpp"
#include "eclipse/mem/pi_bus.hpp"
#include "eclipse/mem/sram.hpp"
#include "eclipse/shell/shell.hpp"
#include "eclipse/sim/config.hpp"
#include "eclipse/sim/fault.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::app {

/// Why the instance stopped making progress (classifyQuiescence()).
enum class Quiescence {
  Running,     ///< at least one task is runnable — not quiescent at all
  Done,        ///< every valid task is disabled or finished: clean drain
  Starved,     ///< blocked chains all end at a disabled/faulted task
  Deadlocked,  ///< a cycle of tasks each waiting on the next
};

[[nodiscard]] constexpr const char* quiescenceName(Quiescence q) {
  switch (q) {
    case Quiescence::Running: return "running";
    case Quiescence::Done: return "done";
    case Quiescence::Starved: return "starved";
    case Quiescence::Deadlocked: return "deadlocked";
  }
  return "?";
}

/// Parameters of one Eclipse instance — the template parameters of
/// Section 3 (memory size, bus width, caches, coprocessor timing, ...).
/// Defaults correspond to the Figure-8 MPEG instance.
struct InstanceParams {
  mem::SramParams sram{};
  mem::DramParams dram{};
  sim::Cycle message_latency = 2;

  // Shell template parameters (applied to every shell; per-shell overrides
  // can be made before start()).
  std::uint32_t cache_line_bytes = 64;
  std::uint32_t cache_lines_per_port = 2;
  bool prefetch = true;
  sim::Cycle sync_latency = 2;
  sim::Cycle gettask_latency = 2;
  sim::Cycle io_latency = 1;
  std::uint32_t port_width_bytes = 16;
  std::uint32_t max_tasks = 8;
  std::uint32_t max_streams = 24;
  sim::Cycle profiler_period = 0;
  bool best_guess = true;

  coproc::VldParams vld{};
  coproc::RlsqParams rlsq{};
  coproc::DctParams dct{};
  coproc::McParams mc{};

  /// Loads overrides from a setup file (Section 7 design-space
  /// exploration). Throws std::invalid_argument naming the first key it
  /// does not know, so a misspelt key cannot run the default instance.
  static InstanceParams fromConfig(const sim::Config& cfg);
};

/// One Eclipse subsystem instance: the coprocessors of Figure 8 behind
/// their shells, the shared SRAM with its split read/write buses, the
/// off-chip memory on the system bus, the inter-shell message network, and
/// the PI-bus with every shell's tables mapped.
///
/// Applications are configured onto a running instance at run time through
/// the GraphSpec/AppHandle control plane (see configurator.hpp), exactly
/// like the CPU programming the stream and task tables of a real
/// subsystem. Shells are addressed by *name* ("vld", "dct", "dsp-cpu",
/// ...), never by construction position.
class EclipseInstance {
 public:
  /// Every shell's register window is mapped on the PI-bus at
  /// id * kMmioStride (the window itself is far smaller).
  static constexpr sim::Addr kMmioStride = 0x10000;

  explicit EclipseInstance(const InstanceParams& params = {});

  /// Tears down the simulation processes before the memory/bus models they
  /// reference (members are destroyed in reverse declaration order, which
  /// would otherwise free the models while suspended coroutine frames
  /// still hold guards into them).
  ~EclipseInstance() { sim_.destroyProcesses(); }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] mem::SharedSram& sram() { return *sram_; }
  [[nodiscard]] mem::OffChipMemory& dram() { return *dram_; }
  [[nodiscard]] mem::MessageNetwork& network() { return *network_; }
  [[nodiscard]] mem::PiBus& piBus() { return pi_bus_; }
  [[nodiscard]] const InstanceParams& params() const { return params_; }

  [[nodiscard]] coproc::VldCoproc& vld() { return *vld_; }
  [[nodiscard]] coproc::RlsqCoproc& rlsq() { return *rlsq_; }
  [[nodiscard]] coproc::DctCoproc& dct() { return *dct_; }
  [[nodiscard]] coproc::McCoproc& mc() { return *mc_; }
  [[nodiscard]] coproc::SoftCpu& cpu() { return *cpu_; }

  /// Name-based shell lookup — the way applications (and the GraphSpec
  /// configurator) address computation modules. Throws std::out_of_range
  /// with the list of known names when `name` is absent.
  [[nodiscard]] shell::Shell& shell(std::string_view name);
  /// Like shell(), but returns nullptr instead of throwing.
  [[nodiscard]] shell::Shell* findShell(std::string_view name);

  // Convenience aliases for the five Figure-8 modules (thin wrappers over
  // the named lookup; no positional indexing).
  [[nodiscard]] shell::Shell& vldShell() { return shell("vld"); }
  [[nodiscard]] shell::Shell& rlsqShell() { return shell("rlsq"); }
  [[nodiscard]] shell::Shell& dctShell() { return shell("dct"); }
  [[nodiscard]] shell::Shell& mcShell() { return shell("mc"); }
  [[nodiscard]] shell::Shell& cpuShell() { return shell("dsp-cpu"); }
  [[nodiscard]] std::vector<std::unique_ptr<shell::Shell>>& shells() { return shells_; }

  /// PI-bus base address of a shell's register window.
  [[nodiscard]] static sim::Addr mmioBase(const shell::Shell& sh) {
    return static_cast<sim::Addr>(sh.id()) * kMmioStride;
  }

  /// The software coprocessor fronted by `sh`, or nullptr when `sh` fronts
  /// a hardware module (used by the configurator to bind software steps).
  [[nodiscard]] coproc::SoftCpu* softCpuAt(const shell::Shell& sh);

  /// Adds an output sink (coproc::FrameSink or coproc::ByteSink) behind a
  /// new shell named "<kind>-<shell id>" and runs `configure(sink)`, the
  /// application's first transition, which starts the sink (startSinks).
  /// If `configure` throws before that, the sink and its shell go again.
  template <class S, class F>
  void addSink(F&& configure) {
    auto owned = std::make_unique<S>(
        sim_, makeShell(std::string(S::kName) + "-" + std::to_string(next_shell_id_)));
    S& sink = *owned;
    sinks_.push_back(std::move(owned));
    try {
      configure(sink);
    } catch (...) {
      dropLastSink();
      throw;
    }
  }
  /// Starts every sink added since start() (control loop, and profiler if
  /// enabled); a no-op before start(). AppHandle::switchTo calls it once
  /// the target is admitted, before it causes any event.
  void startSinks();

  /// Allocates a stream buffer in on-chip SRAM (cache-line aligned,
  /// first-fit over the free list). Throws std::runtime_error on
  /// exhaustion.
  sim::Addr allocSram(std::uint32_t bytes);
  /// Returns an SRAM region to the free list (coalescing with neighbours)
  /// so a torn-down application's buffers can be reused.
  void freeSram(sim::Addr addr, std::uint32_t bytes);
  /// Bytes currently allocatable in SRAM (largest-hole not guaranteed).
  [[nodiscard]] std::size_t sramBytesFree() const;
  /// Dry run of a transition's SRAM traffic on a copy of the free list:
  /// returns the `released` (base, bytes) regions, then places `wanted`
  /// FIFOs first-fit in order, exactly as freeSram/allocSram would.
  /// Returns the index of the first FIFO that finds no hole, or
  /// wanted.size() when all fit. Changes nothing.
  [[nodiscard]] std::size_t sramFirstMisfit(
      const std::vector<std::pair<sim::Addr, std::uint32_t>>& released,
      const std::vector<std::uint32_t>& wanted) const;

  /// Allocates a region in off-chip memory (first-fit free list).
  sim::Addr allocDram(std::size_t bytes);
  void freeDram(sim::Addr addr, std::size_t bytes);
  [[nodiscard]] std::size_t dramBytesFree() const;

  /// Allocates the lowest free task slot on a shell.
  sim::TaskId allocTask(shell::Shell& sh);
  /// Releases a task slot for reuse by a later application.
  void freeTask(shell::Shell& sh, sim::TaskId task);
  /// Number of unallocated task slots on a shell (capacity check).
  [[nodiscard]] std::uint32_t freeTaskSlots(const shell::Shell& sh) const;

  /// Starts every coprocessor control loop (and profilers if enabled).
  /// Idempotent; sinks added later start with startSinks().
  void start();

  /// Runs the simulation until every pending application completes (it
  /// stops inside the event that delivers the last pending sink's Eos),
  /// the event queue drains, or `until` is reached.
  sim::Cycle run(sim::Cycle until = sim::Simulator::kForever);

  /// Applications still running, derived from the sinks (a sink is pending
  /// while its shell holds a valid task and it has not seen Eos).
  [[nodiscard]] int pendingApps() const;

  // --- Fault injection and health (DESIGN §9) ---------------------------

  /// Arms a fault plan: query-style faults (drop/delay putspace, task
  /// hang, payload corruption) are installed into the instance's
  /// FaultInjector and checked by the shells/network at the matching
  /// touch points; state-mutating faults (SRAM/DRAM bit flips) are
  /// scheduled as one-shot simulation events at their trigger cycle.
  /// Callable repeatedly; each call replaces the previous plan.
  void armFaults(const sim::FaultPlan& plan);

  /// The instance's fault injector (trigger log lives here).
  [[nodiscard]] sim::FaultInjector& faults() { return injector_; }

  /// Arms every shell's progress watchdog over the PI-bus (control-block
  /// writes, period first). `timeout` of 0 disarms.
  void armWatchdogs(sim::Cycle timeout, sim::Cycle period = 256);

  /// Classifies the current stop state by walking the blocked-on graph:
  /// each blocked task points (via its blocked stream row's remote shell/
  /// row) at the task it waits on. A cycle is a deadlock; a chain ending
  /// at a disabled or faulted task is starvation; no enabled unfinished
  /// task at all is a clean drain; anything runnable means still running.
  [[nodiscard]] Quiescence classifyQuiescence();

 private:
  /// A free region of a linear memory (free lists kept sorted by address
  /// and coalesced on free).
  struct Region {
    sim::Addr addr;
    std::uint64_t bytes;
  };

  /// First fit; std::nullopt when no hole is large enough.
  static std::optional<sim::Addr> allocRegion(std::vector<Region>& free_list,
                                              std::uint64_t bytes);
  static void freeRegion(std::vector<Region>& free_list, sim::Addr addr, std::uint64_t bytes,
                         const char* what);
  static std::size_t regionBytes(const std::vector<Region>& free_list);
  /// An SRAM request rounded up to whole cache lines.
  [[nodiscard]] std::uint32_t sramRounded(std::uint32_t bytes) const;

  shell::Shell& makeShell(const std::string& name);
  /// Undoes addSink, unless the sink's control loop already runs: its shell
  /// leaves the shell list, the PI-bus and the message network.
  void dropLastSink();

  InstanceParams params_;
  sim::Simulator sim_;
  std::unique_ptr<mem::SharedSram> sram_;
  std::unique_ptr<mem::OffChipMemory> dram_;
  std::unique_ptr<mem::MessageNetwork> network_;
  mem::PiBus pi_bus_;

  std::vector<std::unique_ptr<shell::Shell>> shells_;
  std::vector<std::unique_ptr<coproc::Sink>> sinks_;
  std::size_t sinks_started_ = 0;  // sinks_[0, sinks_started_) are running
  std::unique_ptr<coproc::VldCoproc> vld_;
  std::unique_ptr<coproc::RlsqCoproc> rlsq_;
  std::unique_ptr<coproc::DctCoproc> dct_;
  std::unique_ptr<coproc::McCoproc> mc_;
  std::unique_ptr<coproc::SoftCpu> cpu_;

  std::vector<Region> sram_free_;
  std::vector<Region> dram_free_;
  std::vector<std::vector<bool>> task_used_;  // per shell id, per slot
  std::uint32_t next_shell_id_ = 0;
  bool started_ = false;
  sim::FaultInjector injector_;
  std::vector<sim::FaultSpec> bit_flips_;  // armed bit flips, by event index
  std::uint64_t fault_plan_ = 0;  // bumped by armFaults; stale flips skip
};

}  // namespace eclipse::app
