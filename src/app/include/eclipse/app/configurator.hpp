#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eclipse/app/graph_spec.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/app/mode_set.hpp"

namespace eclipse::app {

/// PI-bus addresses of a shell's table registers. The layout and the
/// field names are shell::mmio's (shell/tables.hpp); this adds the shell's
/// window base. Shared by AppHandle, the graph_dump tool and the
/// reconfiguration/fault tests.
namespace mmio {

using namespace shell::mmio;

/// PI-bus address of stream-row register `field` of row `row` of `sh`.
inline sim::Addr streamReg(const shell::Shell& sh, std::uint32_t row, std::uint32_t field) {
  return EclipseInstance::mmioBase(sh) +
         (static_cast<sim::Addr>(row) * kStreamRowWords + field) * 4;
}

/// PI-bus address of task-row register `field` of slot `task` of `sh`.
inline sim::Addr taskReg(const shell::Shell& sh, sim::TaskId task, std::uint32_t field) {
  return EclipseInstance::mmioBase(sh) +
         (static_cast<sim::Addr>(sh.params().max_streams) * kStreamRowWords +
          static_cast<sim::Addr>(task) * kTaskRowWords + field) *
             4;
}

/// PI-bus address of shell control register `field` of `sh`.
inline sim::Addr ctlReg(const shell::Shell& sh, std::uint32_t field) {
  return EclipseInstance::mmioBase(sh) +
         (static_cast<sim::Addr>(sh.params().max_streams) * kStreamRowWords +
          static_cast<sim::Addr>(sh.params().max_tasks) * kTaskRowWords + field) *
             4;
}

}  // namespace mmio

/// One latched task fault as read back over the PI-bus (health()).
struct TaskFault {
  std::string task;          ///< task name from the spec
  std::string shell;         ///< hosting shell
  sim::TaskId id = 0;        ///< task slot
  std::uint32_t cause = 0;   ///< shell::FaultCause as raw register value
  sim::Cycle cycle = 0;      ///< cycle the fault latched
  std::int32_t row = -1;     ///< implicated stream row, -1 if none
  std::uint32_t count = 0;   ///< total faults seen on this slot
};

/// One latched stream stall as read back over the PI-bus (health()).
struct StreamStall {
  std::string stream;        ///< stream name from the spec
  bool producer_side = false;///< which row latched the stall
  sim::Cycle cycle = 0;      ///< cycle the watchdog latched it
};

/// Snapshot of the application's fault/stall registers.
struct AppHealth {
  std::vector<TaskFault> faults;
  std::vector<StreamStall> stalls;
  std::uint64_t late_sync_drops = 0;  ///< summed over the app's shells
  [[nodiscard]] bool healthy() const { return faults.empty() && stalls.empty(); }
};

/// A task as placed onto the instance: its spec plus the shell and task
/// slot the handle allocated for it.
struct AppTask {
  TaskSpec spec;
  shell::Shell* shell = nullptr;
  sim::TaskId id = 0;
};

/// A stream as placed onto the instance: its spec plus both programmed
/// stream-table rows and the SRAM FIFO region. The one record of a placed
/// stream; applications hand it out for measurement (DecodeApp's
/// coefStream() and the rest).
struct AppStream {
  StreamSpec spec;
  shell::Shell* producer_shell = nullptr;
  std::uint32_t producer_row = 0;
  shell::Shell* consumer_shell = nullptr;
  std::uint32_t consumer_row = 0;
  sim::Addr buffer_base = 0;
};

/// Runtime control handle for one configured application. All table state
/// changes go through the PI-bus, the same path the configuring CPU uses.
///
/// One path programs a graph: switchTo() moves the handle from the graph it
/// holds to a target graph, and configure() is that transition from the
/// empty graph. Lifecycle: pause()/resume() toggle the scheduler-enable
/// bits; drain() quiesces the graph (sources disabled, simulation sliced
/// forward until every stream is empty by space accounting); teardown() —
/// only safe on a quiesced or never-started graph — invalidates all rows
/// and returns task slots, stream rows and SRAM regions to the instance
/// for reuse.
class AppHandle {
 public:
  AppHandle() = default;
  AppHandle(const AppHandle&) = delete;
  AppHandle& operator=(const AppHandle&) = delete;
  AppHandle(AppHandle&&) = default;
  AppHandle& operator=(AppHandle&&) = default;

  /// Programs `spec` onto `inst` over the PI-bus: switchTo(spec) from the
  /// empty graph, so it runs the same admission check (GraphSpec::validate)
  /// before its first write. `before_enable`, when given, runs after every
  /// slot/row/buffer is allocated and programmed but before any task row
  /// is made valid+enabled — the place for coprocessor-specific parameter
  /// setup (e.g. VLD bitstream address) that needs task ids, and for every
  /// off-chip allocation and staging write of the application, so that a
  /// refused configure leaves the instance as it found it.
  static AppHandle configure(EclipseInstance& inst, const GraphSpec& spec,
                             const std::function<void(AppHandle&)>& before_enable = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool live() const { return inst_ != nullptr && !torn_down_; }
  [[nodiscard]] bool paused() const { return paused_; }

  [[nodiscard]] const std::vector<AppTask>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<AppStream>& streams() const { return streams_; }

  /// Task slot allocated for the named task; throws std::out_of_range.
  [[nodiscard]] sim::TaskId taskId(std::string_view task_name) const;
  /// Shell the named task was placed on; throws std::out_of_range.
  [[nodiscard]] shell::Shell& taskShell(std::string_view task_name) const;
  /// Placement of the named stream; throws std::out_of_range.
  [[nodiscard]] const AppStream& stream(std::string_view stream_name) const;

  /// Toggles one task's scheduler-enable bit over the PI-bus.
  void setTaskEnabled(std::string_view task_name, bool enabled);

  /// Disables every task of the application (state preserved).
  void pause();
  /// Re-enables every task whose spec wants it enabled.
  void resume();

  /// Reads the application's fault and stall registers back over the
  /// PI-bus: latched task faults, watchdog stream stalls, and the shells'
  /// sticky late-putspace drop counters.
  [[nodiscard]] AppHealth health() const;

  /// Registers a notification callback fired synchronously whenever a
  /// fault latches on one of the application's tasks (exception
  /// containment, watchdog hang, injected fault). The callback runs inside
  /// the simulation, so it may drive recovery over the PI-bus directly.
  void onFault(std::function<void(const TaskFault&)> fn);

  /// Recovery step 1: clears the named task's fault latch over the PI-bus.
  /// With `reenable`, also restores the scheduler-enable bit (step 2) so
  /// the task resumes from its retained table state.
  void clearFault(std::string_view task_name, bool reenable = true);

  /// Re-derives the named stream's space registers from the committed
  /// position counters (producer space = size - in_flight, consumer space
  /// = in_flight) and clears any stall latch on either row. Only sound
  /// while the graph is quiesced or stalled: in-flight putspace messages
  /// would be double-counted otherwise.
  void repairStream(std::string_view stream_name);

  /// True when every stream of the application is empty and settled by
  /// space accounting: producer row sees a fully free buffer and consumer
  /// row sees no readable data (read back over the PI-bus).
  [[nodiscard]] bool quiesced() const;

  /// Quiesces the application: disables source tasks, then advances the
  /// simulation until quiesced() holds, no further progress is possible or
  /// kSettleCycles elapsed. Returns whether the graph quiesced. Other
  /// applications on the instance keep running during the drain.
  bool drain();

  /// Live diff-based reconfiguration: computes the task/stream delta to
  /// `target` (diffGraphs) and checks that the target fits once the
  /// removed elements are freed (checkTransition) before its first PI-bus
  /// write. Then it gates only the source tasks that can reach an affected
  /// stream, runs until the affected subgraph is empty by space accounting
  /// (read back over the PI-bus), invalidates and frees only removed
  /// rows/buffers, programs only added ones (kept streams reuse their rows
  /// and SRAM in place, kept tasks their slots), then re-enables.
  /// `before_enable` runs after programming, before any enable write — the
  /// hook for coprocessor parameter setup that needs task ids. Field-only
  /// diffs (budgets/info) never pause the graph. Returns the measured
  /// transition cost. Throws GraphSpecError, with the graph untouched, when
  /// the target does not fit; throws std::runtime_error if the partial
  /// drain does not settle within kSettleCycles.
  TransitionStats switchTo(const GraphSpec& target,
                           const std::function<void(AppHandle&)>& before_enable = {});

  /// Name of the GraphSpec currently programmed.
  [[nodiscard]] const std::string& currentMode() const { return mode_; }

  /// Cost record of the most recent switchTo (configure() included).
  [[nodiscard]] const TransitionStats& lastTransition() const { return last_transition_; }

  /// Frees everything the application holds: task rows and stream rows are
  /// invalidated over the PI-bus (resetting them for reuse), software
  /// handlers unbound, task slots / stream SRAM / adopted DRAM returned to
  /// the instance allocators. Idempotent.
  /// Only safe when the graph is quiesced (or was never run) — throws
  /// std::logic_error otherwise unless `force` is set (e.g. discarding a
  /// wedged graph after a fault).
  void teardown(bool force = false);
  [[nodiscard]] bool tornDown() const { return torn_down_; }

  /// Registers an off-chip region (e.g. an input bitstream or a frame
  /// store) to be freed on teardown.
  void adoptDram(sim::Addr addr, std::size_t bytes);

  /// How long drain() and a switch's partial drain may run the simulation
  /// (cycles), and the slice between two quiescence polls over the PI-bus.
  static constexpr sim::Cycle kSettleCycles = 2'000'000;
  static constexpr sim::Cycle kSettleSlice = 5'000;

 private:
  void requireLive() const;

  /// quiesced(), restricted to the streams named in `subset` (every
  /// stream when null). It walks the current streams on each call, so a
  /// fault callback that switches the graph mid-drain leaves no stale
  /// pointer behind.
  [[nodiscard]] bool streamsSettled(const std::set<std::string>* subset) const;

  /// Runs the simulation in kSettleSlice steps until streamsSettled(subset)
  /// holds; false when kSettleCycles pass or the event queue runs dry
  /// first. Shared by drain() and switchTo().
  bool settle(const std::set<std::string>* subset);

  /// Allocates SRAM and free rows for one stream and programs both table
  /// rows (fields first, valid last).
  AppStream programStream(const StreamSpec& s);

  /// Invalidates a task row over the PI-bus (enable, then valid), unbinds
  /// its software step and returns the slot. Shared by teardown() and
  /// switchTo().
  void releaseTask(const AppTask& t);
  /// Invalidates both rows of a stream over the PI-bus and returns its
  /// SRAM buffer. Shared by teardown() and switchTo().
  void releaseStream(const AppStream& s);

  EclipseInstance* inst_ = nullptr;
  std::string name_;
  std::string mode_;
  std::vector<AppTask> tasks_;
  std::vector<AppStream> streams_;
  std::vector<std::pair<sim::Addr, std::size_t>> dram_regions_;
  std::vector<std::pair<shell::Shell*, int>> fault_observers_;  ///< (shell, observer id)
  TransitionStats last_transition_{};
  bool torn_down_ = false;
  bool paused_ = false;
};

}  // namespace eclipse::app
