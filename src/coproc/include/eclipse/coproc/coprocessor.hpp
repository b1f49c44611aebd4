#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/shell/shell.hpp"
#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/fault.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::coproc {

/// Base class for Eclipse coprocessors (Section 4).
///
/// A coprocessor owns one thread of control: an infinite loop over
/// *processing steps*. At each step it asks its shell which task to run
/// (GetTask) and executes one processing step of that task using GetSpace /
/// Read / Write / PutSpace. A step that cannot complete (denied GetSpace)
/// is abandoned without committing anything, so a later retry restarts it
/// from the beginning — the paper's single-entry / multiple-exit pattern.
///
/// Subclasses implement step(); the base runs the control loop and tracks
/// when all of the coprocessor's tasks have finished so the loop can park.
class Coprocessor {
 public:
  Coprocessor(sim::Simulator& sim, shell::Shell& sh, std::string name)
      : sim_(sim), shell_(sh), name_(std::move(name)) {}

  Coprocessor(const Coprocessor&) = delete;
  Coprocessor& operator=(const Coprocessor&) = delete;
  virtual ~Coprocessor() = default;

  /// Spawns the control loop on the simulator.
  void start() { sim_.spawn(controlLoop(), name_); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] shell::Shell& shell() { return shell_; }
  [[nodiscard]] const shell::Shell& shell() const { return shell_; }
  [[nodiscard]] std::uint64_t stepsExecuted() const { return steps_; }

 protected:
  /// One processing step of `task`. `task_info` is the parameter word from
  /// the task table. Implementations must be restartable: do not commit
  /// (PutSpace) before the step is certain to complete.
  virtual sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) = 0;

  /// Marks one of this coprocessor's tasks as finished (end of stream).
  /// The task is disabled in the shell so the scheduler skips it.
  void finishTask(sim::TaskId task) { shell_.setTaskEnabled(task, false); }

  sim::Simulator& sim_;
  shell::Shell& shell_;

 private:
  sim::Task<void> controlLoop() {
    while (true) {
      const auto r = co_await shell_.getTask();
      ++steps_;

      // Fault hook: an injected hang wedges the coprocessor for N cycles
      // in place of the processing step — no progress, no commits. The
      // shell watchdog sees the overdue step and latches FaultCause::Hang.
      if (sim::FaultInjector* inj = sim_.faults()) {
        if (sim::Cycle hang = inj->taskHangCycles(shell_.id(), r.task, sim_.now())) {
          inj->logTrigger({sim::FaultKind::TaskHang, sim_.now(), shell_.id(), r.task,
                           static_cast<std::uint32_t>(hang)});
          co_await sim_.delay(hang);
          continue;
        }
      }

      // Containment: an exception escaping a processing step no longer
      // unwinds the simulator. It is latched into the task's fault
      // register — cause, task id, shell name and cycle attached — the
      // task is disabled, and the loop moves on to sibling tasks.
      try {
        co_await step(r.task, r.task_info);
      } catch (const media::BitstreamError& e) {
        containFault(r.task, shell::FaultCause::Bitstream, e.what());
      } catch (const std::logic_error& e) {
        containFault(r.task, shell::FaultCause::Protocol, e.what());
      } catch (const std::exception& e) {
        containFault(r.task, shell::FaultCause::TaskException, e.what());
      }
    }
  }

  void containFault(sim::TaskId task, shell::FaultCause cause, const char* what) {
    shell_.latchFault(task, cause, -1,
                      name_ + " task " + std::to_string(task) + " @" +
                          std::to_string(sim_.now()) + ": " + what);
  }

  std::string name_;
  std::uint64_t steps_ = 0;
};

}  // namespace eclipse::coproc
