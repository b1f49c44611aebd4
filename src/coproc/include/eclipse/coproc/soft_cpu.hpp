#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "eclipse/coproc/coprocessor.hpp"

namespace eclipse::coproc {

/// The programmable media processor (the paper's DSP-CPU).
///
/// Functions that are application-specific or likely to change with
/// standards run in software here (Section 6: audio decoding, variable
/// length *encoding* and de-multiplexing run on the media processor). The
/// CPU is modelled as a multi-tasking coprocessor whose processing steps
/// execute registered software handlers; its shell is identical to a
/// hardware shell (the media processor shell of Figure 4).
///
/// Handlers must follow the same restartable-step discipline as hardware
/// coprocessors: abort (plain co_return) on a denied GetSpace so the CPU
/// can switch to another software task instead of spinning.
class SoftCpu final : public Coprocessor {
 public:
  using StepHandler = std::function<sim::Task<void>(sim::TaskId task, std::uint32_t info)>;

  SoftCpu(sim::Simulator& sim, shell::Shell& sh) : Coprocessor(sim, sh, "dsp-cpu") {}

  /// Binds a software step handler to a task slot. Task ids are small and
  /// dense (they index the shell's task table), so dispatch is a flat
  /// vector lookup instead of a tree search.
  void registerTask(sim::TaskId task, StepHandler handler) {
    if (handlers_.size() <= static_cast<std::size_t>(task)) {
      handlers_.resize(static_cast<std::size_t>(task) + 1);
    }
    handlers_[static_cast<std::size_t>(task)] = std::move(handler);
  }

  /// Unbinds a task slot's handler (application teardown) so the slot can
  /// be reused by a later application's software task.
  void unregisterTask(sim::TaskId task) {
    if (static_cast<std::size_t>(task) < handlers_.size()) {
      handlers_[static_cast<std::size_t>(task)] = nullptr;
    }
  }

  /// Software tasks call this when their stream ends.
  void finish(sim::TaskId task) { finishTask(task); }

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override {
    if (static_cast<std::size_t>(task) >= handlers_.size() ||
        !handlers_[static_cast<std::size_t>(task)]) {
      throw std::logic_error("SoftCpu: unregistered task scheduled");
    }
    co_await handlers_[static_cast<std::size_t>(task)](task, task_info);
  }

 private:
  std::vector<StepHandler> handlers_;  // indexed by task id
};

}  // namespace eclipse::coproc
