#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "eclipse/coproc/soft_cpu.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::app {

class EclipseInstance;

/// One end of a stream: a port of a named task. Port ids follow the
/// task-level interface (small integers, meaningful to the coprocessor).
struct PortRef {
  std::string task;
  sim::PortId port = 0;
};

/// Declarative description of one task in an application graph.
struct TaskSpec {
  std::string name;                    ///< unique within the spec
  std::string shell;                   ///< shell name on the instance ("vld", "dsp-cpu", ...)
  std::uint32_t budget_cycles = 2000;  ///< weighted round-robin budget
  std::uint32_t task_info = 0;         ///< parameter word returned by GetTask
  bool enabled = true;                 ///< initial scheduler-enable state
  bool source = false;                 ///< data injector: disabled first when draining
  /// Software step bound when the shell fronts the media processor
  /// (SoftCpu). Must be empty for hardware coprocessor shells.
  coproc::SoftCpu::StepHandler software;
};

/// Declarative description of one stream (a bounded FIFO in on-chip SRAM
/// with one producer and one consumer access point).
struct StreamSpec {
  std::string name;                ///< unique within the spec
  PortRef producer;                ///< output port writing the stream
  PortRef consumer;                ///< input port reading the stream
  std::uint32_t buffer_bytes = 0;  ///< FIFO capacity (multiple of the cache line)
};

/// Raised by GraphSpec::validate on a malformed or unsatisfiable graph.
class GraphSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative application graph — the *what* of an Eclipse application,
/// decoupled from *how* it is programmed onto a running instance. A
/// GraphSpec names tasks (bound to shells by name) and streams (FIFO edges
/// between task ports); AppHandle::configure validates it against an
/// instance and programs the shell stream/task tables over the PI-bus,
/// exactly like the CPU of a real subsystem (Sections 2–5 of the paper).
class GraphSpec {
 public:
  explicit GraphSpec(std::string name = "app") : name_(std::move(name)) {}

  /// Adds a task; returns *this for fluent graph building.
  GraphSpec& task(TaskSpec t) {
    tasks_.push_back(std::move(t));
    return *this;
  }

  /// Adds a stream; returns *this for fluent graph building.
  GraphSpec& stream(StreamSpec s) {
    streams_.push_back(std::move(s));
    return *this;
  }

  /// Shorthand: `spec.stream("coef", "vld", 0, "rlsq", 0, 4096)`.
  GraphSpec& stream(std::string name, std::string producer_task, sim::PortId out_port,
                    std::string consumer_task, sim::PortId in_port, std::uint32_t buffer_bytes) {
    return stream(StreamSpec{std::move(name),
                             PortRef{std::move(producer_task), out_port},
                             PortRef{std::move(consumer_task), in_port},
                             buffer_bytes});
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<TaskSpec>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<StreamSpec>& streams() const { return streams_; }

  /// Finds a task by name; nullptr when absent.
  [[nodiscard]] const TaskSpec* findTask(std::string_view task_name) const;

  /// Instance-independent structural validation: dangling ports,
  /// double-bound endpoints, duplicate names, empty graphs. Throws
  /// GraphSpecError naming the offending element.
  void validateStructure() const;

  /// Interface checking before deployment: checkTransition (mode_set.hpp)
  /// from the empty graph — validateStructure() plus unknown shells,
  /// software bindings, buffer size vs. cache-line constraints, task-slot
  /// and stream-row exhaustion, and first-fit SRAM placement of every
  /// FIFO. Throws GraphSpecError with a message naming the offending
  /// element.
  void validate(EclipseInstance& inst) const;

 private:
  std::string name_;
  std::vector<TaskSpec> tasks_;
  std::vector<StreamSpec> streams_;
};

}  // namespace eclipse::app
