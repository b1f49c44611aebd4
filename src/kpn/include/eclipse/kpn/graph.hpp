#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "eclipse/kpn/fifo.hpp"
#include "eclipse/sim/coro.hpp"

namespace eclipse::kpn {

class Graph;

/// Per-task view of the network handed to the task function.
///
/// Ports are addressed by small integer ids, exactly like the port_id
/// argument of the Eclipse task-level interface; this keeps functional task
/// code structurally identical to its later coprocessor refinement.
class TaskContext {
 public:
  ByteFifo& in(int port) const;
  ByteFifo& out(int port) const;
  [[nodiscard]] int inputCount() const { return static_cast<int>(inputs_.size()); }
  [[nodiscard]] int outputCount() const { return static_cast<int>(outputs_.size()); }
  [[nodiscard]] const std::string& taskName() const { return name_; }

  /// Reads one trivially-copyable value; false on EOF.
  template <typename T>
  sim::Task<bool> read(int port, T& value) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t buf[sizeof(T)];
    if (!co_await in(port).readAll(buf)) co_return false;
    std::memcpy(&value, buf, sizeof(T));
    co_return true;
  }

  /// Writes one trivially-copyable value.
  template <typename T>
  sim::Task<void> write(int port, T value) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    co_await out(port).write(buf);
  }

 private:
  friend class Graph;
  std::string name_;
  std::vector<ByteFifo*> inputs_;
  std::vector<ByteFifo*> outputs_;
};

/// A task body: a coroutine that `co_await`s its stream reads and writes.
using TaskFn = std::function<sim::Task<void>(TaskContext&)>;

/// Runtime-configurable Kahn Process Network (the paper's application
/// model): tasks as nodes, bounded byte streams as edges. Running the graph
/// executes every task as a process of one deterministic sim::Simulator,
/// the kernel of the timed model; Kahn semantics guarantee the observable
/// stream contents are schedule-independent.
class Graph {
 public:
  /// Adds a task; returns its node id.
  int addTask(std::string name, TaskFn fn);

  /// Connects producer's output port to consumer's input port with a FIFO
  /// of `capacity` bytes. Each port may be connected exactly once.
  /// Returns the edge id.
  int connect(int producer, int out_port, int consumer, int in_port, std::size_t capacity);

  /// Executes the network until no task can make progress. A task's output
  /// streams close automatically when its function returns, propagating
  /// EOF downstream. Rethrows the first task exception in dispatch order.
  /// Otherwise, if any task is unfinished, throws DeadlockError at once
  /// (an undersized buffer or a dependency cycle); its message names every
  /// blocked task in task-id order with its stream and whether that stream
  /// is empty or full, and is the same on every run.
  void run();

  [[nodiscard]] std::size_t edgeCount() const { return edges_.size(); }
  [[nodiscard]] const std::string& taskName(int id) const { return tasks_.at(id).name; }
  [[nodiscard]] ByteFifo& edge(int id) { return *edges_.at(id).fifo; }
  [[nodiscard]] const ByteFifo& edge(int id) const { return *edges_.at(id).fifo; }

  /// Human-readable structure dump (nodes and edges), used to reproduce the
  /// Figure-2 style network listings.
  [[nodiscard]] std::string describe() const;

 private:
  /// The DeadlockError message: every task parked on one of its streams.
  [[nodiscard]] std::string blockedReport() const;

  struct TaskNode {
    std::string name;
    TaskFn fn;
    std::map<int, ByteFifo*> inputs;   // in_port -> fifo
    std::map<int, ByteFifo*> outputs;  // out_port -> fifo
  };
  struct Edge {
    int producer;
    int out_port;
    int consumer;
    int in_port;
    std::unique_ptr<ByteFifo> fifo;
  };

  std::vector<TaskNode> tasks_;
  std::vector<Edge> edges_;
};

}  // namespace eclipse::kpn
