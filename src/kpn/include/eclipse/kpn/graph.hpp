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
  bool read(int port, T& value) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t buf[sizeof(T)];
    if (!in(port).readAll(buf)) return false;
    std::memcpy(&value, buf, sizeof(T));
    return true;
  }

  /// Writes one trivially-copyable value.
  template <typename T>
  void write(int port, const T& value) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    out(port).write(buf);
  }

 private:
  friend class Graph;
  std::string name_;
  std::vector<ByteFifo*> inputs_;
  std::vector<ByteFifo*> outputs_;
};

using TaskFn = std::function<void(TaskContext&)>;

/// Runtime-configurable Kahn Process Network (the paper's application
/// model): tasks as nodes, bounded byte streams as edges. Running the graph
/// executes every task on its own thread; Kahn semantics guarantee the
/// observable stream contents are schedule-independent.
class Graph {
 public:
  /// Adds a task; returns its node id.
  int addTask(std::string name, TaskFn fn);

  /// Connects producer's output port to consumer's input port with a FIFO
  /// of `capacity` bytes. Each port may be connected exactly once.
  /// Returns the edge id.
  int connect(int producer, int out_port, int consumer, int in_port, std::size_t capacity);

  /// Executes the network to completion. A task's output streams close
  /// automatically when its function returns, propagating EOF downstream.
  /// Rethrows the first task exception; DeadlockError indicates an
  /// undersized buffer or a dependency cycle.
  void run();

  [[nodiscard]] std::size_t edgeCount() const { return edges_.size(); }
  [[nodiscard]] const std::string& taskName(int id) const { return tasks_.at(id).name; }
  [[nodiscard]] ByteFifo& edge(int id) { return *edges_.at(id).fifo; }
  [[nodiscard]] const ByteFifo& edge(int id) const { return *edges_.at(id).fifo; }

  /// Human-readable structure dump (nodes and edges), used to reproduce the
  /// Figure-2 style network listings.
  [[nodiscard]] std::string describe() const;

  /// Applies a blocking timeout to every edge (deadlock detection budget).
  void setTimeout(std::chrono::milliseconds t);

 private:
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
