#include "eclipse/kpn/graph.hpp"

#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace eclipse::kpn {

ByteFifo& TaskContext::in(int port) const {
  if (port < 0 || port >= static_cast<int>(inputs_.size()) || inputs_[port] == nullptr) {
    throw std::out_of_range("TaskContext: task '" + name_ + "' has no input port " +
                            std::to_string(port));
  }
  return *inputs_[port];
}

ByteFifo& TaskContext::out(int port) const {
  if (port < 0 || port >= static_cast<int>(outputs_.size()) || outputs_[port] == nullptr) {
    throw std::out_of_range("TaskContext: task '" + name_ + "' has no output port " +
                            std::to_string(port));
  }
  return *outputs_[port];
}

int Graph::addTask(std::string name, TaskFn fn) {
  tasks_.push_back(TaskNode{std::move(name), std::move(fn), {}, {}});
  return static_cast<int>(tasks_.size()) - 1;
}

int Graph::connect(int producer, int out_port, int consumer, int in_port, std::size_t capacity) {
  if (producer < 0 || producer >= static_cast<int>(tasks_.size()) || consumer < 0 ||
      consumer >= static_cast<int>(tasks_.size())) {
    throw std::out_of_range("Graph::connect: unknown task id");
  }
  TaskNode& prod = tasks_[producer];
  TaskNode& cons = tasks_[consumer];
  if (prod.outputs.count(out_port) != 0) {
    throw std::logic_error("Graph::connect: output port " + std::to_string(out_port) +
                           " of '" + prod.name + "' already connected");
  }
  if (cons.inputs.count(in_port) != 0) {
    throw std::logic_error("Graph::connect: input port " + std::to_string(in_port) + " of '" +
                           cons.name + "' already connected");
  }
  auto fifo = std::make_unique<ByteFifo>(
      capacity, prod.name + ":" + std::to_string(out_port) + "->" + cons.name + ":" +
                    std::to_string(in_port));
  ByteFifo* raw = fifo.get();
  edges_.push_back(Edge{producer, out_port, consumer, in_port, std::move(fifo)});
  prod.outputs[out_port] = raw;
  cons.inputs[in_port] = raw;
  return static_cast<int>(edges_.size()) - 1;
}

void Graph::run() {
  std::vector<std::thread> threads;
  threads.reserve(tasks_.size());
  std::mutex error_mu;
  std::exception_ptr first_error;

  for (auto& node : tasks_) {
    threads.emplace_back([&node, &error_mu, &first_error] {
      TaskContext ctx;
      ctx.name_ = node.name;
      // Densify the sparse port maps into indexable vectors.
      auto densify = [](const std::map<int, ByteFifo*>& ports) {
        std::vector<ByteFifo*> v;
        for (const auto& [idx, fifo] : ports) {
          if (idx >= static_cast<int>(v.size())) v.resize(static_cast<std::size_t>(idx) + 1);
          v[static_cast<std::size_t>(idx)] = fifo;
        }
        return v;
      };
      ctx.inputs_ = densify(node.inputs);
      ctx.outputs_ = densify(node.outputs);
      try {
        node.fn(ctx);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Kahn EOF propagation: a finished task closes its outputs so that
      // consumers drain and terminate rather than block forever. Closing on
      // the error path too unblocks the rest of the network.
      for (auto& [idx, fifo] : node.outputs) fifo->close();
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::string Graph::describe() const {
  std::ostringstream ss;
  ss << "KPN graph: " << tasks_.size() << " tasks, " << edges_.size() << " streams\n";
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    ss << "  task[" << i << "] " << tasks_[i].name << " (in=" << tasks_[i].inputs.size()
       << ", out=" << tasks_[i].outputs.size() << ")\n";
  }
  for (const auto& e : edges_) {
    ss << "  stream " << tasks_[static_cast<std::size_t>(e.producer)].name << "." << e.out_port
       << " -> " << tasks_[static_cast<std::size_t>(e.consumer)].name << "." << e.in_port
       << " [" << e.fifo->capacity() << " B]\n";
  }
  return ss.str();
}

void Graph::setTimeout(std::chrono::milliseconds t) {
  for (auto& e : edges_) e.fifo->setTimeout(t);
}

}  // namespace eclipse::kpn
