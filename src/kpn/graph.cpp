#include "eclipse/kpn/graph.hpp"

#include <sstream>
#include <stdexcept>

#include "eclipse/sim/simulator.hpp"

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

namespace {

/// One task as a root process: the body, then Kahn EOF propagation — a
/// finished task closes its outputs so that consumers drain and terminate
/// rather than block forever.
sim::Task<void> runTask(const TaskFn& fn, TaskContext& ctx,
                        const std::map<int, ByteFifo*>& outputs) {
  co_await fn(ctx);
  for (const auto& [idx, fifo] : outputs) fifo->close();
}

/// Densifies a sparse port map into an indexable vector.
std::vector<ByteFifo*> densify(const std::map<int, ByteFifo*>& ports) {
  std::vector<ByteFifo*> v;
  for (const auto& [idx, fifo] : ports) {
    if (idx >= static_cast<int>(v.size())) v.resize(static_cast<std::size_t>(idx) + 1);
    v[static_cast<std::size_t>(idx)] = fifo;
  }
  return v;
}

}  // namespace

void Graph::run() {
  std::vector<TaskContext> contexts(tasks_.size());
  sim::Simulator sim;
  // The FIFOs hold handles into this run's coroutine frames, which die
  // with `sim`; detach them on every way out.
  struct Detach {
    std::vector<Edge>& edges;
    ~Detach() {
      for (auto& e : edges) e.fifo->detach();
    }
  } detach{edges_};
  for (auto& e : edges_) e.fifo->attach(sim);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskNode& node = tasks_[i];
    TaskContext& ctx = contexts[i];
    ctx.name_ = node.name;
    ctx.inputs_ = densify(node.inputs);
    ctx.outputs_ = densify(node.outputs);
    sim.spawn(runTask(node.fn, ctx, node.outputs), node.name);
  }
  sim.run();  // rethrows the first task exception
  if (sim.liveProcesses() > 0) throw DeadlockError(blockedReport());
}

std::string Graph::blockedReport() const {
  std::ostringstream ss;
  ss << "KPN deadlock:";
  const char* sep = " ";
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (const auto& e : edges_) {
      const ByteFifo::Parked parked = e.fifo->parked();
      const bool reading = e.consumer == static_cast<int>(t) && parked == ByteFifo::Parked::reader;
      const bool writing = e.producer == static_cast<int>(t) && parked == ByteFifo::Parked::writer;
      if (!reading && !writing) continue;
      ss << sep << tasks_[t].name << (reading ? " reads " : " writes ") << e.fifo->name()
         << (reading ? " (empty)" : " (full)");
      sep = "; ";
    }
  }
  return ss.str();
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

}  // namespace eclipse::kpn
