#include "eclipse/app/graph_spec.hpp"

#include <set>
#include <utility>

#include "eclipse/app/mode_set.hpp"

namespace eclipse::app {

const TaskSpec* GraphSpec::findTask(std::string_view task_name) const {
  for (const TaskSpec& t : tasks_) {
    if (t.name == task_name) return &t;
  }
  return nullptr;
}

void GraphSpec::validateStructure() const {
  auto fail = [this](const std::string& msg) {
    throw GraphSpecError("GraphSpec '" + name_ + "': " + msg);
  };

  if (tasks_.empty()) fail("graph has no tasks");

  std::set<std::string> task_names;
  for (const TaskSpec& t : tasks_) {
    if (t.name.empty()) fail("task with empty name");
    if (!task_names.insert(t.name).second) fail("duplicate task name '" + t.name + "'");
  }

  std::set<std::string> stream_names;
  // Endpoint uniqueness: the shell resolves (task, port) without a
  // direction, so a port id may appear in at most one stream endpoint per
  // task — in either role.
  std::set<std::pair<std::string, sim::PortId>> bound_ports;
  for (const StreamSpec& s : streams_) {
    if (s.name.empty()) fail("stream with empty name");
    if (!stream_names.insert(s.name).second) fail("duplicate stream name '" + s.name + "'");
    for (const PortRef* ep : {&s.producer, &s.consumer}) {
      if (task_names.count(ep->task) == 0) {
        fail("stream '" + s.name + "' references unknown task '" + ep->task +
             "' (dangling port)");
      }
      if (!bound_ports.insert({ep->task, ep->port}).second) {
        fail("port " + std::to_string(ep->port) + " of task '" + ep->task +
             "' is bound to more than one stream endpoint");
      }
    }
  }
}

void GraphSpec::validate(EclipseInstance& inst) const {
  const GraphSpec empty(name_);
  checkTransition(inst, empty, *this, diffGraphs(empty, *this), Released{});
}

}  // namespace eclipse::app
