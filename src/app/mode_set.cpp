#include "eclipse/app/mode_set.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eclipse/app/instance.hpp"

namespace eclipse::app {

namespace {

bool sameEndpoint(const PortRef& a, const PortRef& b) {
  return a.task == b.task && a.port == b.port;
}

bool sameScalarFields(const TaskSpec& a, const TaskSpec& b) {
  return a.budget_cycles == b.budget_cycles && a.task_info == b.task_info &&
         a.enabled == b.enabled && a.source == b.source;
}

/// The task-identity rule of transitions: a task that modes `mode_a` and
/// `mode_b` both name keeps its shell and its software/hardware binding.
/// Throws GraphSpecError prefixed with `owner`.
void checkSameTask(const std::string& owner, const TaskSpec& a, const std::string& mode_a,
                   const TaskSpec& b, const std::string& mode_b) {
  if (a.shell != b.shell) {
    throw GraphSpecError(owner + ": task '" + b.name + "' is on shell '" + a.shell +
                         "' in mode '" + mode_a + "' but on shell '" + b.shell + "' in mode '" +
                         mode_b + "' — rename the task if it moves");
  }
  if (bool(a.software) != bool(b.software)) {
    throw GraphSpecError(owner + ": task '" + b.name +
                         "' switches between software and hardware across modes '" + mode_a +
                         "' and '" + mode_b + "'");
  }
}

}  // namespace

GraphDiff diffGraphs(const GraphSpec& current, const GraphSpec& target) {
  GraphDiff d;

  for (const TaskSpec& t : target.tasks()) {
    const TaskSpec* cur = current.findTask(t.name);
    if (cur == nullptr) {
      d.tasks_added.push_back(t);
    } else if (sameScalarFields(*cur, t)) {
      d.tasks_kept.push_back(t.name);
    } else {
      d.tasks_updated.push_back(t.name);
    }
  }
  for (const TaskSpec& t : current.tasks()) {
    if (target.findTask(t.name) == nullptr) d.tasks_removed.push_back(t.name);
  }

  auto findStream = [](const GraphSpec& g, const std::string& name) -> const StreamSpec* {
    for (const StreamSpec& s : g.streams()) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };

  for (const StreamSpec& s : target.streams()) {
    const StreamSpec* cur = findStream(current, s.name);
    if (cur != nullptr && sameEndpoint(cur->producer, s.producer) &&
        sameEndpoint(cur->consumer, s.consumer) && cur->buffer_bytes == s.buffer_bytes) {
      d.streams_kept.push_back(s.name);
    } else {
      d.streams_added.push_back(s);
    }
  }
  for (const StreamSpec& s : current.streams()) {
    const StreamSpec* tgt = findStream(target, s.name);
    if (tgt == nullptr || !sameEndpoint(tgt->producer, s.producer) ||
        !sameEndpoint(tgt->consumer, s.consumer) || tgt->buffer_bytes != s.buffer_bytes) {
      d.streams_removed.push_back(s.name);
    }
  }

  return d;
}

void checkTransition(EclipseInstance& inst, const GraphSpec& current, const GraphSpec& target,
                     const GraphDiff& d, const Released& released) {
  const std::string owner = "GraphSpec '" + target.name() + "'";
  auto fail = [&owner](const std::string& msg) { throw GraphSpecError(owner + ": " + msg); };

  target.validateStructure();

  std::map<std::string, shell::Shell*> task_shell;
  for (const TaskSpec& t : target.tasks()) {
    shell::Shell* sh = inst.findShell(t.shell);
    if (sh == nullptr) fail("task '" + t.name + "' names unknown shell '" + t.shell + "'");
    task_shell[t.name] = sh;
    if (const TaskSpec* cur = current.findTask(t.name)) {
      checkSameTask(owner, *cur, current.name(), t, target.name());
      continue;
    }
    const bool is_cpu = inst.softCpuAt(*sh) != nullptr;
    if (is_cpu && !t.software) {
      fail("task '" + t.name + "' runs on software shell '" + t.shell +
           "' but has no software step handler");
    }
    if (!is_cpu && t.software) {
      fail("task '" + t.name + "' binds a software step to hardware shell '" + t.shell + "'");
    }
  }
  const std::uint32_t line = inst.params().cache_line_bytes;
  for (const StreamSpec& s : target.streams()) {
    if (s.buffer_bytes == 0 || s.buffer_bytes % line != 0) {
      fail("stream '" + s.name + "' buffer of " + std::to_string(s.buffer_bytes) +
           " bytes is not a positive multiple of the " + std::to_string(line) +
           "-byte cache line");
    }
  }

  // Capacity per shell once the removed elements are returned. Rows are
  // counted from the tables directly, not over the PI-bus, so the check
  // adds no configuring traffic. Shells are visited in id order.
  struct Capacity {
    std::uint32_t free = 0;
    std::uint32_t needed = 0;
  };
  auto by_id = [](const shell::Shell* a, const shell::Shell* b) { return a->id() < b->id(); };
  std::map<const shell::Shell*, Capacity, decltype(by_id)> slots(by_id);
  std::map<const shell::Shell*, Capacity, decltype(by_id)> rows(by_id);
  for (const TaskSpec& t : d.tasks_added) ++slots[task_shell.at(t.name)].needed;
  for (const shell::Shell* sh : released.task_slots) ++slots[sh].free;
  for (auto& [sh, c] : slots) {
    c.free += inst.freeTaskSlots(*sh);
    if (c.needed > c.free) {
      fail("shell '" + sh->name() + "' has " + std::to_string(c.free) + " free task slots, " +
           std::to_string(c.needed) + " needed");
    }
  }
  for (const StreamSpec& s : d.streams_added) {
    ++rows[task_shell.at(s.producer.task)].needed;
    ++rows[task_shell.at(s.consumer.task)].needed;
  }
  for (const shell::Shell* sh : released.stream_rows) ++rows[sh].free;
  for (auto& [sh, c] : rows) {
    for (std::uint32_t i = 0; i < sh->streams().capacity(); ++i) {
      if (!sh->streams().row(i).valid) ++c.free;
    }
    if (c.needed > c.free) {
      fail("shell '" + sh->name() + "' has " + std::to_string(c.free) + " free stream rows, " +
           std::to_string(c.needed) + " needed");
    }
  }

  // SRAM: the allocator's own first fit, dry-run in target order, so a
  // total that fits but is split into holes too small is refused too.
  std::vector<std::uint32_t> fifos;
  for (const StreamSpec& s : d.streams_added) fifos.push_back(s.buffer_bytes);
  const std::size_t misfit = inst.sramFirstMisfit(released.buffers, fifos);
  if (misfit < fifos.size()) {
    fail("stream '" + d.streams_added[misfit].name + "' needs " +
         std::to_string(fifos[misfit]) +
         " bytes of SRAM and no free hole is that large (first fit, after the removed buffers "
         "are returned)");
  }
}

ModeSet& ModeSet::mode(GraphSpec spec) {
  if (find(spec.name()) != nullptr) {
    throw GraphSpecError("ModeSet '" + name_ + "': duplicate mode '" + spec.name() + "'");
  }
  modes_.push_back(std::move(spec));
  return *this;
}

const GraphSpec* ModeSet::find(std::string_view mode_name) const {
  for (const GraphSpec& g : modes_) {
    if (g.name() == mode_name) return &g;
  }
  return nullptr;
}

const GraphSpec& ModeSet::at(std::string_view mode_name) const {
  if (const GraphSpec* g = find(mode_name)) return *g;
  std::string known;
  for (const GraphSpec& g : modes_) {
    if (!known.empty()) known += ", ";
    known += g.name();
  }
  throw std::out_of_range("ModeSet '" + name_ + "': no mode named '" + std::string(mode_name) +
                          "' (known: " + known + ")");
}

void ModeSet::validate(EclipseInstance& inst) const {
  if (modes_.empty()) throw GraphSpecError("ModeSet '" + name_ + "': no modes");
  // The first mode that names a task pins its identity; every later mode
  // must agree with it.
  std::map<std::string, std::pair<const TaskSpec*, const GraphSpec*>> first;
  for (const GraphSpec& g : modes_) {
    g.validate(inst);
    for (const TaskSpec& t : g.tasks()) {
      const auto [it, fresh] = first.try_emplace(t.name, &t, &g);
      if (!fresh) {
        checkSameTask("ModeSet '" + name_ + "'", *it->second.first, it->second.second->name(), t,
                      g.name());
      }
    }
  }
}

}  // namespace eclipse::app
