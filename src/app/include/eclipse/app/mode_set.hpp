#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eclipse/app/graph_spec.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::shell {
class Shell;
}

namespace eclipse::app {

class EclipseInstance;

/// Element-level delta between two application graphs, computed by name.
///
/// A task keeps its identity (shell placement, task slot, software
/// registration) across modes when both graphs name it; only its scalar
/// table fields (budget, info, enable) may differ ("updated"). A stream is
/// kept — its table rows and SRAM buffer untouched by a transition — only
/// when name, both endpoints (task and port) and the buffer size all
/// match; any other change re-binds it as a remove+add pair.
struct GraphDiff {
  std::vector<TaskSpec> tasks_added;        ///< in target only
  std::vector<std::string> tasks_removed;   ///< in current only
  std::vector<std::string> tasks_updated;   ///< kept, scalar fields differ
  std::vector<std::string> tasks_kept;      ///< kept, scalar fields equal
  std::vector<StreamSpec> streams_added;    ///< programmed fresh
  std::vector<std::string> streams_removed; ///< drained, rows invalidated
  std::vector<std::string> streams_kept;    ///< rows and buffer reused in place

  /// True when the transition must drain and re-bind stream rows (any
  /// stream added or removed); false for field-only transitions, which
  /// never pause the graph.
  [[nodiscard]] bool touchesStreams() const {
    return !streams_added.empty() || !streams_removed.empty();
  }

  [[nodiscard]] bool empty() const {
    return tasks_added.empty() && tasks_removed.empty() && tasks_updated.empty() &&
           streams_added.empty() && streams_removed.empty();
  }
};

/// Computes the task/stream delta between two graphs (see GraphDiff).
[[nodiscard]] GraphDiff diffGraphs(const GraphSpec& current, const GraphSpec& target);

/// What a transition gives back before it allocates: the shell of every
/// removed task slot and of every removed stream row, and every removed
/// stream's SRAM buffer (base, bytes).
struct Released {
  std::vector<const shell::Shell*> task_slots;
  std::vector<const shell::Shell*> stream_rows;
  std::vector<std::pair<sim::Addr, std::uint32_t>> buffers;
};

/// The admission check of a transition from `current` (placed on `inst`)
/// to `target`, with `d` = diffGraphs(current, target); it reads no
/// register over the PI-bus and changes nothing. `target` must pass
/// validateStructure(); every task must name a known shell with a
/// matching software binding; a task both graphs name must keep its shell
/// and its software/hardware binding (the task-identity rule
/// ModeSet::validate applies too); every buffer must be a positive
/// cache-line multiple; and the added elements must fit once `released`
/// is returned: task slots and free stream rows counted per shell, added
/// FIFOs placed first-fit in target order on a copy of the SRAM free
/// list. Throws GraphSpecError naming the offending element.
/// GraphSpec::validate is this check from the empty graph.
void checkTransition(EclipseInstance& inst, const GraphSpec& current, const GraphSpec& target,
                     const GraphDiff& d, const Released& released);

/// Cost record of one live mode transition (AppHandle::switchTo):
/// simulated cycles spent draining the affected subgraph plus every PI-bus
/// access the transition issued — the paper-level "mode transition delay"
/// metric the bench compares against a cold teardown+relaunch.
struct TransitionStats {
  std::string from;               ///< mode name before the transition
  std::string to;                 ///< mode name after the transition
  sim::Cycle cycles = 0;          ///< simulated cycles (partial drain)
  std::uint64_t mmio_writes = 0;  ///< PI-bus writes issued
  std::uint64_t mmio_reads = 0;   ///< PI-bus reads issued (quiescence polls)
  std::uint32_t tasks_added = 0;
  std::uint32_t tasks_removed = 0;
  std::uint32_t tasks_updated = 0;
  std::uint32_t tasks_kept = 0;
  std::uint32_t streams_added = 0;
  std::uint32_t streams_removed = 0;
  std::uint32_t streams_kept = 0;
  bool drained = false;  ///< a partial drain ran (false for field-only diffs)
};

/// A validated family of application graphs over shared shells — the
/// multi-mode application model: one AppHandle, several named GraphSpecs
/// ("sd", "hd", "degraded", ...), live diff-based transitions between them
/// via AppHandle::switchTo. Mode names are the GraphSpec names.
class ModeSet {
 public:
  explicit ModeSet(std::string name = "modes") : name_(std::move(name)) {}

  /// Adds a mode; the spec's name is the mode name. Throws GraphSpecError
  /// on a duplicate. Returns *this for fluent building.
  ModeSet& mode(GraphSpec spec);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<GraphSpec>& modes() const { return modes_; }

  /// Mode by name; nullptr when absent.
  [[nodiscard]] const GraphSpec* find(std::string_view mode_name) const;
  /// Mode by name; throws std::out_of_range when absent.
  [[nodiscard]] const GraphSpec& at(std::string_view mode_name) const;

  /// Static validation before any MMIO write happens: every mode passes
  /// GraphSpec::validate against the instance, and a task name shared by
  /// two modes keeps its shell and its software/hardware binding, because
  /// a transition keeps the task slot in place and only rewrites scalar
  /// fields (the identity rule switches check too). Throws GraphSpecError.
  void validate(EclipseInstance& inst) const;

 private:
  std::string name_;
  std::vector<GraphSpec> modes_;
};

}  // namespace eclipse::app
