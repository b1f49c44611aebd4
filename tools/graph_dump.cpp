// graph_dump: configures applications onto an Eclipse instance, then reads
// every shell's stream and task table back over the PI-bus — the same
// register path the configuring CPU uses — and renders what the *hardware*
// thinks the graphs look like as Graphviz DOT and JSON. Because the dump is
// reconstructed purely from MMIO reads, it is an end-to-end check of the
// register map shared by AppHandle and the shells: a field that AppHandle
// writes to the wrong word shows up here as a broken edge.
//
// Usage: graph_dump [--dot FILE] [--json FILE] [--run] [--demo-fault]
//                   [--modes]
//   --run         simulate to completion first, so the measurement registers
//                 (bytes transferred, busy cycles) carry real traffic.
//   --demo-fault  latch a fault on the VLD task before dumping, so the
//                 fault-rendering path (salmon node, fault registers in the
//                 JSON) can be exercised and eyeballed without an injector.
//   --modes       run a multi-mode decode through a live SD->HD segment
//                 switch and dump the re-bound graph: the active mode is
//                 rendered in the graph label, re-bound streams are
//                 highlighted blue, and the JSON carries the transition
//                 stats and the diffed stream names.

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "eclipse/app/audio_app.hpp"
#include "eclipse/app/configurator.hpp"
#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/mode_set.hpp"
#include "eclipse/eclipse.hpp"

using namespace eclipse;
namespace mmio = eclipse::app::mmio;

namespace {

struct StreamRowDump {
  std::uint32_t row = 0;
  std::uint32_t task = 0, port = 0, is_producer = 0;
  std::uint32_t base = 0, size = 0, space = 0;
  std::uint32_t remote_shell = 0, remote_row = 0, granted = 0;
  std::uint64_t bytes = 0;
  std::uint32_t stalled = 0;
  std::uint64_t stall_cycle = 0;
};

struct TaskRowDump {
  std::uint32_t slot = 0;
  std::uint32_t enabled = 0, budget = 0, info = 0;
  std::uint64_t busy = 0;
  std::uint32_t blocked = 0;
  std::uint32_t faulted = 0, fault_cause = 0, fault_row = 0, fault_count = 0;
  std::uint64_t fault_cycle = 0;
};

struct ShellDump {
  std::string name;
  std::uint32_t id = 0;
  std::vector<StreamRowDump> streams;
  std::vector<TaskRowDump> tasks;
};

/// Reads one shell's tables back through the PI-bus register window.
ShellDump dumpShell(mem::PiBus& bus, const shell::Shell& sh) {
  ShellDump d;
  d.name = sh.name();
  d.id = sh.id();
  const auto sreg = [&](std::uint32_t row, std::uint32_t f) {
    return bus.read(mmio::streamReg(sh, row, f));
  };
  const auto treg = [&](std::uint32_t slot, std::uint32_t f) {
    return bus.read(mmio::taskReg(sh, static_cast<sim::TaskId>(slot), f));
  };
  for (std::uint32_t row = 0; row < sh.params().max_streams; ++row) {
    if (sreg(row, mmio::kStreamValid) == 0) continue;
    StreamRowDump r;
    r.row = row;
    r.task = sreg(row, mmio::kStreamTask);
    r.port = sreg(row, mmio::kStreamPort);
    r.is_producer = sreg(row, mmio::kStreamIsProducer);
    r.base = sreg(row, mmio::kStreamBase);
    r.size = sreg(row, mmio::kStreamSize);
    r.space = sreg(row, mmio::kStreamSpace);
    r.remote_shell = sreg(row, mmio::kStreamRemoteShell);
    r.remote_row = sreg(row, mmio::kStreamRemoteRow);
    r.granted = sreg(row, mmio::kStreamGranted);
    r.bytes = sreg(row, mmio::kStreamBytesLo) |
              (static_cast<std::uint64_t>(sreg(row, mmio::kStreamBytesHi)) << 32);
    r.stalled = sreg(row, mmio::kStreamStalled);
    r.stall_cycle = sreg(row, mmio::kStreamStallCycleLo) |
                    (static_cast<std::uint64_t>(sreg(row, mmio::kStreamStallCycleHi)) << 32);
    d.streams.push_back(r);
  }
  for (std::uint32_t slot = 0; slot < sh.params().max_tasks; ++slot) {
    if (treg(slot, mmio::kTaskValid) == 0) continue;
    TaskRowDump t;
    t.slot = slot;
    t.enabled = treg(slot, mmio::kTaskEnabled);
    t.budget = treg(slot, mmio::kTaskBudget);
    t.info = treg(slot, mmio::kTaskInfo);
    t.busy = treg(slot, mmio::kTaskBusyLo) |
             (static_cast<std::uint64_t>(treg(slot, mmio::kTaskBusyHi)) << 32);
    t.blocked = treg(slot, mmio::kTaskBlocked);
    t.faulted = treg(slot, mmio::kTaskFaulted);
    t.fault_cause = treg(slot, mmio::kTaskFaultCause);
    t.fault_row = treg(slot, mmio::kTaskFaultRow);
    t.fault_count = treg(slot, mmio::kTaskFaultCount);
    t.fault_cycle = treg(slot, mmio::kTaskFaultCycleLo) |
                    (static_cast<std::uint64_t>(treg(slot, mmio::kTaskFaultCycleHi)) << 32);
    d.tasks.push_back(t);
  }
  return d;
}

std::string nodeId(std::uint32_t shell_id, std::uint32_t task) {
  return "s" + std::to_string(shell_id) + "_t" + std::to_string(task);
}

/// Diff annotations for a --modes dump: which hardware rows the live
/// transition re-bound or added, plus the mode names and transition stats.
struct ModeAnnotations {
  std::string active, from;
  app::TransitionStats st;
  std::set<std::pair<std::uint32_t, std::uint32_t>> diff_edges;  // (shell, producer row)
  std::set<std::pair<std::uint32_t, std::uint32_t>> diff_tasks;  // (shell, slot)
  std::vector<std::string> rebound_streams, kept_streams;
};

void emitDot(std::FILE* f, const std::vector<ShellDump>& shells,
             const ModeAnnotations* mode = nullptr) {
  std::map<std::uint32_t, const ShellDump*> by_id;
  for (const auto& s : shells) by_id[s.id] = &s;

  std::fprintf(f, "digraph eclipse {\n  rankdir=LR;\n  node [shape=box];\n");
  if (mode != nullptr) {
    std::fprintf(f, "  labelloc=t;\n  label=\"active mode: %s (diff from %s — %u streams re-bound, %u kept)\";\n",
                 mode->active.c_str(), mode->from.c_str(), mode->st.streams_removed,
                 mode->st.streams_kept);
  }
  for (const auto& s : shells) {
    if (s.tasks.empty()) continue;
    std::fprintf(f, "  subgraph \"cluster_%s\" {\n    label=\"%s\";\n", s.name.c_str(),
                 s.name.c_str());
    for (const auto& t : s.tasks) {
      // Faulted tasks are filled salmon and labeled with the latched cause;
      // merely-disabled tasks stay dashed.
      const bool diffed =
          mode != nullptr && mode->diff_tasks.count({s.id, t.slot}) != 0;
      if (t.faulted != 0) {
        std::fprintf(f, "    %s [label=\"t%u (%s)\" style=filled fillcolor=salmon];\n",
                     nodeId(s.id, t.slot).c_str(), t.slot,
                     shell::faultCauseName(static_cast<shell::FaultCause>(t.fault_cause)));
      } else if (diffed) {
        std::fprintf(f, "    %s [label=\"t%u (diff)\" style=filled fillcolor=lightblue];\n",
                     nodeId(s.id, t.slot).c_str(), t.slot);
      } else {
        std::fprintf(f, "    %s [label=\"t%u%s\"%s];\n", nodeId(s.id, t.slot).c_str(), t.slot,
                     t.enabled != 0 ? "" : " (off)", t.enabled != 0 ? "" : " style=dashed");
      }
    }
    std::fprintf(f, "  }\n");
  }
  // One edge per producer row: its remote link names the consumer row, and
  // the consumer row's task field names the destination task slot.
  for (const auto& s : shells) {
    for (const auto& r : s.streams) {
      if (r.is_producer == 0) continue;
      const auto it = by_id.find(r.remote_shell);
      if (it == by_id.end()) continue;
      const ShellDump& cs = *it->second;
      std::uint32_t ctask = 0;
      std::uint32_t cstalled = 0;
      for (const auto& cr : cs.streams) {
        if (cr.row == r.remote_row) {
          ctask = cr.task;
          cstalled = cr.stalled;
        }
      }
      // A watchdog stall latch on either side paints the edge orange; a
      // stream the last mode transition re-bound is painted blue.
      const bool stalled = r.stalled != 0 || cstalled != 0;
      const bool rebound =
          mode != nullptr && mode->diff_edges.count({s.id, r.row}) != 0;
      std::string label = std::to_string(r.size) + " B";
      if (stalled) label += " STALL";
      if (rebound) label += " REBOUND";
      const char* color = stalled ? " color=orange penwidth=2"
                                  : (rebound ? " color=blue penwidth=2" : "");
      std::fprintf(f, "  %s -> %s [label=\"%s\"%s];\n", nodeId(s.id, r.task).c_str(),
                   nodeId(cs.id, ctask).c_str(), label.c_str(), color);
    }
  }
  std::fprintf(f, "}\n");
}

void emitJson(std::FILE* f, const std::vector<ShellDump>& shells,
              const ModeAnnotations* mode = nullptr) {
  std::fprintf(f, "{\n  \"schema\": \"eclipse-graph-dump-v1\",\n");
  if (mode != nullptr) {
    std::fprintf(f,
                 "  \"mode\": {\"active\": \"%s\", \"from\": \"%s\", "
                 "\"transition\": {\"mmio_writes\": %llu, \"mmio_reads\": %llu, "
                 "\"cycles\": %llu, \"tasks_kept\": %u, \"streams_kept\": %u, "
                 "\"streams_rebound\": %u},\n",
                 mode->active.c_str(), mode->from.c_str(),
                 static_cast<unsigned long long>(mode->st.mmio_writes),
                 static_cast<unsigned long long>(mode->st.mmio_reads),
                 static_cast<unsigned long long>(mode->st.cycles), mode->st.tasks_kept,
                 mode->st.streams_kept, mode->st.streams_removed);
    std::fprintf(f, "    \"rebound_streams\": [");
    for (std::size_t i = 0; i < mode->rebound_streams.size(); ++i) {
      std::fprintf(f, "\"%s\"%s", mode->rebound_streams[i].c_str(),
                   i + 1 < mode->rebound_streams.size() ? ", " : "");
    }
    std::fprintf(f, "], \"kept_streams\": [");
    for (std::size_t i = 0; i < mode->kept_streams.size(); ++i) {
      std::fprintf(f, "\"%s\"%s", mode->kept_streams[i].c_str(),
                   i + 1 < mode->kept_streams.size() ? ", " : "");
    }
    std::fprintf(f, "]},\n");
  }
  std::fprintf(f, "  \"shells\": [\n");
  for (std::size_t i = 0; i < shells.size(); ++i) {
    const ShellDump& s = shells[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"id\": %u,\n      \"streams\": [", s.name.c_str(),
                 s.id);
    for (std::size_t j = 0; j < s.streams.size(); ++j) {
      const StreamRowDump& r = s.streams[j];
      std::fprintf(f,
                   "%s\n        {\"row\": %u, \"task\": %u, \"port\": %u, "
                   "\"is_producer\": %u, \"base\": %u, \"size\": %u, \"space\": %u, "
                   "\"remote_shell\": %u, \"remote_row\": %u, \"granted\": %u, "
                   "\"bytes_transferred\": %llu, \"stalled\": %u, \"stall_cycle\": %llu}",
                   j == 0 ? "" : ",", r.row, r.task, r.port, r.is_producer, r.base, r.size,
                   r.space, r.remote_shell, r.remote_row, r.granted,
                   static_cast<unsigned long long>(r.bytes), r.stalled,
                   static_cast<unsigned long long>(r.stall_cycle));
    }
    std::fprintf(f, "%s],\n      \"tasks\": [", s.streams.empty() ? "" : "\n      ");
    for (std::size_t j = 0; j < s.tasks.size(); ++j) {
      const TaskRowDump& t = s.tasks[j];
      std::fprintf(f,
                   "%s\n        {\"slot\": %u, \"enabled\": %u, \"budget\": %u, "
                   "\"info\": %u, \"busy_cycles\": %llu, \"blocked_count\": %u, "
                   "\"faulted\": %u, \"fault_cause\": \"%s\", \"fault_cycle\": %llu, "
                   "\"fault_row\": %u, \"fault_count\": %u}",
                   j == 0 ? "" : ",", t.slot, t.enabled, t.budget, t.info,
                   static_cast<unsigned long long>(t.busy), t.blocked, t.faulted,
                   shell::faultCauseName(static_cast<shell::FaultCause>(t.fault_cause)),
                   static_cast<unsigned long long>(t.fault_cycle), t.fault_row, t.fault_count);
    }
    std::fprintf(f, "%s]\n    }%s\n", s.tasks.empty() ? "" : "\n      ",
                 i + 1 < shells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string dot_path = "graph.dot";
  std::string json_path = "graph.json";
  bool run = false;
  bool demo_fault = false;
  bool modes = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--run") == 0) {
      run = true;
    } else if (std::strcmp(argv[i], "--demo-fault") == 0) {
      demo_fault = true;
    } else if (std::strcmp(argv[i], "--modes") == 0) {
      modes = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--dot FILE] [--json FILE] [--run] [--demo-fault] [--modes]\n",
                   argv[0]);
      return 2;
    }
  }

  app::EclipseInstance inst;
  std::unique_ptr<app::DecodeApp> dec;
  std::unique_ptr<app::AudioDecodeApp> aud;
  ModeAnnotations ann;

  if (modes) {
    // A multi-mode decode driven through a live SD->HD segment switch; the
    // dump shows the hardware's view of the re-bound graph mid-transition
    // annotated with what the diff touched.
    const auto sd = bench::makeWorkload(96, 80, 2);
    const auto hd = bench::makeWorkload(128, 96, 2);
    app::DecodeAppConfig hd_cfg;
    hd_cfg.coef_buffer = 6144;
    hd_cfg.blocks_buffer = 3072;
    hd_cfg.res_buffer = 3072;
    hd_cfg.pix_buffer = 3072;
    dec = std::make_unique<app::DecodeApp>(
        inst, sd.bitstream,
        std::vector<app::DecodeApp::Mode>{{"sd", app::DecodeAppConfig{}}, {"hd", hd_cfg}});
    inst.run();
    if (!dec->done()) {
      std::fprintf(stderr, "graph_dump: SD segment did not complete\n");
      return 1;
    }
    const app::GraphDiff diff = app::diffGraphs(dec->modes().at("sd"), dec->modes().at("hd"));
    ann.from = dec->currentMode();
    ann.st = dec->switchSegment("hd", hd.bitstream);
    ann.active = dec->currentMode();
    std::set<std::string> touched_tasks(diff.tasks_updated.begin(), diff.tasks_updated.end());
    for (const app::TaskSpec& t : diff.tasks_added) touched_tasks.insert(t.name);
    for (const app::AppTask& t : dec->handle().tasks()) {
      if (touched_tasks.count(t.spec.name) != 0) {
        ann.diff_tasks.insert({t.shell->id(), static_cast<std::uint32_t>(t.id)});
      }
    }
    const std::set<std::string> added(diff.streams_removed.begin(), diff.streams_removed.end());
    for (const app::AppStream& s : dec->handle().streams()) {
      if (added.count(s.spec.name) != 0) {
        ann.diff_edges.insert({s.producer_shell->id(), s.producer_row});
        ann.rebound_streams.push_back(s.spec.name);
      } else {
        ann.kept_streams.push_back(s.spec.name);
      }
    }
    if (run) {
      inst.run();
      if (!dec->done()) {
        std::fprintf(stderr, "graph_dump: HD segment did not complete\n");
        return 1;
      }
    }
  } else {
    // Two concurrent applications — a hardware video decode and a software
    // audio decode — so the dump shows multi-application tables.
    const auto w = bench::makeWorkload(96, 80, 2);
    dec = std::make_unique<app::DecodeApp>(inst, w.bitstream);
    aud = std::make_unique<app::AudioDecodeApp>(
        inst, media::audio::encode(media::audio::generateTone(2048, 7)));
    if (run) {
      inst.run();
      if (!dec->done() || !aud->done()) {
        std::fprintf(stderr, "graph_dump: applications did not complete\n");
        return 1;
      }
    }
  }
  if (demo_fault) {
    inst.vldShell().latchFault(dec->vldTask(), shell::FaultCause::Injected, /*row=*/0,
                               "demo fault for rendering");
  }

  std::vector<ShellDump> shells;
  std::size_t valid_tasks = 0, valid_streams = 0;
  for (const auto& sh : inst.shells()) {
    shells.push_back(dumpShell(inst.piBus(), *sh));
    valid_tasks += shells.back().tasks.size();
    valid_streams += shells.back().streams.size();
  }
  if (valid_tasks == 0 || valid_streams == 0) {
    std::fprintf(stderr, "graph_dump: tables read back empty over the PI-bus\n");
    return 1;
  }

  std::FILE* fd = std::fopen(dot_path.c_str(), "w");
  std::FILE* fj = std::fopen(json_path.c_str(), "w");
  if (fd == nullptr || fj == nullptr) {
    std::fprintf(stderr, "graph_dump: cannot open output files\n");
    return 1;
  }
  emitDot(fd, shells, modes ? &ann : nullptr);
  emitJson(fj, shells, modes ? &ann : nullptr);
  std::fclose(fd);
  std::fclose(fj);
  std::fprintf(stderr, "graph_dump: %zu tasks, %zu stream rows across %zu shells -> %s, %s\n",
               valid_tasks, valid_streams, shells.size(), dot_path.c_str(), json_path.c_str());
  return 0;
}
