// Kernel perf harness: runs the event-kernel benchmarks under a wall-clock
// timer and writes BENCH_kernel.json, so the simulator's perf trajectory is
// tracked from PR to PR (see README.md for the format). Unlike the
// google-benchmark micro suite this runner is dependency-free, emits
// machine-readable output, and has a --smoke mode cheap enough for CI.
//
// Usage: bench_json [--out FILE] [--repeats N] [--smoke]
//                   [--transport | --reconfig | --faults | --farm | --media
//                    | --modes | --serve]

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "decode_pin.hpp"
#include "eclipse/app/configurator.hpp"
#include "eclipse/app/decode_app.hpp"
#include "eclipse/eclipse.hpp"
#include "eclipse/media/kernels.hpp"
#include "eclipse/coproc/vld.hpp"
#include "eclipse/media/vlc.hpp"
#include "eclipse/serve/client.hpp"
#include "eclipse/serve/jobspec.hpp"
#include "eclipse/serve/server.hpp"
#include "eclipse/sim/prng.hpp"
#include "eclipse/sim/sim_event.hpp"

using namespace eclipse;
using sim::Cycle;

namespace {

struct Result {
  std::string name;
  std::uint64_t events = 0;      // kernel events dispatched per run
  std::uint64_t sim_cycles = 0;  // simulated cycles per run (0 if n/a)
  double wall_s = 0;             // best wall time over repeats
  int repeats = 0;
};

double seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Runs `fn` (which returns {events, sim_cycles}) `repeats` times and keeps
/// the fastest wall time — the standard minimum-of-N noise filter.
template <typename Fn>
Result measure(std::string name, int repeats, Fn&& fn) {
  Result r;
  r.name = std::move(name);
  r.repeats = repeats;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto [events, cycles] = fn();
    const double dt = seconds(t0);
    if (i == 0 || dt < r.wall_s) r.wall_s = dt;
    r.events = events;
    r.sim_cycles = cycles;
  }
  return r;
}

sim::Task<void> storm(sim::Simulator& sim, Cycle stride, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(stride);
}

sim::Task<void> fanoutWaiter(sim::SimEvent& ev, int rounds, std::uint64_t& wakes) {
  for (int i = 0; i < rounds; ++i) {
    co_await ev.wait();
    ++wakes;
  }
}

sim::Task<void> fanoutNotifier(sim::Simulator& sim, sim::SimEvent& ev, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.delay(1);
    ev.notifyAll();
  }
}

sim::Task<void> semWorker(sim::Simulator& sim, sim::Semaphore& sem, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sem.acquire();
    sim::SemaphoreGuard guard(sem);
    co_await sim.delay(2);
  }
}

std::pair<std::uint64_t, std::uint64_t> runPureDelayStorm(int hops) {
  sim::Simulator sim;
  for (int p = 0; p < 64; ++p) {
    sim.spawn(storm(sim, static_cast<Cycle>(p % 13) + 1, hops), "storm");
  }
  const Cycle end = sim.run();
  return {sim.eventsDispatched(), end};
}

std::pair<std::uint64_t, std::uint64_t> runLongDelayStorm(int hops) {
  sim::Simulator sim;
  for (int p = 0; p < 64; ++p) {
    sim.spawn(storm(sim, static_cast<Cycle>(4096 + 977 * p), hops), "far");
  }
  const Cycle end = sim.run();
  return {sim.eventsDispatched(), end};
}

std::pair<std::uint64_t, std::uint64_t> runMixedFanout(int rounds) {
  sim::Simulator sim;
  sim::SimEvent ev(sim);
  sim::Semaphore sem(sim, 4);
  std::uint64_t wakes = 0;
  for (int p = 0; p < 32; ++p) sim.spawn(fanoutWaiter(ev, rounds, wakes), "waiter");
  sim.spawn(fanoutNotifier(sim, ev, rounds), "notifier");
  for (int p = 0; p < 16; ++p) sim.spawn(semWorker(sim, sem, rounds), "sem");
  const Cycle end = sim.run();
  return {sim.eventsDispatched(), end};
}

std::pair<std::uint64_t, std::uint64_t> runCallbackDispatch(int count) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  for (int i = 0; i < count; ++i) {
    sim.schedule(static_cast<Cycle>(i % 97), [&sink] { ++sink; });
  }
  const Cycle end = sim.run();
  if (sink != static_cast<std::uint64_t>(count)) std::fprintf(stderr, "warning: lost callbacks\n");
  return {sim.eventsDispatched(), end};
}

/// Transport scenario: the standard timed decode, reported as wall-clock
/// plus the simulated bytes that crossed coprocessor ports (the sum of
/// every shell stream row's bytes_transferred counter). bytes/host-second
/// is the figure of merit for the zero-copy transport path: the simulated
/// traffic is pinned by the timing model, so only host efficiency moves it.
struct TransportResult {
  std::uint64_t events = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t bytes_moved = 0;  // simulated port traffic, both directions
  double wall_s = 0;
  int repeats = 0;
};

TransportResult runTransport(bool smoke, int repeats) {
  const auto w = eclipse::bench::makeWorkload(96, 80, smoke ? 2 : 5);
  TransportResult r;
  r.repeats = repeats;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    const Cycle cycles = inst.run();
    const double dt = seconds(t0);
    if (!dec.done()) std::fprintf(stderr, "warning: decode incomplete\n");
    std::uint64_t bytes = 0;
    for (const auto& sh : inst.shells()) {
      const auto& table = sh->streams();
      for (std::uint32_t row = 0; row < table.capacity(); ++row) {
        if (table.row(row).valid) bytes += table.row(row).bytes_transferred;
      }
    }
    if (i == 0 || dt < r.wall_s) r.wall_s = dt;
    r.events = inst.simulator().eventsDispatched();
    r.sim_cycles = cycles;
    r.bytes_moved = bytes;  // deterministic: identical every repeat
  }
  return r;
}

void emitTransport(std::FILE* f, const TransportResult& r) {
  const double bps = r.wall_s > 0 ? static_cast<double>(r.bytes_moved) / r.wall_s : 0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-transport-v1\",\n");
  std::fprintf(f, "  \"scenario\": \"timed_decode\",\n");
  std::fprintf(f, "  \"events\": %llu,\n", static_cast<unsigned long long>(r.events));
  std::fprintf(f, "  \"sim_cycles\": %llu,\n", static_cast<unsigned long long>(r.sim_cycles));
  std::fprintf(f, "  \"bytes_moved\": %llu,\n", static_cast<unsigned long long>(r.bytes_moved));
  std::fprintf(f, "  \"wall_s\": %.6f,\n", r.wall_s);
  std::fprintf(f, "  \"bytes_per_host_sec\": %.0f,\n", bps);
  std::fprintf(f, "  \"repeats\": %d\n", r.repeats);
  std::fprintf(f, "}\n");
}

/// Reconfiguration scenario: how fast the control plane can (re)wire the
/// subsystem. One instance stays live while a decode-shaped graph (the four
/// hardware tasks and their internal streams, scheduler-disabled, no sink
/// shell so the shell set stays fixed) is configured and torn down over and
/// over through the PI-bus. Wall time is the host cost of a mode change;
/// the MMIO counts are the simulated cost a real CPU would pay in register
/// traffic. SRAM free bytes must return to the starting value every cycle —
/// a leak in the allocator free-list fails the run.
struct ReconfigResult {
  int cycles = 0;           // launch/teardown round trips measured
  std::size_t tasks = 0;    // graph size, for context
  std::size_t streams = 0;
  double configure_s = 0;   // best wall time of one Configurator::apply
  double teardown_s = 0;    // best wall time of one AppHandle::teardown
  std::uint64_t mmio_writes_configure = 0;  // PI-bus writes per apply
  std::uint64_t mmio_reads_configure = 0;   // PI-bus reads per apply (row scans)
  std::uint64_t mmio_writes_teardown = 0;
};

app::GraphSpec reconfigSpec() {
  const app::DecodeAppConfig cfg;
  app::GraphSpec g("reconfig-probe");
  g.task({.name = "vld",
          .shell = "vld",
          .budget_cycles = cfg.budget_cycles,
          .enabled = false,
          .source = true,
          .software = {}})
      .task({.name = "rlsq",
             .shell = "rlsq",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .software = {}})
      .task({.name = "idct",
             .shell = "dct",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .software = {}})
      .task({.name = "mc",
             .shell = "mc",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .software = {}});
  g.stream("coef", "vld", coproc::VldCoproc::kOutCoef, "rlsq", coproc::RlsqCoproc::kIn,
           cfg.coef_buffer)
      .stream("hdr", "vld", coproc::VldCoproc::kOutHdr, "mc", coproc::McCoproc::kInHdr,
              cfg.hdr_buffer)
      .stream("blocks", "rlsq", coproc::RlsqCoproc::kOut, "idct", coproc::DctCoproc::kIn,
              cfg.blocks_buffer)
      .stream("res", "idct", coproc::DctCoproc::kOut, "mc", coproc::McCoproc::kInRes,
              cfg.res_buffer);
  return g;
}

ReconfigResult runReconfig(bool smoke) {
  const int cycles = smoke ? 20 : 200;
  const app::GraphSpec spec = reconfigSpec();

  app::EclipseInstance inst;
  mem::PiBus& bus = inst.piBus();
  const std::size_t sram_free_initial = inst.sramBytesFree();

  ReconfigResult r;
  r.cycles = cycles;
  r.tasks = spec.tasks().size();
  r.streams = spec.streams().size();
  for (int i = 0; i < cycles; ++i) {
    const std::uint64_t w0 = bus.writeCount();
    const std::uint64_t rd0 = bus.readCount();
    const auto t0 = std::chrono::steady_clock::now();
    app::Configurator configurator(inst);
    app::AppHandle h = configurator.apply(spec);
    const double dt_cfg = seconds(t0);
    const std::uint64_t w1 = bus.writeCount();
    const std::uint64_t rd1 = bus.readCount();

    const auto t1 = std::chrono::steady_clock::now();
    h.teardown();
    const double dt_td = seconds(t1);

    if (i == 0 || dt_cfg < r.configure_s) r.configure_s = dt_cfg;
    if (i == 0 || dt_td < r.teardown_s) r.teardown_s = dt_td;
    r.mmio_writes_configure = w1 - w0;  // deterministic: identical every cycle
    r.mmio_reads_configure = rd1 - rd0;
    r.mmio_writes_teardown = bus.writeCount() - w1;

    if (inst.sramBytesFree() != sram_free_initial) {
      std::fprintf(stderr, "bench_json: SRAM leak after teardown cycle %d (%zu != %zu)\n", i,
                   inst.sramBytesFree(), sram_free_initial);
      std::exit(1);
    }
  }
  return r;
}

void emitReconfig(std::FILE* f, const ReconfigResult& r) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-reconfig-v1\",\n");
  std::fprintf(f, "  \"scenario\": \"decode_shaped_launch_teardown\",\n");
  std::fprintf(f, "  \"graph_tasks\": %zu,\n", r.tasks);
  std::fprintf(f, "  \"graph_streams\": %zu,\n", r.streams);
  std::fprintf(f, "  \"cycles\": %d,\n", r.cycles);
  std::fprintf(f, "  \"configure_wall_us\": %.3f,\n", r.configure_s * 1e6);
  std::fprintf(f, "  \"teardown_wall_us\": %.3f,\n", r.teardown_s * 1e6);
  std::fprintf(f, "  \"mmio_writes_per_configure\": %llu,\n",
               static_cast<unsigned long long>(r.mmio_writes_configure));
  std::fprintf(f, "  \"mmio_reads_per_configure\": %llu,\n",
               static_cast<unsigned long long>(r.mmio_reads_configure));
  std::fprintf(f, "  \"mmio_writes_per_teardown\": %llu\n",
               static_cast<unsigned long long>(r.mmio_writes_teardown));
  std::fprintf(f, "}\n");
}

/// Fault scenario: the robustness machinery's cost and detection latency.
/// Three guarantees are *checked*, not just reported: a null injector, an
/// armed-but-empty injector and an armed watchdog must all leave the
/// no-fault decode cycle count bit-identical. Then one run per fault class
/// measures cycles from injection to fault/stall latch (detect latency)
/// and — where a recovery policy exists — to clip completion.
struct FaultClassResult {
  std::string name;
  std::uint64_t inject_cycle = 0;  ///< cycle the fault fired
  std::uint64_t detect_cycle = 0;  ///< cycle the fault/stall register latched
  std::uint64_t end_cycle = 0;     ///< cycle the run stopped
  std::string outcome;             ///< recovered / starved / deadlocked / ...
  std::uint64_t frames_dropped = 0;
};

struct FaultsResult {
  std::uint64_t baseline_cycles = 0, baseline_events = 0;
  std::uint64_t disarmed_cycles = 0, disarmed_events = 0;
  std::uint64_t watchdog_cycles = 0, watchdog_events = 0;
  double baseline_wall_s = 0, watchdog_wall_s = 0;
  std::vector<FaultClassResult> classes;
};

FaultsResult runFaults(bool smoke) {
  const auto w = eclipse::bench::makeWorkload(96, 80, smoke ? 2 : 5);
  FaultsResult r;

  // Baseline: no injector at all.
  {
    const auto t0 = std::chrono::steady_clock::now();
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    r.baseline_cycles = inst.run();
    r.baseline_wall_s = seconds(t0);
    r.baseline_events = inst.simulator().eventsDispatched();
    if (!dec.done()) std::fprintf(stderr, "warning: baseline decode incomplete\n");
  }

  // Armed injector, empty plan: the branch-on-null becomes a real query on
  // every hook, but nothing may change in simulated time or event count.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    inst.armFaults(sim::FaultPlan{});
    r.disarmed_cycles = inst.run();
    r.disarmed_events = inst.simulator().eventsDispatched();
  }
  if (r.disarmed_cycles != r.baseline_cycles || r.disarmed_events != r.baseline_events) {
    std::fprintf(stderr, "bench_json: empty fault plan perturbed the decode (%llu/%llu vs %llu/%llu)\n",
                 static_cast<unsigned long long>(r.disarmed_cycles),
                 static_cast<unsigned long long>(r.disarmed_events),
                 static_cast<unsigned long long>(r.baseline_cycles),
                 static_cast<unsigned long long>(r.baseline_events));
    std::exit(1);
  }

  // Watchdog armed, generous timeout, no faults: the scan process adds
  // events but must not move a single cycle of the decode itself.
  {
    const auto t0 = std::chrono::steady_clock::now();
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    inst.armWatchdogs(/*timeout=*/1'000'000, /*period=*/256);
    r.watchdog_cycles = inst.run();
    r.watchdog_wall_s = seconds(t0);
    r.watchdog_events = inst.simulator().eventsDispatched();
    const app::AppHealth h = dec.handle().health();
    if (!h.faults.empty() || !h.stalls.empty()) {
      std::fprintf(stderr, "bench_json: watchdog false positive on a clean decode\n");
      std::exit(1);
    }
  }
  if (r.watchdog_cycles != r.baseline_cycles) {
    std::fprintf(stderr, "bench_json: armed watchdog changed the decode end cycle (%llu vs %llu)\n",
                 static_cast<unsigned long long>(r.watchdog_cycles),
                 static_cast<unsigned long long>(r.baseline_cycles));
    std::exit(1);
  }

  // Class 1: payload corruption with the decode recovery policy enabled —
  // detect at the downstream parse error, recover to clip completion.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    std::uint64_t detect = 0;
    dec.handle().onFault([&detect](const app::TaskFault& f) {
      if (detect == 0) detect = f.cycle;
    });
    dec.enableRecovery();
    sim::FaultPlan plan;
    sim::FaultSpec f;
    f.kind = sim::FaultKind::CorruptPayload;
    f.shell = inst.vldShell().id();
    f.task = dec.vldTask();
    f.port = coproc::VldCoproc::kOutCoef;
    // Corrupt every coefficient packet inside a bounded window: a single
    // flipped packet can decode to harmless garbage, but a saturated window
    // guarantees a parse fault, and the clean traffic afterwards lets the
    // recovery policy finish the clip.
    f.at_cycle = r.baseline_cycles / 4;
    f.until_cycle = r.baseline_cycles / 2;
    f.count = 0;
    f.xor_mask = 0xff;
    plan.faults.push_back(f);
    inst.armFaults(plan);
    const Cycle end = inst.run(r.baseline_cycles * 8);
    FaultClassResult c;
    c.name = "corrupt-payload";
    c.inject_cycle = inst.faults().triggers().empty() ? 0 : inst.faults().triggers()[0].cycle;
    c.detect_cycle = detect;
    c.end_cycle = end;
    c.outcome = dec.done() ? (detect != 0 ? "recovered" : "completed-harmless")
                           : app::quiescenceName(inst.classifyQuiescence());
    c.frames_dropped = dec.framesDropped();
    r.classes.push_back(c);
  }

  // Class 2: injected task hang, detected by the watchdog's step-overrun
  // check and latched as a Hang fault.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    sim::FaultPlan plan;
    sim::FaultSpec f;
    f.kind = sim::FaultKind::TaskHang;
    f.shell = inst.rlsqShell().id();
    f.task = dec.rlsqTask();
    f.at_cycle = r.baseline_cycles / 4;
    f.delay_cycles = r.baseline_cycles * 4;
    plan.faults.push_back(f);
    inst.armFaults(plan);
    inst.armWatchdogs(/*timeout=*/20'000, /*period=*/256);
    const Cycle end = inst.run(r.baseline_cycles * 2);
    FaultClassResult c;
    c.name = "task-hang";
    c.inject_cycle = inst.faults().triggers().empty() ? 0 : inst.faults().triggers()[0].cycle;
    const app::AppHealth h = dec.handle().health();
    c.detect_cycle = h.faults.empty() ? 0 : h.faults[0].cycle;
    c.end_cycle = end;
    c.outcome = h.faults.empty() ? "undetected" : "hang-latched";
    r.classes.push_back(c);
  }

  // Class 3: lost putspace messages — the space accounting diverges, the
  // graph wedges, and the watchdog latches stream stalls; the blocked-on
  // walk classifies the quiescence.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    sim::FaultPlan plan;
    sim::FaultSpec f;
    f.kind = sim::FaultKind::DropPutspace;
    f.shell = inst.rlsqShell().id();
    f.at_cycle = r.baseline_cycles / 4;
    f.count = 0;  // every message from this shell, forever
    plan.faults.push_back(f);
    inst.armFaults(plan);
    inst.armWatchdogs(/*timeout=*/20'000, /*period=*/256);
    const Cycle end = inst.run(r.baseline_cycles * 2);
    FaultClassResult c;
    c.name = "drop-putspace";
    c.inject_cycle = inst.faults().triggers().empty() ? 0 : inst.faults().triggers()[0].cycle;
    const app::AppHealth h = dec.handle().health();
    c.detect_cycle = h.stalls.empty() ? 0 : h.stalls[0].cycle;
    c.end_cycle = end;
    c.outcome = dec.done() ? "completed" : app::quiescenceName(inst.classifyQuiescence());
    r.classes.push_back(c);
  }

  return r;
}

void emitFaults(std::FILE* f, const FaultsResult& r) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-faults-v1\",\n");
  std::fprintf(f, "  \"baseline\": {\"sim_cycles\": %llu, \"events\": %llu, \"wall_s\": %.6f},\n",
               static_cast<unsigned long long>(r.baseline_cycles),
               static_cast<unsigned long long>(r.baseline_events), r.baseline_wall_s);
  std::fprintf(f,
               "  \"injector_disarmed\": {\"sim_cycles\": %llu, \"events\": %llu, "
               "\"overhead_cycles\": %llu, \"overhead_events\": %llu},\n",
               static_cast<unsigned long long>(r.disarmed_cycles),
               static_cast<unsigned long long>(r.disarmed_events),
               static_cast<unsigned long long>(r.disarmed_cycles - r.baseline_cycles),
               static_cast<unsigned long long>(r.disarmed_events - r.baseline_events));
  std::fprintf(f,
               "  \"watchdog_armed\": {\"sim_cycles\": %llu, \"events\": %llu, \"wall_s\": %.6f, "
               "\"overhead_cycles\": %llu, \"extra_events\": %llu},\n",
               static_cast<unsigned long long>(r.watchdog_cycles),
               static_cast<unsigned long long>(r.watchdog_events), r.watchdog_wall_s,
               static_cast<unsigned long long>(r.watchdog_cycles - r.baseline_cycles),
               static_cast<unsigned long long>(r.watchdog_events - r.baseline_events));
  std::fprintf(f, "  \"classes\": [\n");
  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const FaultClassResult& c = r.classes[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"inject_cycle\": %llu, \"detect_cycle\": %llu, "
                 "\"cycles_to_detect\": %llu, \"end_cycle\": %llu, \"outcome\": \"%s\", "
                 "\"frames_dropped\": %llu}%s\n",
                 c.name.c_str(), static_cast<unsigned long long>(c.inject_cycle),
                 static_cast<unsigned long long>(c.detect_cycle),
                 static_cast<unsigned long long>(
                     c.detect_cycle > c.inject_cycle ? c.detect_cycle - c.inject_cycle : 0),
                 static_cast<unsigned long long>(c.end_cycle), c.outcome.c_str(),
                 static_cast<unsigned long long>(c.frames_dropped),
                 i + 1 < r.classes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

/// Farm scenario: batch-serve a mixed job list at increasing worker
/// counts. Two figures of merit: throughput scaling (jobs/s and latency
/// percentiles per worker count, with the reuse-vs-cold configure cost
/// split) and the determinism contract — every job's simulated fields must
/// be bit-identical across worker counts, enforced in-binary (exit 1).
struct FarmSweepPoint {
  int workers = 0;
  double wall_s = 0;
  double jobs_per_s = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  std::uint64_t completed = 0, failed = 0;
  std::uint64_t reused = 0, cold_builds = 0;
  double build_ms = 0;    // total cold-configure cost across workers
  double recycle_ms = 0;  // total recycle cost across workers
};

struct FarmBenchResult {
  int jobs = 0;
  int host_cores = 0;  ///< hardware_concurrency of the measuring host
  bool deterministic = true;
  std::vector<FarmSweepPoint> points;
};

std::vector<farm::Job> farmBenchJobs(int n) {
  std::vector<farm::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    farm::Job j;
    j.name = "bench-" + std::to_string(i);
    switch (i % 4) {
      case 0:  // the pinned reference decode
        break;
      case 1:  // decode of a coarser clip (distinct prepared workload)
        j.apps[0].workload.qscale = 20;
        break;
      case 2:  // encode
        j.apps[0].kind = farm::AppKind::Encode;
        break;
      case 3:  // dual-decode mix on a larger SRAM (distinct instance shape)
        j.apps.push_back(farm::AppSpec{});
        j.config.set("sram.size_bytes", std::int64_t{64 * 1024});
        break;
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// The simulated fields covered by the determinism contract.
struct FarmSimFields {
  sim::Cycle sim_cycles;
  std::uint64_t sim_events, macroblocks;
  bool bit_exact;
  double psnr_db;
  std::uint64_t faults, stalls;
  bool operator==(const FarmSimFields&) const = default;
};

FarmBenchResult runFarm(bool smoke) {
  FarmBenchResult r;
  r.jobs = smoke ? 24 : 200;
  // Scaling curves only mean something relative to the host: a flat curve
  // on a 1-core container is expected, not a regression (ROADMAP PR-5 note).
  r.host_cores = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> worker_counts = smoke ? std::vector<int>{1, 2, 4}
                                               : std::vector<int>{1, 2, 4, 8};
  // One prepared-workload cache across the sweep, filled before the first
  // point: video generation and golden encodes are paid up front, so every
  // point (the 1-worker one included) measures serving, not setup.
  auto cache = std::make_shared<farm::WorkloadCache>();
  for (const farm::Job& j : farmBenchJobs(r.jobs)) {
    for (const farm::AppSpec& app : j.apps) cache->get(app.workload);
  }
  std::vector<FarmSimFields> reference;

  for (int workers : worker_counts) {
    farm::FarmOptions opts;
    opts.workers = workers;
    opts.queue_capacity = static_cast<std::size_t>(r.jobs);
    opts.cache = cache;
    farm::Farm f(opts);

    const auto t0 = std::chrono::steady_clock::now();
    auto futs = f.submitBatch(farmBenchJobs(r.jobs));
    std::vector<FarmSimFields> fields;
    fields.reserve(futs.size());
    for (auto& fut : futs) {
      const farm::JobResult jr = fut.get();
      fields.push_back({jr.sim_cycles, jr.sim_events, jr.macroblocks, jr.bit_exact, jr.psnr_db,
                        jr.faults_latched, jr.stalls_latched});
    }
    const double wall = seconds(t0);

    if (reference.empty()) {
      reference = fields;
    } else {
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (!(fields[i] == reference[i])) {
          std::fprintf(stderr,
                       "FARM DETERMINISM VIOLATION: job %zu at %d workers "
                       "(cycles %llu vs %llu, events %llu vs %llu)\n",
                       i, workers, static_cast<unsigned long long>(fields[i].sim_cycles),
                       static_cast<unsigned long long>(reference[i].sim_cycles),
                       static_cast<unsigned long long>(fields[i].sim_events),
                       static_cast<unsigned long long>(reference[i].sim_events));
          r.deterministic = false;
        }
      }
    }

    const farm::FarmMetrics m = f.metrics();
    FarmSweepPoint p;
    p.workers = workers;
    p.wall_s = wall;
    p.jobs_per_s = wall > 0 ? static_cast<double>(r.jobs) / wall : 0;
    p.p50_ms = m.p50_ms;
    p.p95_ms = m.p95_ms;
    p.p99_ms = m.p99_ms;
    p.completed = m.completed;
    p.failed = m.failed;
    p.reused = m.reused();
    p.cold_builds = m.coldBuilds();
    for (const farm::WorkerStats& w : m.workers) {
      p.build_ms += w.build_ms;
      p.recycle_ms += w.recycle_ms;
    }
    r.points.push_back(p);
  }
  return r;
}

void emitFarm(std::FILE* f, const FarmBenchResult& r) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-farm-v1\",\n");
  std::fprintf(f, "  \"jobs\": %d,\n", r.jobs);
  std::fprintf(f, "  \"host_cores\": %d,\n", r.host_cores);
  std::fprintf(f, "  \"deterministic\": %s,\n", r.deterministic ? "true" : "false");
  const double base = r.points.empty() ? 0 : r.points.front().jobs_per_s;
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const FarmSweepPoint& p = r.points[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"worker_core_ratio\": %.2f, \"wall_s\": %.3f, "
                 "\"jobs_per_s\": %.2f, "
                 "\"speedup\": %.2f, \"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f, "
                 "\"completed\": %llu, \"failed\": %llu, \"reused\": %llu, "
                 "\"cold_builds\": %llu, \"build_ms\": %.1f, \"recycle_ms\": %.1f}%s\n",
                 p.workers,
                 r.host_cores > 0 ? static_cast<double>(p.workers) / r.host_cores : 0.0,
                 p.wall_s, p.jobs_per_s, base > 0 ? p.jobs_per_s / base : 0, p.p50_ms,
                 p.p95_ms, p.p99_ms, static_cast<unsigned long long>(p.completed),
                 static_cast<unsigned long long>(p.failed),
                 static_cast<unsigned long long>(p.reused),
                 static_cast<unsigned long long>(p.cold_builds), p.build_ms, p.recycle_ms,
                 i + 1 < r.points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

/// Serve scenario (--serve): the serving-tier gate (DESIGN.md §15). Runs an
/// in-process Server (ECL1 binary protocol over loopback) with real Clients
/// and checks the four serving invariants as hard gates (exit 1):
///   * identity_ok  — every result served over the wire is bit-identical,
///                    field for field, to a direct Farm::submitWait oracle
///                    of the same jobspec (same WorkloadCache, 1 worker):
///                    the serving tier adds framing and QoS, never state;
///   * pin_ok       — the served reference decode lands exactly on the
///                    decode pin, and no serve job ever enters the sliced
///                    heartbeat path (supervisedJobs() == 0): serving an
///                    unarmed batch costs nothing;
///   * fairshare_ok — a misbehaving tenant (tiny quota, shed policy,
///                    flooding back-to-back) gets shed while a compliant
///                    tenant's every job still completes — no starvation.
///                    Counters only, no wall-clock asserts (1-core CI);
///   * zero_loss_ok — a rolling drain issued with results still in flight
///                    delivers every accepted result (resultsDropped()==0)
///                    and rejects late submissions with Draining.
/// Plus an open-loop Poisson load sweep (per-tenant latency / queue-age
/// percentiles and shed counts per arrival rate) for the JSON record.
struct ServeTenantPoint {
  std::string tenant;
  std::uint64_t admitted = 0, shed = 0, completed = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, queue_p95_ms = 0;
};

struct ServeSweepPoint {
  double rate_jobs_s = 0;
  int jobs = 0;
  double wall_s = 0, jobs_per_s = 0;
  std::vector<ServeTenantPoint> tenants;
};

struct ServeBenchResult {
  bool pin_ok = false, identity_ok = false, fairshare_ok = false, zero_loss_ok = false;
  int identity_jobs = 0;
  std::uint64_t supervised_jobs = 0;
  std::uint64_t results_dropped = 0;
  std::uint64_t mallory_admitted = 0, mallory_shed = 0;
  std::uint64_t alice_jobs = 0, alice_completed = 0;
  std::vector<ServeSweepPoint> sweep;

  [[nodiscard]] bool gatesOk() const {
    return pin_ok && identity_ok && fairshare_ok && zero_loss_ok;
  }
};

FarmSimFields wireSimFields(const serve::WireResult& r) {
  return {static_cast<sim::Cycle>(r.sim_cycles), r.sim_events, r.macroblocks,
          r.bit_exact,                           r.psnr_db,    r.faults_latched,
          r.stalls_latched};
}

ServeBenchResult runServe(bool smoke) {
  ServeBenchResult r;
  // One prepared-workload cache shared by every farm below (served and
  // oracle): identical prepared state, and setup is paid once.
  auto cache = std::make_shared<farm::WorkloadCache>();

  // The jobspec mix: the pinned reference decode plus small variants that
  // cover qscale, encode, multi-app and config-override parsing.
  const std::string tiny = " width=32 height=32 frames=1";
  const std::vector<std::string> specs = {
      "pin",  // no fields: exactly the pinned reference decode
      "small" + tiny,
      "coarse" + tiny + " qscale=20",
      "enc kind=encode" + tiny,
      "mix kind=decode+decode" + tiny + " config:sram.size_bytes=65536 priority=high",
  };

  // --- oracle: direct submitWait, no serving tier ----------------------
  std::vector<FarmSimFields> oracle(specs.size());
  bool oracle_ok = true;
  {
    farm::FarmOptions fo;
    fo.workers = 1;
    fo.queue_capacity = 8;
    fo.cache = cache;
    farm::Farm f(fo);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      serve::ParsedSpec ps;
      std::string err;
      if (!serve::parseJobSpec(specs[i], ps, err)) {
        std::fprintf(stderr, "SERVE: oracle spec %zu unparseable: %s\n", i, err.c_str());
        oracle_ok = false;
        continue;
      }
      const farm::JobResult jr = f.submitWait(std::move(ps.job)).get();
      oracle[i] = {jr.sim_cycles,  jr.sim_events,    jr.macroblocks, jr.bit_exact,
                   jr.psnr_db,     jr.faults_latched, jr.stalls_latched};
      if (jr.status != farm::JobStatus::Completed) {
        std::fprintf(stderr, "SERVE: oracle job %zu not Completed\n", i);
        oracle_ok = false;
      }
    }
  }

  // --- gate: wire identity + unarmed pin -------------------------------
  try {
    serve::ServeOptions so;
    so.farm.workers = 2;
    so.farm.queue_capacity = 32;
    so.farm.cache = cache;
    serve::Server server(so);
    server.start();
    serve::Client alice, bob;
    alice.connect("127.0.0.1", server.port(), "alice");
    bob.connect("127.0.0.1", server.port(), "bob");

    // Round-robin the spec mix over two tenant connections, open loop.
    const int reps = smoke ? 2 : 6;
    std::map<std::uint64_t, std::size_t> sent_alice, sent_bob;
    bool all_accepted = true;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool use_alice = (rep + static_cast<int>(i)) % 2 == 0;
        serve::Client& c = use_alice ? alice : bob;
        const auto s = c.submit(specs[i]);
        if (!s.accepted) {
          std::fprintf(stderr, "SERVE: identity submit rejected: %s\n",
                       serve::rejectReasonName(s.reason));
          all_accepted = false;
          continue;
        }
        (use_alice ? sent_alice : sent_bob)[s.req_id] = i;
      }
    }

    bool identical = oracle_ok && all_accepted;
    auto check = [&](serve::Client& c, const std::map<std::uint64_t, std::size_t>& sent) {
      for (const serve::WireResult& wr : c.awaitAll()) {
        ++r.identity_jobs;
        const auto it = sent.find(wr.req_id);
        if (it == sent.end() || wr.status != farm::JobStatus::Completed ||
            !(wireSimFields(wr) == oracle[it->second])) {
          std::fprintf(stderr,
                       "SERVE IDENTITY VIOLATION: req %llu spec %zu "
                       "(cycles %llu vs oracle %llu, events %llu vs %llu)\n",
                       static_cast<unsigned long long>(wr.req_id),
                       it == sent.end() ? static_cast<std::size_t>(-1) : it->second,
                       static_cast<unsigned long long>(wr.sim_cycles),
                       it == sent.end()
                           ? 0ULL
                           : static_cast<unsigned long long>(oracle[it->second].sim_cycles),
                       static_cast<unsigned long long>(wr.sim_events),
                       it == sent.end()
                           ? 0ULL
                           : static_cast<unsigned long long>(oracle[it->second].sim_events));
          identical = false;
        }
      }
    };
    check(alice, sent_alice);
    check(bob, sent_bob);
    r.identity_ok = identical && r.identity_jobs == reps * static_cast<int>(specs.size());

    // Zero overhead on the unarmed batch path: the served pin decode is
    // cycle-exact and nothing entered the sliced heartbeat path.
    const farm::FarmMetrics m = server.farm().metrics();
    r.supervised_jobs = m.supervisedJobs();
    r.pin_ok = oracle[0].sim_cycles == pin::kDecodePinCycles &&
               oracle[0].sim_events == pin::kDecodePinEvents &&
               oracle[0].macroblocks == pin::kDecodePinMacroblocks && oracle[0].bit_exact &&
               r.identity_ok && r.supervised_jobs == 0;

    alice.close();
    bob.close();
    server.shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "SERVE: identity stage failed: %s\n", e.what());
  }

  // --- gate: fair share under a flooding tenant ------------------------
  try {
    serve::ServeOptions so;
    so.farm.workers = 2;
    so.farm.queue_capacity = 8;
    so.farm.cache = cache;
    serve::TenantConfig mallory;
    mallory.name = "mallory";
    mallory.rate = 50.0;  // paced...
    mallory.burst = 4.0;
    mallory.max_inflight = 1;
    mallory.max_pending = 4;
    mallory.weight = 1.0;
    mallory.policy = serve::OverloadPolicy::Shed;  // ...and shed beyond the burst
    serve::TenantConfig alice_cfg;
    alice_cfg.name = "alice";
    alice_cfg.rate = 0.0;  // compliant tenant: unlimited, generous bounds
    alice_cfg.max_inflight = 4;
    alice_cfg.max_pending = 128;
    alice_cfg.weight = 4.0;
    so.tenants = {mallory, alice_cfg};
    serve::Server server(so);
    server.start();
    serve::Client cm, ca;
    cm.connect("127.0.0.1", server.port(), "mallory");
    ca.connect("127.0.0.1", server.port(), "alice");

    // Mallory floods back-to-back; alice submits her modest batch
    // interleaved. No pacing on the client side — the server's QoS is the
    // only thing standing between mallory and the farm.
    const int mallory_jobs = smoke ? 60 : 150;
    const int alice_jobs = smoke ? 10 : 24;
    r.alice_jobs = static_cast<std::uint64_t>(alice_jobs);
    std::uint64_t alice_accepted = 0;
    int sent_alice = 0;
    for (int n = 0; n < mallory_jobs; ++n) {
      const auto s = cm.submit("flood" + tiny + " seed=" + std::to_string(n % 4));
      if (s.accepted) ++r.mallory_admitted;
      else ++r.mallory_shed;
      if (n % (mallory_jobs / alice_jobs + 1) == 0 && sent_alice < alice_jobs) {
        ++sent_alice;
        if (ca.submit("steady" + tiny).accepted) ++alice_accepted;
      }
    }
    while (sent_alice < alice_jobs) {
      ++sent_alice;
      if (ca.submit("steady" + tiny).accepted) ++alice_accepted;
    }

    for (const serve::WireResult& wr : ca.awaitAll()) {
      if (wr.status == farm::JobStatus::Completed) ++r.alice_completed;
    }
    cm.awaitAll();  // mallory's admitted jobs still finish (shed, not starved)
    r.fairshare_ok = alice_accepted == r.alice_jobs &&
                     r.alice_completed == r.alice_jobs && r.mallory_shed > 0;
    if (!r.fairshare_ok) {
      std::fprintf(stderr,
                   "SERVE FAIRSHARE VIOLATION: alice accepted=%llu completed=%llu of %llu, "
                   "mallory admitted=%llu shed=%llu\n",
                   static_cast<unsigned long long>(alice_accepted),
                   static_cast<unsigned long long>(r.alice_completed),
                   static_cast<unsigned long long>(r.alice_jobs),
                   static_cast<unsigned long long>(r.mallory_admitted),
                   static_cast<unsigned long long>(r.mallory_shed));
    }
    cm.close();
    ca.close();
    server.shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "SERVE: fairshare stage failed: %s\n", e.what());
  }

  // --- gate: rolling drain loses nothing -------------------------------
  try {
    serve::ServeOptions so;
    so.farm.workers = 2;
    so.farm.queue_capacity = 16;
    so.farm.cache = cache;
    serve::Server server(so);
    server.start();
    serve::Client c;
    c.connect("127.0.0.1", server.port(), "drainee");
    const int n = smoke ? 8 : 16;
    std::uint64_t accepted = 0;
    for (int i = 0; i < n; ++i) {
      if (c.submit("drain" + tiny + " seed=" + std::to_string(i % 4)).accepted) ++accepted;
    }
    server.beginDrain();  // results still in flight
    const auto late = c.submit("late" + tiny);
    const bool late_rejected = !late.accepted && late.reason == serve::RejectReason::Draining;
    std::uint64_t results = 0;
    for (const serve::WireResult& wr : c.awaitAll()) {
      (void)wr;
      ++results;
    }
    server.shutdown();
    r.results_dropped = server.resultsDropped();
    r.zero_loss_ok = late_rejected && accepted == static_cast<std::uint64_t>(n) &&
                     results == accepted && r.results_dropped == 0;
    if (!r.zero_loss_ok) {
      std::fprintf(stderr,
                   "SERVE DRAIN VIOLATION: accepted=%llu results=%llu dropped=%llu "
                   "late_rejected=%d\n",
                   static_cast<unsigned long long>(accepted),
                   static_cast<unsigned long long>(results),
                   static_cast<unsigned long long>(r.results_dropped),
                   late_rejected ? 1 : 0);
    }
    c.close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "SERVE: drain stage failed: %s\n", e.what());
  }

  // --- open-loop Poisson load sweep (telemetry, not a gate) ------------
  const std::vector<double> rates = smoke ? std::vector<double>{80.0}
                                          : std::vector<double>{40.0, 80.0, 160.0};
  // Seeded arrival jitter, no wall-clock entropy (the serve_client idiom).
  auto splitmix = [](std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (const double rate : rates) {
    try {
      serve::ServeOptions so;
      so.farm.workers = 2;
      so.farm.queue_capacity = 32;
      so.farm.cache = cache;
      serve::Server server(so);
      server.start();
      const std::vector<std::string> tenants = {"alice", "bob", "carol"};
      std::vector<serve::Client> clients(tenants.size());
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        clients[i].connect("127.0.0.1", server.port(), tenants[i]);
      }
      ServeSweepPoint p;
      p.rate_jobs_s = rate;
      p.jobs = smoke ? 18 : 60;
      std::uint64_t jitter = 42;
      const auto t0 = std::chrono::steady_clock::now();
      for (int n = 0; n < p.jobs; ++n) {
        clients[static_cast<std::size_t>(n) % clients.size()].submit(
            "load" + tiny + " seed=" + std::to_string(n % 4));
        if (n + 1 < p.jobs) {
          const double u =
              (static_cast<double>(splitmix(jitter) >> 11) + 1.0) / 9007199254740993.0;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(-std::log(u) / rate * 1000.0));
        }
      }
      for (auto& c : clients) c.awaitAll();
      p.wall_s = seconds(t0);
      p.jobs_per_s = p.wall_s > 0 ? static_cast<double>(p.jobs) / p.wall_s : 0;
      for (const serve::TenantStats& t : server.dispatcher().tenantStats()) {
        ServeTenantPoint tp;
        tp.tenant = t.config.name;
        tp.admitted = t.admitted;
        tp.shed = t.shed();
        tp.completed = t.completed;
        tp.p50_ms = t.latency.percentile(0.5);
        tp.p95_ms = t.latency.percentile(0.95);
        tp.p99_ms = t.latency.percentile(0.99);
        tp.queue_p95_ms = t.queue_age.percentile(0.95);
        p.tenants.push_back(std::move(tp));
      }
      for (auto& c : clients) c.close();
      server.shutdown();
      r.sweep.push_back(std::move(p));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "SERVE: sweep at %.0f jobs/s failed: %s\n", rate, e.what());
    }
  }
  return r;
}

void emitServe(std::FILE* f, const ServeBenchResult& r) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-serve-v1\",\n");
  std::fprintf(f, "  \"pin_ok\": %s,\n", r.pin_ok ? "true" : "false");
  std::fprintf(f, "  \"identity_ok\": %s,\n", r.identity_ok ? "true" : "false");
  std::fprintf(f, "  \"fairshare_ok\": %s,\n", r.fairshare_ok ? "true" : "false");
  std::fprintf(f, "  \"zero_loss_ok\": %s,\n", r.zero_loss_ok ? "true" : "false");
  std::fprintf(f, "  \"identity_jobs\": %d,\n", r.identity_jobs);
  std::fprintf(f, "  \"supervised_jobs\": %llu,\n",
               static_cast<unsigned long long>(r.supervised_jobs));
  std::fprintf(f, "  \"results_dropped\": %llu,\n",
               static_cast<unsigned long long>(r.results_dropped));
  std::fprintf(f,
               "  \"fairshare\": {\"mallory_admitted\": %llu, \"mallory_shed\": %llu, "
               "\"alice_jobs\": %llu, \"alice_completed\": %llu},\n",
               static_cast<unsigned long long>(r.mallory_admitted),
               static_cast<unsigned long long>(r.mallory_shed),
               static_cast<unsigned long long>(r.alice_jobs),
               static_cast<unsigned long long>(r.alice_completed));
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < r.sweep.size(); ++i) {
    const ServeSweepPoint& p = r.sweep[i];
    std::fprintf(f,
                 "    {\"rate_jobs_s\": %.0f, \"jobs\": %d, \"wall_s\": %.3f, "
                 "\"jobs_per_s\": %.2f, \"tenants\": [\n",
                 p.rate_jobs_s, p.jobs, p.wall_s, p.jobs_per_s);
    for (std::size_t j = 0; j < p.tenants.size(); ++j) {
      const ServeTenantPoint& t = p.tenants[j];
      std::fprintf(f,
                   "      {\"tenant\": \"%s\", \"admitted\": %llu, \"shed\": %llu, "
                   "\"completed\": %llu, \"p50_ms\": %.2f, \"p95_ms\": %.2f, "
                   "\"p99_ms\": %.2f, \"queue_p95_ms\": %.2f}%s\n",
                   t.tenant.c_str(), static_cast<unsigned long long>(t.admitted),
                   static_cast<unsigned long long>(t.shed),
                   static_cast<unsigned long long>(t.completed), t.p50_ms, t.p95_ms, t.p99_ms,
                   t.queue_p95_ms, j + 1 < p.tenants.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < r.sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

/// Chaos scenario (--chaos): the supervision-tier gate (DESIGN.md §14).
/// A seeded storm of adversarial jobs — simulated-cycle deadline misses,
/// PR-4 fault storms (task hangs, payload corruption, dropped putspaces)
/// and injected host-side worker hangs — runs on a multi-worker supervised
/// farm, next to a clean oracle farm and an unarmed control farm. Four
/// hard gates (exit 1):
///   * all_terminal      — every accepted job's future resolves terminally
///                         within the harness deadline, whatever was
///                         injected (no lost promises, no wedged farm);
///   * oracle_identical  — every simulated field of every retried /
///                         supervised run is bit-identical to a clean
///                         first run (pin constants for clean and
///                         hang-survivor jobs, a 1-worker unsupervised
///                         oracle farm for deadline and fault-storm jobs);
///   * attempts_identical / quarantine_exact — failed attempts of a
///                         deterministic failure are bit-identical to the
///                         terminal attempt, and the quarantine ledger
///                         holds exactly the jobs that killed two workers
///                         (zero quarantine leaks);
///   * overhead_ok       — the unarmed control farm never enters the
///                         sliced heartbeat path (supervisedJobs() == 0)
///                         and still lands exactly on the decode pin, so
///                         supervision costs nothing unless armed.
struct ChaosJobRecord {
  std::string name, cls, status, cause;
  int attempts = 1;
  std::uint64_t sim_cycles = 0, sim_events = 0;
  bool ok = true;
};

struct ChaosBenchResult {
  int jobs = 0;
  int workers = 0;
  int host_cores = 0;
  bool all_terminal = true;
  bool oracle_identical = true;
  bool attempts_identical = true;
  bool quarantine_exact = true;
  bool overhead_ok = true;
  std::uint64_t retried = 0, retry_succeeded = 0, worker_lost = 0;
  std::uint64_t workers_replaced = 0, quarantined = 0;
  double armed_wall_s = 0.0;
  int unarmed_jobs = 0;
  double unarmed_jobs_per_s = 0.0;
  std::uint64_t unarmed_supervised_jobs = 0;
  std::vector<ChaosJobRecord> records;

  [[nodiscard]] bool gatesOk() const {
    return all_terminal && oracle_identical && attempts_identical && quarantine_exact &&
           overhead_ok;
  }
};

FarmSimFields chaosFields(const farm::JobResult& r) {
  return {r.sim_cycles, r.sim_events,     r.macroblocks,   r.bit_exact,
          r.psnr_db,    r.faults_latched, r.stalls_latched};
}

bool chaosOnPin(const farm::JobResult& r) {
  return r.sim_cycles == pin::kDecodePinCycles && r.sim_events == pin::kDecodePinEvents &&
         r.macroblocks == pin::kDecodePinMacroblocks && r.bit_exact;
}

/// One adversarial job plus what the gate demands of its terminal result.
struct ChaosCase {
  const char* cls = "clean";
  farm::Job job;
  bool require_completed = false;   ///< terminal status must be Completed
  bool require_failed = false;      ///< terminal status must NOT be Completed
  bool require_retry = false;       ///< attempts >= 2 (survived a worker loss)
  bool require_quarantine = false;  ///< terminal status must be Quarantined
  bool require_pin = false;         ///< simulated fields must equal the pin
  int oracle_idx = -1;              ///< index into the oracle-farm results
};

std::vector<ChaosCase> chaosCases(bool smoke, std::vector<farm::Job>& oracle_jobs) {
  std::vector<ChaosCase> cases;
  auto oracle_for = [&](const farm::Job& j) {
    // The clean-first-run oracle: same Job, retry/supervision/chaos
    // stripped. Those fields are host-side only, so the supervised,
    // retried, sliced run must reproduce these simulated fields exactly.
    farm::Job o = j;
    o.retry = farm::RetryPolicy{};
    o.supervise_ms = 0.0;
    o.chaos = farm::HostHangSpec{};
    oracle_jobs.push_back(std::move(o));
    return static_cast<int>(oracle_jobs.size()) - 1;
  };

  // Class 1: clean supervised pin decodes. Armed (retries + heartbeat
  // slicing) but nothing injected: must stay exactly on the decode pin.
  for (int i = 0; i < (smoke ? 4 : 8); ++i) {
    ChaosCase c;
    c.cls = "clean";
    c.job.name = "clean-" + std::to_string(i);
    c.job.supervise_ms = 2000.0;
    c.job.retry.max_attempts = 2;
    c.require_completed = true;
    c.require_pin = true;
    cases.push_back(std::move(c));
  }

  // Class 2: deadline misses. The pin decode needs 144885 cycles; a
  // 60000-cycle deadline fails at exactly that cycle on every attempt.
  for (int i = 0; i < (smoke ? 2 : 3); ++i) {
    ChaosCase c;
    c.cls = "deadline";
    c.job.name = "deadline-" + std::to_string(i);
    c.job.deadline = 60'000;
    c.job.supervise_ms = 2000.0;
    c.job.retry.max_attempts = 3;
    c.require_failed = true;
    c.oracle_idx = oracle_for(c.job);
    cases.push_back(std::move(c));
  }

  // Class 3: seeded PR-4 fault storms (the test_fuzz idiom): task hangs
  // against per-shell watchdogs, payload corruption at the VLD output and
  // dropped putspace credits. Whatever each storm does — latch a fault,
  // stall, or complete with bit_exact=false — it does it deterministically,
  // so the retried terminal run must equal the clean oracle bit for bit.
  const sim::FaultKind kinds[] = {sim::FaultKind::TaskHang, sim::FaultKind::CorruptPayload,
                                  sim::FaultKind::DropPutspace};
  const int per_kind = smoke ? 1 : 2;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < per_kind; ++i) {
      const std::uint64_t seed = 11 + static_cast<std::uint64_t>(i);
      sim::Prng rng(seed * 977 + static_cast<std::uint64_t>(kinds[k]));
      sim::FaultSpec spec;
      spec.kind = kinds[k];
      spec.at_cycle = 2'000 + rng.below(60'000);
      switch (kinds[k]) {
        case sim::FaultKind::TaskHang:
          spec.shell = static_cast<std::uint32_t>(rng.below(4));
          spec.task = 0;
          spec.delay_cycles = 10'000 + rng.below(100'000);
          break;
        case sim::FaultKind::CorruptPayload:
          spec.shell = 0;  // VLD
          spec.task = 0;
          spec.port = coproc::VldCoproc::kOutCoef;
          spec.xor_mask = static_cast<std::uint8_t>(1 + rng.below(255));
          break;
        default:  // DropPutspace
          spec.shell = static_cast<std::uint32_t>(rng.below(4));
          spec.count = 3;
          break;
      }
      ChaosCase c;
      c.cls = "storm";
      c.job.name = std::string("storm-") + sim::faultKindName(kinds[k]) + "-" +
                   std::to_string(i);
      c.job.faults.seed = seed;
      c.job.faults.faults.push_back(spec);
      c.job.watchdog_timeout = 20'000;
      c.job.max_cycles = 800'000;
      c.job.supervise_ms = 2000.0;
      c.job.retry.max_attempts = 2;
      c.oracle_idx = oracle_for(c.job);
      cases.push_back(std::move(c));
    }
  }

  // Class 4: a worker hang on the first attempt only. The Supervisor must
  // replace the wedged worker, fail-fast the job (WorkerLost) and the
  // retry must complete on the pin — the hang is host-side noise.
  for (int i = 0; i < (smoke ? 2 : 3); ++i) {
    ChaosCase c;
    c.cls = "hang-once";
    c.job.name = "hang-once-" + std::to_string(i);
    c.job.chaos.hang_ms = 1500.0;
    c.job.chaos.attempts = 1;
    c.job.supervise_ms = 250.0;
    c.job.retry.max_attempts = 3;
    c.require_completed = true;
    c.require_retry = true;
    c.require_pin = true;
    cases.push_back(std::move(c));
  }

  // Class 5: hangs on every attempt. After killing two workers the job
  // must be quarantined — terminal, never re-admitted — with retry budget
  // deliberately left over (quarantine overrides the policy).
  for (int i = 0; i < 2; ++i) {
    ChaosCase c;
    c.cls = "hang-always";
    c.job.name = "hang-always-" + std::to_string(i);
    c.job.chaos.hang_ms = 1500.0;
    c.job.chaos.attempts = 99;
    c.job.supervise_ms = 250.0;
    c.job.retry.max_attempts = 6;
    c.require_quarantine = true;
    cases.push_back(std::move(c));
  }
  return cases;
}

ChaosBenchResult runChaos(bool smoke) {
  ChaosBenchResult r;
  r.workers = 4;
  r.host_cores = static_cast<int>(std::thread::hardware_concurrency());
  auto cache = std::make_shared<farm::WorkloadCache>();

  std::vector<farm::Job> oracle_jobs;
  std::vector<ChaosCase> cases = chaosCases(smoke, oracle_jobs);
  r.jobs = static_cast<int>(cases.size());

  // Clean oracle pass: 1 worker, nothing armed — the reference outcome of
  // every deadline / storm job under the determinism contract.
  std::vector<FarmSimFields> oracle_fields;
  {
    farm::FarmOptions opts;
    opts.workers = 1;
    opts.queue_capacity = oracle_jobs.size() + 1;
    opts.cache = cache;
    farm::Farm oracle(opts);
    auto futs = oracle.submitBatch(std::move(oracle_jobs));
    oracle_fields.reserve(futs.size());
    for (auto& fut : futs) oracle_fields.push_back(chaosFields(fut.get()));
  }

  // The chaos pass: every adversarial class at once on a 4-worker farm.
  std::vector<std::string> expect_quarantine;
  for (const ChaosCase& c : cases) {
    if (c.require_quarantine) expect_quarantine.push_back(c.job.name);
  }
  {
    farm::FarmOptions opts;
    opts.workers = r.workers;
    opts.queue_capacity = cases.size() + 8;
    opts.cache = cache;
    farm::Farm f(opts);

    std::vector<farm::Job> jobs;
    jobs.reserve(cases.size());
    for (const ChaosCase& c : cases) jobs.push_back(c.job);
    const auto t0 = std::chrono::steady_clock::now();
    auto futs = f.submitBatch(std::move(jobs));

    // Terminality gate: bounded waits, not blocking gets — a lost promise
    // or a wedged farm must fail the gate, not hang the bench.
    const auto harness_deadline = t0 + std::chrono::seconds(smoke ? 120 : 300);
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const ChaosCase& c = cases[i];
      ChaosJobRecord rec;
      rec.name = c.job.name;
      rec.cls = c.cls;
      if (futs[i].wait_until(harness_deadline) != std::future_status::ready) {
        r.all_terminal = false;
        rec.status = "UNRESOLVED";
        rec.ok = false;
        r.records.push_back(std::move(rec));
        continue;
      }
      const farm::JobResult jr = futs[i].get();
      rec.status = farm::jobStatusName(jr.status);
      rec.cause = farm::jobErrorName(jr.cause);
      rec.attempts = jr.attempts;
      rec.sim_cycles = jr.sim_cycles;
      rec.sim_events = jr.sim_events;

      bool ok = true;
      if (c.require_completed && jr.status != farm::JobStatus::Completed) ok = false;
      if (c.require_failed && jr.status == farm::JobStatus::Completed) ok = false;
      if (c.require_quarantine && jr.status != farm::JobStatus::Quarantined) ok = false;
      if (c.require_retry && jr.attempts < 2) ok = false;
      if (c.require_pin && !chaosOnPin(jr)) {
        ok = false;
        r.oracle_identical = false;
      }
      if (c.oracle_idx >= 0 &&
          !(chaosFields(jr) == oracle_fields[static_cast<std::size_t>(c.oracle_idx)])) {
        ok = false;
        r.oracle_identical = false;
      }
      // Per-attempt determinism: every prior attempt that actually ran the
      // simulation (i.e. was not a host-side worker loss) must carry the
      // same simulated fields as the terminal attempt of the same
      // deterministic failure.
      if (jr.cause != farm::JobError::WorkerLost &&
          jr.status != farm::JobStatus::Quarantined) {
        for (const farm::AttemptRecord& a : jr.attempts_log) {
          if (a.cause == farm::JobError::WorkerLost) continue;
          if (a.sim_cycles != jr.sim_cycles || a.sim_events != jr.sim_events) {
            std::fprintf(stderr,
                         "CHAOS ATTEMPT DIVERGENCE: %s attempt %d "
                         "(cycles %llu vs %llu, events %llu vs %llu)\n",
                         rec.name.c_str(), a.attempt,
                         static_cast<unsigned long long>(a.sim_cycles),
                         static_cast<unsigned long long>(jr.sim_cycles),
                         static_cast<unsigned long long>(a.sim_events),
                         static_cast<unsigned long long>(jr.sim_events));
            ok = false;
            r.attempts_identical = false;
          }
        }
      }
      rec.ok = ok;
      r.records.push_back(std::move(rec));
    }
    r.armed_wall_s = seconds(t0);

    // Quarantine ledger: exactly the hang-always jobs, each with two
    // worker kills on record, and the counter in agreement — no leaks in
    // either direction.
    const std::vector<farm::QuarantineRecord> ledger = f.quarantined();
    const farm::FarmMetrics m = f.metrics();
    r.retried = m.retried;
    r.retry_succeeded = m.retry_succeeded;
    r.worker_lost = m.worker_lost;
    r.workers_replaced = m.workers_replaced;
    r.quarantined = m.quarantined;
    if (ledger.size() != expect_quarantine.size() || m.quarantined != ledger.size()) {
      r.quarantine_exact = false;
    }
    for (const farm::QuarantineRecord& q : ledger) {
      bool expected = false;
      for (const std::string& name : expect_quarantine) expected |= (name == q.name);
      if (!expected || q.worker_kills < 2) r.quarantine_exact = false;
    }
  }

  // Unarmed control pass: plain pin decodes, default policies. Gate: the
  // sliced heartbeat path never runs (supervisedJobs() == 0) and every
  // result sits exactly on the decode pin — arming is strictly opt-in.
  {
    r.unarmed_jobs = smoke ? 8 : 24;
    farm::FarmOptions opts;
    opts.workers = r.workers;
    opts.queue_capacity = static_cast<std::size_t>(r.unarmed_jobs);
    opts.cache = cache;
    farm::Farm f(opts);
    std::vector<farm::Job> jobs(static_cast<std::size_t>(r.unarmed_jobs));
    for (int i = 0; i < r.unarmed_jobs; ++i) {
      jobs[static_cast<std::size_t>(i)].name = "control-" + std::to_string(i);
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto futs = f.submitBatch(std::move(jobs));
    for (auto& fut : futs) {
      const farm::JobResult jr = fut.get();
      if (jr.status != farm::JobStatus::Completed || !chaosOnPin(jr)) r.overhead_ok = false;
    }
    const double wall = seconds(t0);
    r.unarmed_jobs_per_s = wall > 0 ? r.unarmed_jobs / wall : 0;
    r.unarmed_supervised_jobs = f.metrics().supervisedJobs();
    if (r.unarmed_supervised_jobs != 0) r.overhead_ok = false;
  }
  return r;
}

void emitChaos(std::FILE* f, const ChaosBenchResult& r) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-chaos-v1\",\n");
  std::fprintf(f, "  \"jobs\": %d,\n", r.jobs);
  std::fprintf(f, "  \"workers\": %d,\n", r.workers);
  std::fprintf(f, "  \"host_cores\": %d,\n", r.host_cores);
  std::fprintf(f, "  \"worker_core_ratio\": %.2f,\n",
               r.host_cores > 0 ? static_cast<double>(r.workers) / r.host_cores : 0.0);
  std::fprintf(f,
               "  \"gates\": {\"all_terminal\": %s, \"oracle_identical\": %s, "
               "\"attempts_identical\": %s, \"quarantine_exact\": %s, "
               "\"overhead_ok\": %s},\n",
               r.all_terminal ? "true" : "false", r.oracle_identical ? "true" : "false",
               r.attempts_identical ? "true" : "false", r.quarantine_exact ? "true" : "false",
               r.overhead_ok ? "true" : "false");
  std::fprintf(f,
               "  \"metrics\": {\"retried\": %llu, \"retry_succeeded\": %llu, "
               "\"worker_lost\": %llu, \"workers_replaced\": %llu, "
               "\"quarantined\": %llu},\n",
               static_cast<unsigned long long>(r.retried),
               static_cast<unsigned long long>(r.retry_succeeded),
               static_cast<unsigned long long>(r.worker_lost),
               static_cast<unsigned long long>(r.workers_replaced),
               static_cast<unsigned long long>(r.quarantined));
  std::fprintf(f, "  \"armed_wall_s\": %.3f,\n", r.armed_wall_s);
  std::fprintf(f,
               "  \"unarmed\": {\"jobs\": %d, \"jobs_per_s\": %.2f, "
               "\"supervised_jobs\": %llu},\n",
               r.unarmed_jobs, r.unarmed_jobs_per_s,
               static_cast<unsigned long long>(r.unarmed_supervised_jobs));
  std::fprintf(f, "  \"jobs_detail\": [\n");
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const ChaosJobRecord& j = r.records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"class\": \"%s\", \"status\": \"%s\", "
                 "\"cause\": \"%s\", \"attempts\": %d, \"sim_cycles\": %llu, "
                 "\"sim_events\": %llu, \"ok\": %s}%s\n",
                 j.name.c_str(), j.cls.c_str(), j.status.c_str(), j.cause.c_str(), j.attempts,
                 static_cast<unsigned long long>(j.sim_cycles),
                 static_cast<unsigned long long>(j.sim_events), j.ok ? "true" : "false",
                 i + 1 < r.records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

/// Media scenario: host throughput of the vectorized media kernels
/// (DESIGN.md §11), per backend, plus two in-binary correctness gates that
/// make a silently wrong SIMD kernel fail CI: (1) every vector backend must
/// be bit-identical to the scalar oracle on a large randomized input sweep,
/// and (2) the reference timed decode must land on the same simulated
/// cycle/event/macroblock counts — and bit-exact output — under every
/// backend. Only blocks/s may differ between backends; the simulated
/// numbers are backend-invariant by design.
namespace mk = media::kernels;

struct MediaPoint {
  std::string backend;
  double wall_s = 0;
  double per_s = 0;     // kernel calls (blocks) per host second
  double speedup = 0;   // vs scalar on the same inputs; 1.0 for scalar
};

struct MediaKernelBench {
  std::string kernel;
  int iters = 0;
  std::vector<MediaPoint> points;
};

struct MediaDecodePoint {
  std::string backend;
  double wall_s = 0;  // best wall time of the full timed decode
};

struct MediaBenchResult {
  std::vector<std::string> backends;
  std::string best;
  int identity_blocks = 0;
  bool identity_ok = true;
  std::uint64_t pin_cycles = 0, pin_events = 0, pin_macroblocks = 0;
  bool pin_ok = true;
  std::vector<MediaDecodePoint> decode;
  std::vector<MediaKernelBench> kernels;
};

volatile std::uint64_t g_media_sink = 0;  // defeats dead-code elimination

template <typename Fn>
double bestWall(int repeats, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt = seconds(t0);
    if (r == 0 || dt < best) best = dt;
  }
  return best;
}

media::Block randomMediaBlock(sim::Prng& rng, int magnitude) {
  media::Block b{};
  for (auto& v : b) {
    v = static_cast<std::int16_t>(static_cast<int>(rng.range(-magnitude, magnitude)));
  }
  return b;
}

/// Bit-identity gate: every vector backend against the scalar oracle on
/// `blocks` randomized inputs per kernel family. Returns false (and prints
/// the first offender) on any mismatch.
bool mediaIdentityGate(int blocks) {
  sim::Prng rng(0xBE7C11ull);
  const auto backends = mk::availableBackends();

  // Pixel planes for the SAD/interp side.
  std::vector<std::uint8_t> plane(128 * 80), cur(128 * 80);
  for (auto& v : plane) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : cur) v = static_cast<std::uint8_t>(rng.below(256));

  for (int i = 0; i < blocks; ++i) {
    const int mag = i % 3 == 0 ? 255 : (i % 3 == 1 ? 2047 : 32767);
    const media::Block in = randomMediaBlock(rng, mag);
    const media::Block lv = randomMediaBlock(rng, 2047);
    const int qscale = 1 + i % 31;
    const media::quant::Matrix& m =
        i % 2 == 0 ? media::quant::flatMatrix() : media::quant::defaultIntraMatrix();
    const auto order = i % 2 == 0 ? media::scan::Order::Zigzag : media::scan::Order::Alternate;
    const int sx = static_cast<int>(rng.below(128 - 17));
    const int sy = static_cast<int>(rng.below(80 - 17));
    const int fx = static_cast<int>(rng.below(2));
    const int fy = static_cast<int>(rng.below(2));

    media::Block ref_f, ref_i, ref_q, ref_d, ref_s;
    std::vector<media::rle::RunLevel> ref_p;
    mk::setBackend(mk::Backend::Scalar);
    {
      const auto& t = mk::active();
      t.dct_forward(in, ref_f);
      t.dct_inverse(in, ref_i);
      t.quantize(in, ref_q, qscale, m);
      t.dequantize(lv, ref_d, qscale, m);
      t.to_scan(in, ref_s, order);
      t.rle_encode(in, ref_p);
    }
    const std::uint8_t* ref_win = plane.data() + sy * 128 + sx;
    const std::uint8_t* cur_win = cur.data() + sy * 128 + sx;
    std::uint32_t ref_sad = 0;
    std::array<std::uint8_t, 256> ref_interp{};
    mk::setBackend(mk::Backend::Scalar);
    ref_sad = mk::active().sad_16xh(cur_win, 128, ref_win, 128, 16, fx, fy);
    mk::active().interp_16xh(ref_interp.data(), 16, ref_win, 128, 16, fx, fy);

    for (const auto b : backends) {
      if (b == mk::Backend::Scalar) continue;
      mk::setBackend(b);
      const auto& t = mk::active();
      media::Block got;
      std::vector<media::rle::RunLevel> got_p;
      t.dct_forward(in, got);
      if (got != ref_f) {
        std::fprintf(stderr, "media identity: dct_forward diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      t.dct_inverse(in, got);
      if (got != ref_i) {
        std::fprintf(stderr, "media identity: dct_inverse diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      t.quantize(in, got, qscale, m);
      if (got != ref_q) {
        std::fprintf(stderr, "media identity: quantize diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      t.dequantize(lv, got, qscale, m);
      if (got != ref_d) {
        std::fprintf(stderr, "media identity: dequantize diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      t.to_scan(in, got, order);
      if (got != ref_s) {
        std::fprintf(stderr, "media identity: to_scan diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      t.rle_encode(in, got_p);
      if (got_p != ref_p) {
        std::fprintf(stderr, "media identity: rle_encode diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      std::array<std::uint8_t, 256> got_interp{};
      if (t.sad_16xh(cur_win, 128, ref_win, 128, 16, fx, fy) != ref_sad) {
        std::fprintf(stderr, "media identity: sad_16xh diverges on %s (block %d)\n", t.name, i);
        return false;
      }
      t.interp_16xh(got_interp.data(), 16, ref_win, 128, 16, fx, fy);
      if (got_interp != ref_interp) {
        std::fprintf(stderr, "media identity: interp_16xh diverges on %s (block %d)\n", t.name, i);
        return false;
      }
    }
  }
  return true;
}

MediaBenchResult runMedia(bool smoke, int repeats) {
  MediaBenchResult r;
  const auto backends = mk::availableBackends();
  for (const auto b : backends) r.backends.emplace_back(mk::backendName(b));
  r.best = mk::backendName(backends.back());

  r.identity_blocks = 10000;
  r.identity_ok = mediaIdentityGate(r.identity_blocks);

  // Decode pin: simulated numbers and decoded frames must be invariant
  // across backends; wall time is the per-backend figure of merit.
  {
    bool first = true;
    for (const auto b : backends) {
      mk::setBackend(b);
      // Regenerate and re-encode under this backend too: the producer side
      // (video generator + encoder) must be bit-identical as well.
      const auto w = eclipse::bench::makeWorkload(96, 80, smoke ? 2 : 5);
      MediaDecodePoint p;
      p.backend = mk::backendName(b);
      std::uint64_t cycles = 0, events = 0, mbs = 0;
      bool bit_exact = false;
      p.wall_s = bestWall(smoke ? 1 : repeats, [&] {
        app::EclipseInstance inst;
        const auto run = eclipse::bench::runDecode(inst, w);
        cycles = run.cycles;
        events = inst.simulator().eventsDispatched();
        mbs = run.macroblocks;
        bit_exact = run.bit_exact;
      });
      if (first) {
        r.pin_cycles = cycles;
        r.pin_events = events;
        r.pin_macroblocks = mbs;
        first = false;
      } else if (cycles != r.pin_cycles || events != r.pin_events || mbs != r.pin_macroblocks) {
        std::fprintf(stderr,
                     "media pin: backend %s moved the decode (%llu/%llu/%llu vs "
                     "%llu/%llu/%llu)\n",
                     p.backend.c_str(), static_cast<unsigned long long>(cycles),
                     static_cast<unsigned long long>(events), static_cast<unsigned long long>(mbs),
                     static_cast<unsigned long long>(r.pin_cycles),
                     static_cast<unsigned long long>(r.pin_events),
                     static_cast<unsigned long long>(r.pin_macroblocks));
        r.pin_ok = false;
      }
      if (!bit_exact) {
        std::fprintf(stderr, "media pin: backend %s output not bit-exact vs golden\n",
                     p.backend.c_str());
        r.pin_ok = false;
      }
      r.decode.push_back(p);
    }
  }

  // Per-kernel throughput. Shared randomized inputs, cycled via index mask
  // so the working set (256 blocks) stays cache-resident and the number
  // measured is kernel arithmetic, not DRAM.
  sim::Prng rng(0x5EEDull);
  constexpr int kMask = 255;
  std::vector<media::Block> coefs, levels, sparse;
  for (int i = 0; i <= kMask; ++i) {
    coefs.push_back(randomMediaBlock(rng, i % 2 == 0 ? 255 : 2047));
    levels.push_back(randomMediaBlock(rng, 2047));
    // Post-quantization distribution for RLE: mostly zeros.
    media::Block sp = randomMediaBlock(rng, 2047);
    for (auto& v : sp) {
      if (rng.below(8) != 0) v = 0;
    }
    sparse.push_back(sp);
  }
  std::vector<std::uint8_t> plane(128 * 80), cur(128 * 80);
  for (auto& v : plane) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : cur) v = static_cast<std::uint8_t>(rng.below(256));

  struct Spec {
    const char* name;
    int iters;
  };
  const int scale = smoke ? 1 : 20;
  const Spec specs[] = {
      {"dct_forward", 10000 * scale},        {"dct_inverse", 10000 * scale},
      {"quantize", 10000 * scale},           {"dequantize", 10000 * scale},
      {"to_scan_zigzag", 20000 * scale},     {"rle_encode", 10000 * scale},
      {"sad_16x16", 25000 * scale},          {"sad_16x16_halfpel", 25000 * scale},
      {"interp_16x16_halfpel", 25000 * scale},
  };

  for (const Spec& s : specs) {
    MediaKernelBench kb;
    kb.kernel = s.name;
    kb.iters = s.iters;
    double scalar_wall = 0;
    for (const auto b : backends) {
      mk::setBackend(b);
      const auto& t = mk::active();
      media::Block out;
      std::vector<media::rle::RunLevel> pairs;
      const std::string name = s.name;
      const double wall = bestWall(repeats, [&] {
        std::uint64_t sink = 0;
        for (int j = 0; j < s.iters; ++j) {
          const media::Block& in = coefs[static_cast<std::size_t>(j & kMask)];
          const std::uint8_t* win = plane.data() + (j % 63) * 128 + (j % 111);
          if (name == "dct_forward") {
            t.dct_forward(in, out);
            sink += static_cast<std::uint64_t>(static_cast<std::uint16_t>(out[0]));
          } else if (name == "dct_inverse") {
            t.dct_inverse(in, out);
            sink += static_cast<std::uint64_t>(static_cast<std::uint16_t>(out[0]));
          } else if (name == "quantize") {
            t.quantize(in, out, 1 + (j & 15), media::quant::defaultIntraMatrix());
            sink += static_cast<std::uint64_t>(static_cast<std::uint16_t>(out[0]));
          } else if (name == "dequantize") {
            t.dequantize(levels[static_cast<std::size_t>(j & kMask)], out, 1 + (j & 15),
                         media::quant::defaultIntraMatrix());
            sink += static_cast<std::uint64_t>(static_cast<std::uint16_t>(out[0]));
          } else if (name == "to_scan_zigzag") {
            t.to_scan(in, out, media::scan::Order::Zigzag);
            sink += static_cast<std::uint64_t>(static_cast<std::uint16_t>(out[0]));
          } else if (name == "rle_encode") {
            t.rle_encode(sparse[static_cast<std::size_t>(j & kMask)], pairs);
            sink += pairs.size();
          } else if (name == "sad_16x16") {
            sink += t.sad_16xh(cur.data() + (j % 57) * 128 + (j % 101), 128, win, 128, 16, 0, 0);
          } else if (name == "sad_16x16_halfpel") {
            sink += t.sad_16xh(cur.data() + (j % 57) * 128 + (j % 101), 128, win, 128, 16, 1, 1);
          } else {  // interp_16x16_halfpel
            std::array<std::uint8_t, 256> dst;
            t.interp_16xh(dst.data(), 16, win, 128, 16, 1, 1);
            sink += dst[0];
          }
        }
        g_media_sink = g_media_sink + sink;
      });
      MediaPoint p;
      p.backend = mk::backendName(b);
      p.wall_s = wall;
      p.per_s = wall > 0 ? static_cast<double>(s.iters) / wall : 0;
      if (b == mk::Backend::Scalar) scalar_wall = wall;
      p.speedup = (wall > 0 && scalar_wall > 0) ? scalar_wall / wall : 0;
      kb.points.push_back(p);
    }
    r.kernels.push_back(kb);
  }

  mk::resetBackendFromEnv();
  return r;
}

void emitMedia(std::FILE* f, const MediaBenchResult& r) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-media-v1\",\n");
  std::fprintf(f, "  \"backends\": [");
  for (std::size_t i = 0; i < r.backends.size(); ++i) {
    std::fprintf(f, "\"%s\"%s", r.backends[i].c_str(), i + 1 < r.backends.size() ? ", " : "");
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"best_backend\": \"%s\",\n", r.best.c_str());
  std::fprintf(f, "  \"identity_blocks\": %d,\n", r.identity_blocks);
  std::fprintf(f, "  \"identity\": \"%s\",\n", r.identity_ok ? "ok" : "MISMATCH");
  std::fprintf(f,
               "  \"decode_pin\": {\"sim_cycles\": %llu, \"events\": %llu, "
               "\"macroblocks\": %llu, \"invariant\": %s},\n",
               static_cast<unsigned long long>(r.pin_cycles),
               static_cast<unsigned long long>(r.pin_events),
               static_cast<unsigned long long>(r.pin_macroblocks), r.pin_ok ? "true" : "false");
  std::fprintf(f, "  \"decode_wall\": [\n");
  for (std::size_t i = 0; i < r.decode.size(); ++i) {
    std::fprintf(f, "    {\"backend\": \"%s\", \"wall_s\": %.6f}%s\n", r.decode[i].backend.c_str(),
                 r.decode[i].wall_s, i + 1 < r.decode.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < r.kernels.size(); ++i) {
    const MediaKernelBench& kb = r.kernels[i];
    std::fprintf(f, "    {\"kernel\": \"%s\", \"iters\": %d, \"points\": [\n", kb.kernel.c_str(),
                 kb.iters);
    for (std::size_t j = 0; j < kb.points.size(); ++j) {
      const MediaPoint& p = kb.points[j];
      std::fprintf(f,
                   "      {\"backend\": \"%s\", \"wall_s\": %.6f, \"blocks_per_s\": %.0f, "
                   "\"speedup_vs_scalar\": %.2f}%s\n",
                   p.backend.c_str(), p.wall_s, p.per_s, p.speedup,
                   j + 1 < kb.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < r.kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

/// Mode-set scenario (DESIGN §12): the cost of live diff-based
/// reconfiguration versus cold teardown+relaunch, with hard gates:
///   1. a multi-mode application that never switches must land exactly on
///      the suite-wide decode pin (full runs; smoke uses a 2-frame clip),
///   2. the mid-clip SD->HD segment switch must be seamless — both
///      segments bit-exact against their goldens, zero dropped frames —
///      and must cost fewer MMIO writes than teardown+relaunch,
///   3. the mid-clip field-only switch (degraded mode) must cost zero
///      simulated transition cycles, and reaching completion through it
///      must be cheaper than drain+teardown+relaunch at the same point.
struct ModesResult {
  bool pin_checked = false;  // full runs only (smoke clip is not the pin workload)
  bool pin_ok = true;
  std::uint64_t noswitch_cycles = 0, noswitch_events = 0, noswitch_mbs = 0;

  app::TransitionStats seg;            // the SD->HD diff transition
  std::uint64_t seg_cold_writes = 0;   // teardown + cold relaunch at the boundary
  std::uint64_t seg_dropped = 0;
  bool seamless = false;

  app::TransitionStats mid;              // the field-only degraded switch
  std::uint64_t mid_cold_writes = 0;     // drain + teardown + relaunch
  std::uint64_t mid_cold_drain_cycles = 0;
  std::uint64_t mid_diff_to_done = 0;    // switch decision -> clip complete
  std::uint64_t mid_cold_to_done = 0;
  bool gates_ok = true;
};

app::DecodeAppConfig hdDecodeConfig() {
  app::DecodeAppConfig cfg;
  cfg.coef_buffer = 6144;
  cfg.blocks_buffer = 3072;
  cfg.res_buffer = 3072;
  cfg.pix_buffer = 3072;
  return cfg;
}

bool framesBitExact(const std::vector<media::Frame>& out, const std::vector<media::Frame>& golden) {
  bool ok = out.size() == golden.size();
  for (std::size_t i = 0; ok && i < out.size(); ++i) ok = out[i] == golden[i];
  return ok;
}

ModesResult runModes(bool smoke) {
  ModesResult r;
  const int frames = smoke ? 2 : 5;
  const auto sd = eclipse::bench::makeWorkload(96, 80, frames);
  const auto hd = eclipse::bench::makeWorkload(128, 96, frames);
  const std::vector<app::DecodeApp::Mode> sd_hd = {{"sd", {}}, {"hd", hdDecodeConfig()}};

  // Gate 1: the mode machinery must be invisible when no switch occurs.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, sd.bitstream, sd_hd);
    r.noswitch_cycles = inst.run();
    r.noswitch_events = inst.simulator().eventsDispatched();
    r.noswitch_mbs = dec.macroblocksDecoded();
    if (!dec.done()) {
      std::fprintf(stderr, "modes: no-switch decode incomplete\n");
      r.gates_ok = false;
    }
    r.pin_checked = !smoke;
    if (r.pin_checked) {
      r.pin_ok = r.noswitch_cycles == pin::kDecodePinCycles &&
                 r.noswitch_events == pin::kDecodePinEvents &&
                 r.noswitch_mbs == pin::kDecodePinMacroblocks;
      if (!r.pin_ok) {
        std::fprintf(stderr, "modes: no-switch decode off the pin (%llu/%llu/%llu)\n",
                     static_cast<unsigned long long>(r.noswitch_cycles),
                     static_cast<unsigned long long>(r.noswitch_events),
                     static_cast<unsigned long long>(r.noswitch_mbs));
      }
    }
  }

  // Gate 2: SD->HD segment switch, diff transition vs cold relaunch.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, sd.bitstream, sd_hd);
    inst.run();
    const bool seg0_done = dec.done();
    r.seg = dec.switchSegment("hd", hd.bitstream);
    inst.run();
    const bool seg1_done = dec.done();
    r.seg_dropped = dec.framesDropped();
    r.seamless = seg0_done && seg1_done && r.seg_dropped == 0 &&
                 framesBitExact(dec.segmentFrames(0), sd.golden) &&
                 framesBitExact(dec.frames(), hd.golden);
    if (!r.seamless) {
      std::fprintf(stderr, "modes: SD->HD segment switch not seamless\n");
      r.gates_ok = false;
    }
  }
  {
    // Cold comparison: tear the finished SD application down and launch an
    // HD application from scratch at the same boundary.
    app::EclipseInstance inst;
    mem::PiBus& bus = inst.piBus();
    app::DecodeApp dec(inst, sd.bitstream, {{"sd", app::DecodeAppConfig{}}});
    inst.run();
    const std::uint64_t w0 = bus.writeCount();
    dec.teardown();
    app::DecodeApp dec2(inst, hd.bitstream, hdDecodeConfig());
    r.seg_cold_writes = bus.writeCount() - w0;
    inst.run();
    if (!dec2.done()) {
      std::fprintf(stderr, "modes: cold HD relaunch incomplete\n");
      r.gates_ok = false;
    }
  }
  if (r.seg.mmio_writes >= r.seg_cold_writes) {
    std::fprintf(stderr, "modes: diff segment switch not cheaper (%llu vs %llu writes)\n",
                 static_cast<unsigned long long>(r.seg.mmio_writes),
                 static_cast<unsigned long long>(r.seg_cold_writes));
    r.gates_ok = false;
  }

  // Gate 3: mid-clip field-only switch into the degraded (reduced-budget)
  // mode vs drain+teardown+relaunch at the same decision point.
  app::DecodeAppConfig eco;
  eco.budget_cycles = 500;
  const Cycle half = r.noswitch_cycles / 2;
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, sd.bitstream, {{"sd", app::DecodeAppConfig{}}, {"eco", eco}});
    inst.run(half);
    const Cycle c0 = inst.simulator().now();
    r.mid = dec.switchMode("eco");
    inst.run();
    r.mid_diff_to_done = inst.simulator().now() - c0;
    if (!dec.done()) {
      std::fprintf(stderr, "modes: mid-clip diff run incomplete\n");
      r.gates_ok = false;
    }
    if (r.mid.cycles != 0) {
      std::fprintf(stderr, "modes: field-only switch consumed %llu simulated cycles\n",
                   static_cast<unsigned long long>(r.mid.cycles));
      r.gates_ok = false;
    }
  }
  {
    app::EclipseInstance inst;
    mem::PiBus& bus = inst.piBus();
    app::DecodeApp dec(inst, sd.bitstream);
    inst.run(half);
    const Cycle c0 = inst.simulator().now();
    const std::uint64_t w0 = bus.writeCount();
    dec.handle().drain();
    dec.teardown();
    r.mid_cold_drain_cycles = inst.simulator().now() - c0;
    app::DecodeApp dec2(inst, sd.bitstream, eco);
    r.mid_cold_writes = bus.writeCount() - w0;
    inst.run();
    r.mid_cold_to_done = inst.simulator().now() - c0;
    if (!dec2.done()) {
      std::fprintf(stderr, "modes: mid-clip cold run incomplete\n");
      r.gates_ok = false;
    }
  }
  if (r.mid_diff_to_done >= r.mid_cold_to_done) {
    std::fprintf(stderr, "modes: diff mid-clip switch not cheaper to completion (%llu vs %llu)\n",
                 static_cast<unsigned long long>(r.mid_diff_to_done),
                 static_cast<unsigned long long>(r.mid_cold_to_done));
    r.gates_ok = false;
  }
  if (r.mid.mmio_writes >= r.mid_cold_writes) {
    std::fprintf(stderr, "modes: field-only switch not cheaper in writes (%llu vs %llu)\n",
                 static_cast<unsigned long long>(r.mid.mmio_writes),
                 static_cast<unsigned long long>(r.mid_cold_writes));
    r.gates_ok = false;
  }
  r.gates_ok = r.gates_ok && r.pin_ok;
  return r;
}

void emitModes(std::FILE* f, const ModesResult& r) {
  const double ratio = r.seg_cold_writes > 0
                           ? static_cast<double>(r.seg.mmio_writes) /
                                 static_cast<double>(r.seg_cold_writes)
                           : 0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-modes-v1\",\n");
  std::fprintf(f,
               "  \"no_switch\": {\"sim_cycles\": %llu, \"events\": %llu, "
               "\"macroblocks\": %llu, \"pin_checked\": %s, \"pin_ok\": %s},\n",
               static_cast<unsigned long long>(r.noswitch_cycles),
               static_cast<unsigned long long>(r.noswitch_events),
               static_cast<unsigned long long>(r.noswitch_mbs),
               r.pin_checked ? "true" : "false", r.pin_ok ? "true" : "false");
  std::fprintf(f,
               "  \"segment_switch\": {\"diff_mmio_writes\": %llu, \"diff_mmio_reads\": %llu, "
               "\"transition_cycles\": %llu, \"tasks_kept\": %u, \"streams_kept\": %u, "
               "\"streams_rebound\": %u, \"cold_mmio_writes\": %llu, "
               "\"diff_vs_cold_write_ratio\": %.3f, \"frames_dropped\": %llu, "
               "\"seamless\": %s},\n",
               static_cast<unsigned long long>(r.seg.mmio_writes),
               static_cast<unsigned long long>(r.seg.mmio_reads),
               static_cast<unsigned long long>(r.seg.cycles), r.seg.tasks_kept,
               r.seg.streams_kept, r.seg.streams_removed,
               static_cast<unsigned long long>(r.seg_cold_writes), ratio,
               static_cast<unsigned long long>(r.seg_dropped), r.seamless ? "true" : "false");
  std::fprintf(f,
               "  \"midclip_switch\": {\"diff_transition_cycles\": %llu, "
               "\"diff_mmio_writes\": %llu, \"cold_drain_cycles\": %llu, "
               "\"cold_mmio_writes\": %llu, \"diff_cycles_to_done\": %llu, "
               "\"cold_cycles_to_done\": %llu},\n",
               static_cast<unsigned long long>(r.mid.cycles),
               static_cast<unsigned long long>(r.mid.mmio_writes),
               static_cast<unsigned long long>(r.mid_cold_drain_cycles),
               static_cast<unsigned long long>(r.mid_cold_writes),
               static_cast<unsigned long long>(r.mid_diff_to_done),
               static_cast<unsigned long long>(r.mid_cold_to_done));
  std::fprintf(f, "  \"gates_ok\": %s\n", r.gates_ok ? "true" : "false");
  std::fprintf(f, "}\n");
}

void emit(std::FILE* f, const std::vector<Result>& results) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"eclipse-bench-kernel-v1\",\n");
  std::fprintf(f, "  \"wheel_span\": %llu,\n",
               static_cast<unsigned long long>(sim::EventQueue::kWheelSpan));
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const double eps = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, \"sim_cycles\": %llu, "
                 "\"wall_s\": %.6f, \"events_per_sec\": %.0f, "
                 "\"sim_cycles_per_sec\": %.0f, \"repeats\": %d}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.sim_cycles), r.wall_s, eps,
                 r.wall_s > 0 ? static_cast<double>(r.sim_cycles) / r.wall_s : 0,
                 r.repeats, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  int repeats = 5;
  bool smoke = false;
  bool transport = false;
  bool reconfig = false;
  bool faults = false;
  bool farm_bench = false;
  bool chaos_bench = false;
  bool media_bench = false;
  bool modes_bench = false;
  bool serve_bench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      transport = true;
    } else if (std::strcmp(argv[i], "--reconfig") == 0) {
      reconfig = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(argv[i], "--farm") == 0) {
      farm_bench = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos_bench = true;
    } else if (std::strcmp(argv[i], "--media") == 0) {
      media_bench = true;
    } else if (std::strcmp(argv[i], "--modes") == 0) {
      modes_bench = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve_bench = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--repeats N] [--smoke] "
                   "[--transport | --reconfig | --faults | --farm | --chaos | --media"
                   " | --modes | --serve]\n",
                   argv[0]);
      return 2;
    }
  }
  if (repeats < 1) repeats = 1;
  if (out.empty()) {
    out = serve_bench
              ? "BENCH_serve.json"
              : chaos_bench
              ? "BENCH_chaos.json"
              : modes_bench
              ? "BENCH_modes.json"
              : media_bench
                    ? "BENCH_media.json"
                    : farm_bench
                          ? "BENCH_farm.json"
                          : (faults ? "BENCH_faults.json"
                                    : (reconfig ? "BENCH_reconfig.json"
                                                : (transport ? "BENCH_transport.json"
                                                             : "BENCH_kernel.json")));
  }

  if (serve_bench) {
    const ServeBenchResult r = runServe(smoke);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitServe(f, r);
    std::fclose(f);
    emitServe(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    // Wire identity to the submitWait oracle, the unarmed decode pin,
    // no-starvation fair share and the zero-loss drain are hard gates.
    return r.gatesOk() ? 0 : 1;
  }

  if (chaos_bench) {
    const ChaosBenchResult r = runChaos(smoke);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitChaos(f, r);
    std::fclose(f);
    emitChaos(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    // Terminality, retry bit-identity, quarantine exactness and the
    // unarmed zero-overhead claim are hard gates, not perf numbers.
    return r.gatesOk() ? 0 : 1;
  }

  if (modes_bench) {
    const ModesResult r = runModes(smoke);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitModes(f, r);
    std::fclose(f);
    emitModes(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    // Seamlessness, the diff-cheaper-than-cold comparisons, and (on full
    // runs) the no-switch decode pin are hard gates, not perf numbers.
    return r.gates_ok ? 0 : 1;
  }

  if (media_bench) {
    const MediaBenchResult r = runMedia(smoke, repeats);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitMedia(f, r);
    std::fclose(f);
    emitMedia(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    // Bit-identity to the scalar oracle and the backend-invariant decode
    // pin are hard gates, not perf numbers.
    return (r.identity_ok && r.pin_ok) ? 0 : 1;
  }
  if (farm_bench) {
    const FarmBenchResult r = runFarm(smoke);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitFarm(f, r);
    std::fclose(f);
    emitFarm(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    // The determinism contract is a hard invariant, not a perf number.
    return r.deterministic ? 0 : 1;
  }
  if (faults) {
    const FaultsResult r = runFaults(smoke);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitFaults(f, r);
    std::fclose(f);
    emitFaults(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
  }
  if (reconfig) {
    const ReconfigResult r = runReconfig(smoke);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitReconfig(f, r);
    std::fclose(f);
    emitReconfig(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
  }
  if (transport) {
    const TransportResult r = runTransport(smoke, smoke ? 1 : repeats);
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
      return 1;
    }
    emitTransport(f, r);
    std::fclose(f);
    emitTransport(stdout, r);
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
  }
  const int hops = smoke ? 500 : 20000;
  const int rounds = smoke ? 100 : 2000;
  const int callbacks = smoke ? 10000 : 200000;

  std::vector<Result> results;
  results.push_back(measure("pure_delay_storm", repeats, [&] { return runPureDelayStorm(hops); }));
  results.push_back(measure("long_delay_storm", repeats,
                            [&] { return runLongDelayStorm(smoke ? 100 : 2000); }));
  results.push_back(measure("mixed_fanout", repeats, [&] { return runMixedFanout(rounds); }));
  results.push_back(
      measure("callback_dispatch", repeats, [&] { return runCallbackDispatch(callbacks); }));

  // Reference timed decode: simulated-cycles/sec for the standard workload.
  {
    const auto w = eclipse::bench::makeWorkload(96, 80, smoke ? 2 : 5);
    results.push_back(measure("timed_decode", smoke ? 1 : repeats, [&] {
      app::EclipseInstance inst;
      app::DecodeApp dec(inst, w.bitstream);
      const Cycle cycles = inst.run();
      if (!dec.done()) std::fprintf(stderr, "warning: decode incomplete\n");
      return std::pair<std::uint64_t, std::uint64_t>{inst.simulator().eventsDispatched(), cycles};
    }));
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n", out.c_str());
    return 1;
  }
  emit(f, results);
  std::fclose(f);
  emit(stdout, results);
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
