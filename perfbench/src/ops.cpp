#include "ops.hpp"

#include <memory>
#include <utility>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/encode_app.hpp"

namespace perfbench {

namespace {

using namespace eclipse;

/// Simulated-cycle cap of one operation; a run that reaches it has hung.
constexpr sim::Cycle kMaxCycles = 2'000'000'000;
/// Allowance for draining residual events before teardown (the farm
/// worker's settle step).
constexpr sim::Cycle kSettleCycles = 1'000'000;

/// Reads the public counters of every measured module after a run from
/// cycle 0 that took `cycles`.
Counters collect(app::EclipseInstance& inst, sim::Cycle cycles) {
  Counters c;
  c.cycles = static_cast<double>(cycles);
  c.events = static_cast<double>(inst.simulator().eventsDispatched());

  c.putspace_msgs = static_cast<double>(inst.network().messagesSent());
  const mem::BusStats& rd = inst.sram().readBus().stats();
  const mem::BusStats& wr = inst.sram().writeBus().stats();
  const mem::BusStats& sys = inst.dram().bus().stats();
  c.bus_transactions = static_cast<double>(rd.transactions + wr.transactions + sys.transactions);
  c.sram_rd_busy = static_cast<double>(rd.busy_cycles);
  c.sram_wr_busy = static_cast<double>(wr.busy_cycles);
  c.sys_bus_busy = static_cast<double>(sys.busy_cycles);

  for (const auto& sh : inst.shells()) {
    c.task_switches += static_cast<double>(sh->taskSwitches());
    const shell::StreamTable& table = std::as_const(*sh).streams();
    for (std::uint32_t i = 0; i < table.capacity(); ++i) {
      const shell::StreamRow& r = table.row(i);
      if (!r.valid) continue;
      c.cache_hits += static_cast<double>(r.cache_hits);
      c.cache_misses += static_cast<double>(r.cache_misses);
      c.cache_flushes += static_cast<double>(r.cache_flushes);
      c.prefetches += static_cast<double>(r.prefetches);
      c.getspace_calls += static_cast<double>(r.getspace_calls);
      c.getspace_denied += static_cast<double>(r.getspace_denied);
      c.bytes_transferred += static_cast<double>(r.bytes_transferred);
    }
  }

  for (std::size_t i = 0; i < kCoprocs.size(); ++i) {
    c.busy[i] = inst.shell(kCoprocs[i]).utilization(cycles) * static_cast<double>(cycles);
  }
  c.steps = static_cast<double>(inst.vld().stepsExecuted() + inst.rlsq().stepsExecuted() +
                                inst.dct().stepsExecuted() + inst.mc().stepsExecuted() +
                                inst.cpu().stepsExecuted());
  c.vld_symbols = static_cast<double>(inst.vld().symbolsDecoded());
  c.dct_blocks = static_cast<double>(inst.dct().blocksTransformed());
  c.mc_predictions = static_cast<double>(inst.mc().predictionsFetched());
  c.mc_searches = static_cast<double>(inst.mc().searchesPerformed());
  return c;
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  cycles += o.cycles;
  events += o.events;
  putspace_msgs += o.putspace_msgs;
  bus_transactions += o.bus_transactions;
  pibus_writes += o.pibus_writes;
  sram_rd_busy += o.sram_rd_busy;
  sram_wr_busy += o.sram_wr_busy;
  sys_bus_busy += o.sys_bus_busy;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_flushes += o.cache_flushes;
  prefetches += o.prefetches;
  getspace_calls += o.getspace_calls;
  getspace_denied += o.getspace_denied;
  task_switches += o.task_switches;
  bytes_transferred += o.bytes_transferred;
  for (std::size_t i = 0; i < busy.size(); ++i) busy[i] += o.busy[i];
  steps += o.steps;
  vld_symbols += o.vld_symbols;
  dct_blocks += o.dct_blocks;
  mc_predictions += o.mc_predictions;
  mc_searches += o.mc_searches;
  return *this;
}

Counters& Counters::operator/=(double d) {
  for (double* f : {&cycles, &events, &putspace_msgs, &bus_transactions, &pibus_writes,
                    &sram_rd_busy, &sram_wr_busy, &sys_bus_busy, &cache_hits, &cache_misses,
                    &cache_flushes, &prefetches, &getspace_calls, &getspace_denied,
                    &task_switches, &bytes_transferred, &steps, &vld_symbols, &dct_blocks,
                    &mc_predictions, &mc_searches}) {
    *f /= d;
  }
  for (double& b : busy) b /= d;
  return *this;
}

OpResult runOp(const app::InstanceParams& params, const std::vector<AppRun>& apps,
               Tracer& tracer, std::uint64_t op) {
  OpResult out;
  const auto root = tracer.scope("op", op);

  std::unique_ptr<app::EclipseInstance> inst;
  {
    const auto s = tracer.scope("app.build", op);
    inst = std::make_unique<app::EclipseInstance>(params);
  }

  std::vector<std::unique_ptr<app::DecodeApp>> decoders(apps.size());
  std::vector<std::unique_ptr<app::EncodeApp>> encoders(apps.size());
  {
    const auto s = tracer.scope("app.configure", op);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (apps[i].encode) {
        encoders[i] = std::make_unique<app::EncodeApp>(*inst, *apps[i].frames, *apps[i].codec);
      } else {
        decoders[i] = std::make_unique<app::DecodeApp>(*inst, *apps[i].bitstream);
      }
    }
  }

  sim::Cycle cycles = 0;
  {
    const auto s = tracer.scope("sim.run", op);
    cycles = inst->run(kMaxCycles);
  }
  out.counters = collect(*inst, cycles);

  bool ok = true;
  {
    const auto s = tracer.scope("media.verify", op);
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (apps[i].encode) {
        ok = ok && encoders[i]->done() &&
             (apps[i].golden_bits == nullptr || encoders[i]->bitstream() == *apps[i].golden_bits);
      } else {
        ok = ok && decoders[i]->done() && decoders[i]->frames() == *apps[i].golden;
      }
    }
  }
  out.ok = ok;

  {
    const auto s = tracer.scope("app.teardown", op);
    sim::Simulator& sim = inst->simulator();
    if (ok && !sim.quiescent()) inst->run(sim.now() + kSettleCycles);
    const bool force = !ok || !sim.quiescent();
    for (auto& d : decoders) {
      if (d) d->handle().teardown(force);
    }
    for (auto& e : encoders) {
      if (e) e->handle().teardown(force);
    }
    out.counters.pibus_writes = static_cast<double>(inst->piBus().writeCount());
    decoders.clear();
    encoders.clear();
    inst.reset();
  }
  return out;
}

}  // namespace perfbench
