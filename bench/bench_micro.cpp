// Host-side microbenchmarks (google-benchmark): throughput of the codec
// kernels and the simulation kernel itself. These measure the *simulator*
// (wall-clock), complementing the simulated-cycle experiments E1-E11.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "eclipse/media/dct.hpp"
#include "eclipse/media/vlc.hpp"
#include "eclipse/sim/sim_event.hpp"

using namespace eclipse;

namespace {

media::Block randomBlock(sim::Prng& rng) {
  media::Block b;
  for (auto& v : b) v = static_cast<std::int16_t>(rng.range(-255, 255));
  return b;
}

void BM_DctForward(benchmark::State& state) {
  sim::Prng rng(1);
  const auto in = randomBlock(rng);
  media::Block out;
  for (auto _ : state) {
    media::dct::forward(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DctForward);

void BM_DctInverse(benchmark::State& state) {
  sim::Prng rng(2);
  const auto in = randomBlock(rng);
  media::Block out;
  for (auto _ : state) {
    media::dct::inverse(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DctInverse);

void BM_VlcBlockRoundTrip(benchmark::State& state) {
  sim::Prng rng(3);
  std::vector<media::rle::RunLevel> pairs;
  for (int i = 0; i < 20; ++i) {
    pairs.push_back(media::rle::RunLevel{static_cast<std::uint8_t>(rng.below(3)),
                                         static_cast<std::int16_t>(rng.range(1, 40))});
  }
  for (auto _ : state) {
    media::BitWriter bw;
    media::vlc::putBlock(bw, pairs);
    const auto bytes = bw.finish();
    media::BitReader br(bytes);
    auto back = media::vlc::getBlock(br);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_VlcBlockRoundTrip);

void BM_EncodeQcifFrame(benchmark::State& state) {
  media::VideoGenParams vp;
  vp.width = 176;
  vp.height = 144;
  vp.frames = 1;
  const auto frames = media::generateVideo(vp);
  media::CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  for (auto _ : state) {
    media::Encoder enc(cp);
    auto bits = enc.encode(frames);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(state.iterations() * 99);  // macroblocks
}
BENCHMARK(BM_EncodeQcifFrame)->Unit(benchmark::kMillisecond);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(static_cast<sim::Cycle>(i % 97), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

// --------------------------------------------------------------- kernel
// Wall-clock throughput of the event kernel itself (the bottleneck of all
// E1-E12 experiments). The same scenarios run under tools/bench_json,
// which emits BENCH_kernel.json for tracking across PRs.

sim::Task<void> storm(sim::Simulator& sim, sim::Cycle stride, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(stride);
}

// Pure-delay storm: every event is a coroutine resume from DelayAwaiter —
// the allocation-free fast path. Mixed strides of 1-13 cycles keep every
// push in the near wheel, reusing slab nodes through the free list.
void BM_KernelPureDelayStorm(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int p = 0; p < 64; ++p) {
      sim.spawn(storm(sim, static_cast<sim::Cycle>(p % 13) + 1, 5000), "storm");
    }
    sim.run();
    events += sim.eventsDispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelPureDelayStorm);

// Long-delay storm: strides beyond the wheel span force the overflow heap
// and window-jump path; guards against regressions in the slow path.
void BM_KernelLongDelayStorm(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int p = 0; p < 64; ++p) {
      sim.spawn(storm(sim, static_cast<sim::Cycle>(4096 + 977 * p), 500), "far");
    }
    sim.run();
    events += sim.eventsDispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelLongDelayStorm);

// The push-delay mix measured on decode_cif (DESIGN §6): 0: 18.7%, 1: 27.4%,
// 2-3: 20%, 4-15: 29%, 16-63: 4.3%, 64-4095: 0.6%. Precomputed so the
// timed loop spends nothing on random numbers.
std::vector<sim::Cycle> decodeDelayMix(std::size_t n) {
  sim::Prng rng(17);
  std::vector<sim::Cycle> delays(n);
  for (auto& d : delays) {
    const std::uint64_t r = rng.below(1000);
    d = static_cast<sim::Cycle>(r < 187   ? 0
                                : r < 461 ? 1
                                : r < 661 ? rng.range(2, 3)
                                : r < 951 ? rng.range(4, 15)
                                : r < 994 ? rng.range(16, 63)
                                          : rng.range(64, 4095));
  }
  return delays;
}

// Always suspends, so a zero delay is a same-cycle push like the decode's
// handshakes (sim.delay(0) would complete without an event).
struct Reschedule {
  sim::Simulator& sim;
  sim::Cycle n;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim.scheduleResume(n, h); }
  void await_resume() const noexcept {}
};

sim::Task<void> delayMixProcess(sim::Simulator& sim, const std::vector<sim::Cycle>& delays,
                                std::size_t offset, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await Reschedule{sim, delays[(offset + static_cast<std::size_t>(i)) % delays.size()]};
  }
}

// Decode delay mix: 64 live processes replaying the measured push-delay
// distribution — the event kernel's shape in the real timed decode.
void BM_KernelDecodeDelayMix(benchmark::State& state) {
  const auto delays = decodeDelayMix(4096);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int p = 0; p < 64; ++p) {
      sim.spawn(delayMixProcess(sim, delays, static_cast<std::size_t>(p) * 61, 2000), "mix");
    }
    sim.run();
    events += sim.eventsDispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelDecodeDelayMix);

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

// Mixed-fanout resume pattern: one notifier waking 32 waiters each cycle
// plus 16 workers contending on a 4-slot semaphore — the wake shapes of
// shells (sched/space events) and buses (grant semaphores).
void BM_KernelMixedFanout(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::SimEvent ev(sim);
    sim::Semaphore sem(sim, 4);
    std::uint64_t wakes = 0;
    for (int p = 0; p < 32; ++p) sim.spawn(fanoutWaiter(ev, 500, wakes), "waiter");
    sim.spawn(fanoutNotifier(sim, ev, 500), "notifier");
    for (int p = 0; p < 16; ++p) sim.spawn(semWorker(sim, sem, 500), "sem");
    sim.run();
    benchmark::DoNotOptimize(wakes);
    events += sim.eventsDispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelMixedFanout);

// Reference timed decode, reported as simulated cycles per wall second —
// the end-to-end number every E-bench inherits.
void BM_KernelTimedDecode(benchmark::State& state) {
  const auto w = eclipse::bench::makeWorkload(96, 80, 5);
  std::uint64_t cycles_total = 0;
  for (auto _ : state) {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    const auto cycles = inst.run();
    benchmark::DoNotOptimize(cycles);
    if (!dec.done()) state.SkipWithError("decode incomplete");
    cycles_total += cycles;
  }
  state.counters["sim_cycles_per_sec"] =
      benchmark::Counter(static_cast<double>(cycles_total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelTimedDecode)->Unit(benchmark::kMillisecond);

void BM_EclipseDecodeQcif(benchmark::State& state) {
  const auto w = eclipse::bench::makeWorkload(96, 80, 5);
  for (auto _ : state) {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, w.bitstream);
    const auto cycles = inst.run();
    benchmark::DoNotOptimize(cycles);
    if (!dec.done()) state.SkipWithError("decode incomplete");
  }
  state.SetLabel("simulated cycles per run reported by E-benches");
  state.SetItemsProcessed(state.iterations() * 5 * 30);  // MBs
}
BENCHMARK(BM_EclipseDecodeQcif)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
