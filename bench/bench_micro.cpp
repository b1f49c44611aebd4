// Host-side microbenchmarks (google-benchmark): throughput of the codec
// kernels and the simulation kernel itself. These measure the *simulator*
// (wall-clock), complementing the simulated-cycle experiments E1-E11.
// Media kernels run on the startup SIMD backend; ECLIPSE_SIMD=<backend>
// (scalar, avx2) times one backend.

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "bench_util.hpp"
#include "eclipse/media/dct.hpp"
#include "eclipse/media/kernels.hpp"
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

// Quantizer, scan and run-length kernels on 256 random blocks, cycled so
// the working set stays cache-resident and the time is kernel arithmetic.
std::vector<media::Block> randomBlocks(std::uint64_t seed, int magnitude, bool sparse) {
  sim::Prng rng(seed);
  std::vector<media::Block> blocks(256);
  for (auto& b : blocks) {
    for (auto& v : b) {
      v = static_cast<std::int16_t>(rng.range(-magnitude, magnitude));
      if (sparse && rng.below(8) != 0) v = 0;  // post-quantization shape
    }
  }
  return blocks;
}

void BM_BlockQuantize(benchmark::State& state) {
  const auto in = randomBlocks(4, 2047, false);
  const auto& k = media::kernels::active();
  media::Block out;
  std::size_t i = 0;
  for (auto _ : state) {
    const int qscale = 1 + static_cast<int>(i & 15);
    k.quantize(in[i++ & 255], out, qscale, media::quant::defaultIntraMatrix());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockQuantize);

void BM_BlockDequantize(benchmark::State& state) {
  const auto in = randomBlocks(5, 2047, false);
  const auto& k = media::kernels::active();
  media::Block out;
  std::size_t i = 0;
  for (auto _ : state) {
    const int qscale = 1 + static_cast<int>(i & 15);
    k.dequantize(in[i++ & 255], out, qscale, media::quant::defaultIntraMatrix());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockDequantize);

void BM_BlockScanRle(benchmark::State& state) {
  const auto in = randomBlocks(6, 2047, true);
  const auto& k = media::kernels::active();
  media::Block scanned;
  media::rle::RunLevels pairs;
  std::size_t i = 0;
  for (auto _ : state) {
    k.to_scan(in[i++ & 255], scanned, media::scan::Order::Zigzag);
    k.rle_encode(scanned, pairs);
    benchmark::DoNotOptimize(pairs.begin());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockScanRle);

// 16x16 half-pel SAD and interpolation at shifting offsets of two random
// 128x80 planes (both fraction bits set: the four-tap average).
struct PixelPlanes {
  static constexpr int kW = 128, kH = 80;
  std::vector<std::uint8_t> ref, cur;
  PixelPlanes() : ref(kW * kH), cur(kW * kH) {
    sim::Prng rng(7);
    for (auto& v : ref) v = static_cast<std::uint8_t>(rng.below(256));
    for (auto& v : cur) v = static_cast<std::uint8_t>(rng.below(256));
  }
  // Reads stay inside the plane: 16+1 columns and rows past the origin.
  const std::uint8_t* refAt(std::size_t i) const { return ref.data() + (i % 63) * kW + i % 111; }
  const std::uint8_t* curAt(std::size_t i) const { return cur.data() + (i % 57) * kW + i % 101; }
};

void BM_PixelSadHalfPel(benchmark::State& state) {
  const PixelPlanes p;
  const auto& k = media::kernels::active();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.sad_16xh(p.curAt(i), PixelPlanes::kW, p.refAt(i),
                                        PixelPlanes::kW, 16, 1, 1));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PixelSadHalfPel);

void BM_PixelInterpHalfPel(benchmark::State& state) {
  const PixelPlanes p;
  const auto& k = media::kernels::active();
  std::array<std::uint8_t, 256> dst;
  std::size_t i = 0;
  for (auto _ : state) {
    k.interp_16xh(dst.data(), 16, p.refAt(i++), PixelPlanes::kW, 16, 1, 1);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PixelInterpHalfPel);

void BM_VlcBlockRoundTrip(benchmark::State& state) {
  sim::Prng rng(3);
  media::rle::RunLevels pairs;
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

// One CIF macroblock, ±8 full search with half-pel refinement, between two
// consecutive generated frames. The corner macroblock's window overhangs
// two frame edges (its window rows clamp at both ends); the interior one's
// window rows are plain copies.
void motionSearchAt(benchmark::State& state, int mb_x, int mb_y) {
  media::VideoGenParams vp;
  vp.width = 352;
  vp.height = 288;
  vp.frames = 2;
  const auto frames = media::generateVideo(vp);
  media::motion::SearchParams sp;
  sp.range = 8;
  int candidates = 0;
  for (auto _ : state) {
    const auto r = media::motion::search(frames[1], frames[0], mb_x, mb_y, sp);
    candidates = r.candidates;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * candidates);
}

void BM_MotionSearchInterior(benchmark::State& state) { motionSearchAt(state, 10, 8); }
BENCHMARK(BM_MotionSearchInterior);

void BM_MotionSearchCorner(benchmark::State& state) { motionSearchAt(state, 0, 0); }
BENCHMARK(BM_MotionSearchCorner);

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
// E1-E12 experiments).

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

// Mixed-fanout resume pattern: one notifier waking 32 waiters each cycle,
// the wake shape of the shells' scheduler and space events.
void BM_KernelMixedFanout(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::SimEvent ev(sim);
    std::uint64_t wakes = 0;
    for (int p = 0; p < 32; ++p) sim.spawn(fanoutWaiter(ev, 500, wakes), "waiter");
    sim.spawn(fanoutNotifier(sim, ev, 500), "notifier");
    sim.run();
    benchmark::DoNotOptimize(wakes);
    events += sim.eventsDispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelMixedFanout);

sim::Task<void> childDelay(sim::Simulator& sim) { co_await sim.delay(1); }

sim::Task<void> suspendLoop(sim::Simulator& sim, int rounds, bool via_task) {
  for (int i = 0; i < rounds; ++i) {
    if (via_task) {
      co_await childDelay(sim);
    } else {
      co_await sim.delay(1);
    }
  }
}

// The same one-cycle suspension in two forms: `task:1` awaits a child Task
// (a coroutine frame from the pool, started and finished by symmetric
// transfer) that awaits the delay; `task:0` awaits the delay awaiter
// directly. Both dispatch one event per suspension, so the difference per
// item is what a coroutine frame costs over an awaiter.
void BM_KernelTaskFrameVsAwaiter(benchmark::State& state) {
  const bool via_task = state.range(0) != 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int p = 0; p < 64; ++p) sim.spawn(suspendLoop(sim, 1000, via_task), "loop");
    sim.run();
    events += sim.eventsDispatched();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_KernelTaskFrameVsAwaiter)->ArgName("task")->Arg(0)->Arg(1);

// Reference timed decode, reported as simulated cycles per wall second —
// the end-to-end number every E-bench inherits.
// The reference timed decode: the 96x80, 5-frame clip (30 macroblocks a
// picture) through a fresh instance per iteration. Reports simulated cycles
// per host second and decoded macroblocks per second (items).
void BM_KernelTimedDecode96x80(benchmark::State& state) {
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
  state.SetItemsProcessed(state.iterations() * 5 * 30);  // MBs
}
BENCHMARK(BM_KernelTimedDecode96x80)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
