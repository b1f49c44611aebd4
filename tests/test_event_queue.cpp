// Tests for the timing-wheel event kernel: the allocation-free Event type,
// the coroutine frame pool, same-cycle FIFO order across the
// bucket/overflow-heap boundary, wheel wrap-around at large cycle deltas,
// teardown with pending events, and a determinism regression against the
// seed (binary-heap) kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/video_gen.hpp"
#include "eclipse/sim/event.hpp"
#include "eclipse/sim/event_queue.hpp"
#include "eclipse/sim/prng.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"

#include "decode_pin.hpp"

namespace {

using namespace eclipse;
using namespace eclipse::sim;

constexpr Cycle kSpan = EventQueue::kWheelSpan;

static_assert(sizeof(Event) == 32);

// ----------------------------------------------------------------- event

// Heap-held callable (non-trivially copyable) that counts how often the
// instance owning its state is destroyed; moved-from copies do not count.
struct CountedDrop {
  int* drops;
  bool owner = true;
  explicit CountedDrop(int* d) : drops(d) {}
  CountedDrop(CountedDrop&& o) noexcept : drops(o.drops), owner(std::exchange(o.owner, false)) {}
  CountedDrop(const CountedDrop&) = delete;
  CountedDrop& operator=(const CountedDrop&) = delete;
  CountedDrop& operator=(CountedDrop&&) = delete;
  ~CountedDrop() {
    if (owner) ++*drops;
  }
  void operator()() {}
};

TEST(Event, InlineCallableRunsWithoutAllocation) {
  int hits = 0;
  int* p = &hits;
  Event ev([p] { ++*p; });  // small + trivially copyable: stored inline
  Event moved = std::move(ev);
  moved();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(static_cast<bool>(ev));  // NOLINT(bugprone-use-after-move)
}

TEST(Event, LargeOrNonTrivialCallableFallsBackToHeap) {
  auto token = std::make_shared<int>(7);
  int got = 0;
  {
    Event ev([token, &got] { got = *token; });  // shared_ptr: non-trivial copy
    EXPECT_EQ(token.use_count(), 2);
    ev();
  }
  EXPECT_EQ(got, 7);
  EXPECT_EQ(token.use_count(), 1);  // holder destroyed with the event
}

TEST(Event, DroppingHeapEventReleasesWithoutInvoking) {
  auto token = std::make_shared<int>(1);
  bool ran = false;
  {
    Event ev([token, &ran] { ran = true; });
    EXPECT_EQ(token.use_count(), 2);
  }  // destroyed, never invoked
  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Event, HeapHolderIsDestroyedExactlyOnce) {
  int dropped = 0;
  { Event ev(CountedDrop{&dropped}); }
  EXPECT_EQ(dropped, 1);

  int replaced = 0, kept = 0;
  {
    Event a(CountedDrop{&replaced});
    Event b(CountedDrop{&kept});
    a = std::move(b);  // a's old holder goes, b's holder moves into a
    EXPECT_EQ(replaced, 1);
    EXPECT_EQ(kept, 0);
  }
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(kept, 1);

  int cleared = 0;
  EventQueue q;
  q.push(3, CountedDrop{&cleared});          // in the wheel
  q.push(kSpan * 2, CountedDrop{&cleared});  // in the overflow heap
  q.clear();
  EXPECT_EQ(cleared, 2);
}

Task<void> noop() { co_return; }

TEST(Event, MovedFromEventIsEmpty) {
  int hits = 0;
  int* p = &hits;
  auto token = std::make_shared<int>(0);
  Task<void> task = noop();
  std::vector<Event> events;
  events.emplace_back(task.handle());                         // coroutine
  events.emplace_back([p] { ++*p; });                         // inline
  events.emplace_back([token, p] { *p += *token + 10; });     // heap
  for (Event& ev : events) {
    ASSERT_TRUE(static_cast<bool>(ev));
    Event moved = std::move(ev);
    EXPECT_FALSE(static_cast<bool>(ev));  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(ev.isCoroutine());       // NOLINT(bugprone-use-after-move)
    ev();                                 // invoking an empty event is a no-op
    moved();
  }
  EXPECT_TRUE(task.done());
  EXPECT_EQ(hits, 11);
  EXPECT_EQ(token.use_count(), 1);  // each holder went with its `moved`
}

// ------------------------------------------------------------ frame pool

Task<int> addOne(int x) { co_return x + 1; }

Task<void> consume(Task<int> t, int& out) { out = co_await t; }

TEST(FramePool, SameSizeFrameReusesItsBlock) {
  if (!detail::frame_pool::kEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  void* first = nullptr;
  {
    Task<int> t = addOne(1);
    first = t.handle().address();
  }
  Task<int> again = addOne(2);
  EXPECT_EQ(again.handle().address(), first);
}

TEST(FramePool, TaskFreedOnAnotherThreadIsReusedCleanly) {
  Task<int> made;
  std::thread([&] { made = addOne(1); }).join();  // frame allocated on thread A
  void* freed = nullptr;
  void* reused = nullptr;
  int got = 0;
  std::thread([&] {
    freed = made.handle().address();
    made = Task<int>{};  // destroyed on thread B: joins B's free list
    Task<int> again = addOne(41);
    reused = again.handle().address();
    Simulator sim;
    sim.spawn(consume(std::move(again), got), "consume");
    sim.run();
  }).join();  // thread B's exit releases its cached frames
  EXPECT_EQ(got, 42);
  if (detail::frame_pool::kEnabled) {
    EXPECT_EQ(reused, freed);
  }
}

// ----------------------------------------------------- wheel fundamentals

TEST(EventQueueWheel, PopsAcrossWheelAndOverflowInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(kSpan * 3, [&] { order.push_back(3); });  // overflow heap
  q.push(1, [&] { order.push_back(1); });          // wheel
  q.push(kSpan + 5, [&] { order.push_back(2); });  // overflow heap
  q.push(0, [&] { order.push_back(0); });          // wheel, current cycle
  Cycle prev = 0;
  while (!q.empty()) {
    Cycle at = 0;
    auto ev = q.pop(&at);
    EXPECT_GE(at, prev);
    prev = at;
    ev();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueWheel, SameCycleFifoAcrossBucketHeapBoundary) {
  EventQueue q;
  std::vector<int> order;
  const Cycle x = kSpan + 4;  // beyond the horizon while base is 0
  q.push(x, [&] { order.push_back(0); });  // lands in the overflow heap
  q.push(x, [&] { order.push_back(1); });  // FIFO within the heap too
  q.push(10, [&] { order.push_back(-1); });
  // Draining cycle 10 advances the window; x now fits and both heap
  // entries must migrate into their bucket *before* any later push.
  q.pop()();
  q.push(x, [&] { order.push_back(2); });  // direct wheel push, same cycle
  q.push(x, [&] { order.push_back(3); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

TEST(EventQueueWheel, WrapAroundAtLargeCycleDeltas) {
  EventQueue q;
  std::vector<Cycle> popped;
  // Cycles crossing many wheel spans; several alias to the same bucket
  // index mod kSpan, so ordering must come from the window logic alone.
  std::vector<Cycle> cycles;
  for (int k = 12; k >= 0; --k) cycles.push_back(static_cast<Cycle>(k) * (kSpan - 1));
  for (Cycle c : cycles) {
    q.push(c, [&popped, c] { popped.push_back(c); });
  }
  while (!q.empty()) {
    Cycle at = 0;
    q.pop(&at)();
    ASSERT_EQ(at, popped.back());
  }
  EXPECT_EQ(popped.size(), cycles.size());
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LT(popped[i - 1], popped[i]);
}

TEST(EventQueueWheel, WindowJumpOverEmptySpans) {
  EventQueue q;
  Cycle seen = 0;
  q.push(1'000'000'000, [&] { seen = 1; });  // far beyond any wheel span
  Cycle at = 0;
  q.pop(&at)();
  EXPECT_EQ(at, 1'000'000'000u);
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(q.empty());
  // The queue stays usable after the jump; earlier pushes clamp forward.
  q.push(5, [&] { seen = 2; });
  q.pop(&at)();
  EXPECT_EQ(seen, 2u);
}

TEST(EventQueueWheel, PushDuringDrainOfSameCycleKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  q.push(7, [&] {
    order.push_back(0);
    q.push(7, [&] { order.push_back(2); });  // same cycle, while draining it
  });
  q.push(7, [&] { order.push_back(1); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueWheel, ClearDropsPendingHeapEventsWithoutInvoking) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  bool ran = false;
  q.push(3, [token, &ran] { ran = true; });       // heap-held callable
  q.push(kSpan * 2, [token, &ran] { ran = true; });  // pending in overflow
  EXPECT_EQ(token.use_count(), 3);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1);
}

// ------------------------------------------------------------- teardown

Task<void> sleeper(Simulator& sim, Cycle n) { co_await sim.delay(n); }

TEST(SimulatorTeardown, DestroyProcessesWithPendingInlineEvents) {
  Simulator sim;
  // Coroutine resumes pending in the wheel and in the overflow heap.
  sim.spawn(sleeper(sim, 3), "near");
  sim.spawn(sleeper(sim, kSpan * 5), "far");
  sim.run(1);  // start both; they are now suspended in delay()
  EXPECT_EQ(sim.liveProcesses(), 2u);
  EXPECT_FALSE(sim.quiescent());
  sim.destroyProcesses();  // must drop events before frames, no crash
  EXPECT_EQ(sim.liveProcesses(), 0u);
  EXPECT_TRUE(sim.quiescent());
  // The simulator stays usable after teardown.
  Cycle done = 0;
  sim.spawn(sleeper(sim, 2), "again");
  sim.schedule(4, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, sim.now());
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

// ---------------------------------------------------------- determinism

// Regression pin against the seed kernel (std::function + binary heap):
// the queue swap must not change simulation results. These constants were
// captured from the seed build for the standard fixed-seed workload
// (96x80, 5 frames, qscale 14, GOP {9,3}, seed 3) and may only change
// when the *timing model* changes — never from kernel data structures.
TEST(Determinism, TimedDecodeMatchesSeedKernel) {
  media::VideoGenParams vp;
  vp.width = 96;
  vp.height = 80;
  vp.frames = 5;
  vp.seed = 3;
  vp.detail = 8;
  vp.noise_level = 0.0;
  vp.motion_speed = 4;
  const auto frames = media::generateVideo(vp);
  media::CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  cp.qscale = 14;
  cp.gop = {9, 3};
  media::Encoder enc(cp);
  const auto bitstream = enc.encode(frames);

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bitstream);
  const Cycle cycles = inst.run();
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(cycles, pin::kDecodePinCycles);
  EXPECT_EQ(inst.simulator().eventsDispatched(), pin::kDecodePinEvents);
  EXPECT_EQ(dec.macroblocksDecoded(), pin::kDecodePinMacroblocks);

  // And identical across runs in the same process (no hidden state).
  app::EclipseInstance inst2;
  app::DecodeApp dec2(inst2, bitstream);
  const Cycle cycles2 = inst2.run();
  ASSERT_TRUE(dec2.done());
  EXPECT_EQ(cycles2, cycles);
  EXPECT_EQ(inst2.simulator().eventsDispatched(), inst.simulator().eventsDispatched());
}

// ------------------------------------------------------ generated cases

// Delay drawn from the push-delay mix measured on decode_cif (DESIGN §6):
// 0: 18.7%, 1: 27.4%, 2-3: 20%, 4-15: 29%, 16-63: 4.3%, 64-4095: 0.6%,
// plus rare jumps of a million cycles or more.
Cycle decodeMixDelay(Prng& rng) {
  const std::uint64_t r = rng.below(100'000);
  if (r < 18'700) return 0;
  if (r < 46'100) return 1;
  if (r < 66'100) return static_cast<Cycle>(rng.range(2, 3));
  if (r < 95'100) return static_cast<Cycle>(rng.range(4, 15));
  if (r < 99'400) return static_cast<Cycle>(rng.range(16, 63));
  if (r < 99'995) return static_cast<Cycle>(rng.range(64, 4095));
  return static_cast<Cycle>(rng.range(1'000'000, 3'000'000));
}

// Differential harness: every push goes to the queue and to a reference
// (cycle, seq)-ordered multimap; every pop must return the model's first
// entry. Some events push again from inside their own invocation, i.e.
// while their cycle is draining.
struct DiffHarness {
  EventQueue q;
  std::multimap<std::pair<Cycle, std::uint64_t>, std::uint32_t> model;
  std::uint64_t seq = 0;
  std::uint32_t next_id = 0;
  Cycle now = 0;
  std::uint32_t last_fired = 0;
  std::uint64_t nested_pushes = 0;
  Prng rng{20260917};

  void push(bool may_nest) {
    const Cycle at = now + decodeMixDelay(rng);
    const std::uint32_t id = next_id++;
    const bool nested = may_nest && rng.chance(0.1);
    DiffHarness* h = this;
    q.push(at, [h, id, nested] {
      h->last_fired = id;
      if (nested) {
        ++h->nested_pushes;
        h->push(false);
      }
    });
    model.emplace(std::make_pair(at, seq++), id);
  }

  void popAndCheck() {
    ASSERT_EQ(q.size(), model.size());
    const auto first = model.begin();
    ASSERT_EQ(q.nextCycle(), first->first.first);
    Cycle at = 0;
    Event ev = q.pop(&at);
    ASSERT_EQ(at, first->first.first);
    const std::uint32_t expected = first->second;
    model.erase(first);
    now = at;
    ev();
    ASSERT_EQ(last_fired, expected);
  }
};

TEST(EventQueueGenerated, MatchesReferenceModelOnDecodeDelayMix) {
  DiffHarness h;
  constexpr int kOps = 1'000'000;
  constexpr std::size_t kLive = 64;  // about the decode's pending-event count
  std::uint64_t pops = 0;
  for (int op = 0; op < kOps; ++op) {
    if (op % 50'000 == 49'999) {
      // Drain completely now and then: with only far events left, pops
      // take the window-jump path and later pushes start from there.
      while (!h.model.empty()) {
        h.popAndCheck();
        if (testing::Test::HasFatalFailure()) return;
        ++pops;
      }
    }
    const double push_p = h.model.size() < kLive ? 0.6 : 0.4;
    if (h.model.empty() || h.rng.chance(push_p)) {
      h.push(true);
    } else {
      h.popAndCheck();
      if (testing::Test::HasFatalFailure()) return;
      ++pops;
    }
  }
  while (!h.model.empty()) {
    h.popAndCheck();
    if (testing::Test::HasFatalFailure()) return;
    ++pops;
  }
  EXPECT_TRUE(h.q.empty());
  EXPECT_EQ(pops, h.next_id);  // every event, nested ones included, fired once
  EXPECT_GT(h.nested_pushes, 10'000u);
  EXPECT_GT(h.now, 1'000'000u);  // the rare long jumps did happen
}

TEST(EventQueueGenerated, HorizonBoundariesFromMidRingBase) {
  // Window bases in the middle of the ring and at its last slot, so the
  // horizon slots wrap past index 0 of the wheel.
  for (const Cycle base : {7 * kSpan + kSpan / 2 + 3, 9 * kSpan - 1}) {
    EventQueue q;
    std::vector<int> order;
    Cycle at = 0;
    q.push(base, [] {});  // beyond the horizon from 0: a window jump
    q.pop(&at)();
    ASSERT_EQ(at, base);
    auto rec = [&order](int id) { return [&order, id] { order.push_back(id); }; };
    q.push(base + kSpan + 1, rec(0));  // overflow heap
    q.push(base + kSpan, rec(1));      // overflow heap: first cycle past the wheel
    q.push(base + kSpan - 1, rec(2));  // last wheel cycle
    q.push(base + kSpan, rec(3));
    q.push(base + kSpan - 1, rec(4));
    q.push(base + kSpan + 1, rec(5));
    q.pop(&at)();
    ASSERT_EQ(at, base + kSpan - 1);
    // The window moved: the heap entries migrated first, so these direct
    // wheel pushes queue behind them; id 8 joins the draining cycle.
    q.push(base + kSpan, rec(6));
    q.push(base + kSpan + 1, rec(7));
    q.push(base + kSpan - 1, rec(8));
    std::vector<Cycle> cycles{base + kSpan - 1};
    while (!q.empty()) {
      q.pop(&at)();
      cycles.push_back(at);
    }
    EXPECT_EQ(order, (std::vector<int>{2, 4, 8, 1, 3, 6, 0, 5, 7})) << "base " << base;
    EXPECT_EQ(cycles, (std::vector<Cycle>{base + kSpan - 1, base + kSpan - 1, base + kSpan - 1,
                                          base + kSpan, base + kSpan, base + kSpan,
                                          base + kSpan + 1, base + kSpan + 1, base + kSpan + 1}));
  }
}

TEST(EventQueueGenerated, ClearAfterSlabGrowthReleasesOnceAndStaysUsable) {
  EventQueue q;
  int drops = 0;
  int pushed = 0;
  auto token = std::make_shared<int>(0);
  // Grow the slab well past a handful of nodes, spread over many cycles,
  // with some entries in the overflow heap as well.
  for (int i = 0; i < 300; ++i) {
    q.push(static_cast<Cycle>(i % 97), CountedDrop{&drops});
    ++pushed;
  }
  for (int i = 0; i < 20; ++i) {
    q.push(kSpan * 3 + static_cast<Cycle>(i), [token] { (void)token; });
  }
  // Drain part of it: the dispatched nodes go onto the free list.
  for (int i = 0; i < 150; ++i) q.pop()();
  EXPECT_EQ(drops, 150);
  // Refill some of the freed nodes, then drop everything.
  for (int i = 0; i < 50; ++i) {
    q.push(100 + static_cast<Cycle>(i % 7), CountedDrop{&drops});
    ++pushed;
  }
  EXPECT_EQ(token.use_count(), 21);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(drops, pushed);  // each holder released exactly once
  EXPECT_EQ(token.use_count(), 1);

  // Reusable afterwards: time order and same-cycle FIFO still hold.
  std::vector<int> order;
  q.push(1000, [&order] { order.push_back(1); });
  q.push(400, [&order] { order.push_back(0); });
  q.push(1000, [&order] { order.push_back(2); });
  q.push(1000 + kSpan * 4, [&order] { order.push_back(3); });
  Cycle at = 0;
  Cycle prev = 0;
  while (!q.empty()) {
    q.pop(&at)();
    EXPECT_GE(at, prev);
    prev = at;
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(drops, pushed);
}

}  // namespace
