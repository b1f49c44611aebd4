// Heap-allocation budget of the simulation hot path (DESIGN §6).
//
// This executable replaces the global operator new with a counting wrapper,
// runs the pinned decode twice on one thread, and asserts that during the
// second Simulator::run — frame pool warm — heap
// allocations per dispatched event stay below a fixed budget. It counts
// instead of timing anything, so the result is deterministic. Sanitizer
// builds bring their own allocator and skip the check.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/video_gen.hpp"
#include "eclipse/mem/message_network.hpp"
#include "eclipse/sim/event.hpp"

#include "decode_pin.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ECLIPSE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ECLIPSE_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

#ifndef ECLIPSE_SANITIZED
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined into a `new T` site, the free() would pair
// with the replaced operator new in GCC's view, and a UBSan build
// (-Wmismatched-new-delete) reports that pairing as a mismatch.
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace {

using namespace eclipse;

// Budget for heap allocations per dispatched event in a warm decode. With
// a heap-allocated frame per nested Task the pinned decode made 1.85 per
// event; with pooled frames 0.25 remained, most of them the fresh
// instance's per-cycle event buckets growing for the first time. The event
// queue then kept its events in one slab that grows a handful of times, and
// about 0.08 per event remained, 98% of them the run/level vectors of
// media::MbCoefs. Those are inline arrays now: 73 allocations over the
// 48109 events (0.0015 per event) remain, and the budget keeps about 6x
// headroom above that.
constexpr double kMaxAllocationsPerEvent = 0.01;

#ifndef ECLIPSE_SANITIZED
std::vector<std::uint8_t> pinnedBitstream() {
  media::VideoGenParams vp;
  vp.width = 96;
  vp.height = 80;
  vp.frames = 5;
  vp.seed = 3;
  vp.detail = 8;
  vp.noise_level = 0.0;
  vp.motion_speed = 4;
  media::CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  cp.qscale = 14;
  cp.gop = {9, 3};
  media::Encoder enc(cp);
  return enc.encode(media::generateVideo(vp));
}

struct RunCount {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  sim::Cycle cycles = 0;
};

RunCount countedDecode(const std::vector<std::uint8_t>& bitstream) {
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bitstream);
  inst.start();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  RunCount r;
  r.cycles = inst.simulator().run();
  r.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  r.events = inst.simulator().eventsDispatched();
  EXPECT_TRUE(dec.done());
  return r;
}
#endif

TEST(AllocationBudget, PutspaceDeliveryEventIsStoredInline) {
#ifdef ECLIPSE_SANITIZED
  GTEST_SKIP() << "sanitizer allocator in use; allocation counting is disabled";
#else
  // The shape of mem::MessageNetwork's delivery lambda: handler pointer plus
  // a 16-byte SyncMessage, 24 bytes, trivially copyable.
  mem::SyncMessage got{};
  mem::MessageNetwork::Handler handler = [&got](const mem::SyncMessage& m) { got = m; };
  mem::MessageNetwork::Handler* h = &handler;
  const mem::SyncMessage msg{1, 2, 3, 48};
  auto deliver = [h, msg] { (*h)(msg); };
  static_assert(sizeof(deliver) == sim::Event::kInlineBytes);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    const sim::Event ev(deliver);
    const sim::Event copy = ev;
    copy();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(got.bytes, 48u);
#endif
}

TEST(AllocationBudget, WarmPinnedDecodeStaysUnderBudgetPerEvent) {
#ifdef ECLIPSE_SANITIZED
  GTEST_SKIP() << "sanitizer allocator in use; allocation counting is disabled";
#else
  const auto bitstream = pinnedBitstream();
  const RunCount cold = countedDecode(bitstream);
  ASSERT_GT(cold.allocations, 0u) << "the counting operator new is not linked in";
  const RunCount warm = countedDecode(bitstream);
  ASSERT_EQ(warm.cycles, pin::kDecodePinCycles);
  ASSERT_EQ(warm.events, pin::kDecodePinEvents);
  const double per_event =
      static_cast<double>(warm.allocations) / static_cast<double>(warm.events);
  RecordProperty("allocations", static_cast<int>(warm.allocations));
  EXPECT_LT(per_event, kMaxAllocationsPerEvent)
      << warm.allocations << " allocations over " << warm.events << " events";
#endif
}

}  // namespace
