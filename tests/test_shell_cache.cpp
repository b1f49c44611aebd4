// Tests for the stream caches and the explicit sync-driven coherency
// protocol of Section 5.2: invalidate-on-GetSpace, flush-before-putspace,
// read-modify-write partial lines, prefetching and hit/miss accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "eclipse/sim/prng.hpp"
#include "shell_fixture.hpp"

namespace {

using namespace eclipse;
using eclipse::test::TwoShellFixture;
using shell::Shell;
using shell::ShellParams;
using sim::Task;

class ShellCache : public TwoShellFixture {};

Task<void> repeatReadsHitCache(Shell& prod, Shell& cons) {
  std::uint8_t data[64];
  for (std::size_t i = 0; i < 64; ++i) data[i] = static_cast<std::uint8_t>(i);
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 64));
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, 64);

  co_await cons.waitSpace(0, 0, 64);
  std::uint8_t buf[16];
  for (int k = 0; k < 4; ++k) co_await cons.read(0, 0, 0, buf);  // same line
  EXPECT_EQ(buf[0], 0);
}

TEST_F(ShellCache, RepeatedReadsOfOneLineMissOnce) {
  // Disable prefetch so the miss accounting is exact.
  ShellParams p;
  p.prefetch = false;
  rebuild(p);
  connect(256);
  run(repeatReadsHitCache(*prod, *cons));
  const auto& row = cons->streams().row(cons_row);
  EXPECT_EQ(row.cache_misses, 1u);
  EXPECT_EQ(row.cache_hits, 3u);
}

Task<void> wraparoundStaleness(Shell& prod, Shell& cons, int rounds) {
  // Buffer = exactly two cache lines; every round rewrites the same SRAM
  // addresses. If invalidate-on-GetSpace or flush-before-putspace were
  // missing, the consumer would observe stale data from an earlier round.
  for (int r = 0; r < rounds; ++r) {
    std::uint8_t data[128];
    for (std::size_t i = 0; i < sizeof data; ++i) {
      data[i] = static_cast<std::uint8_t>(r * 31 + i);
    }
    co_await prod.waitSpace(0, 0, 128);
    co_await prod.write(0, 0, 0, data);
    co_await prod.putSpace(0, 0, 128);

    std::uint8_t got[128];
    co_await cons.waitSpace(0, 0, 128);
    co_await cons.read(0, 0, 0, got);
    for (std::size_t i = 0; i < sizeof got; ++i) {
      EXPECT_EQ(got[i], static_cast<std::uint8_t>(r * 31 + i)) << "round " << r << " byte " << i;
    }
    co_await cons.putSpace(0, 0, 128);
  }
}

TEST_F(ShellCache, CoherencyAcrossBufferWraparound) {
  connect(128);  // two 64-byte lines
  run(wraparoundStaleness(*prod, *cons, 50));
  EXPECT_GT(cons->streams().row(cons_row).cache_invalidations, 0u);
  EXPECT_GT(prod->streams().row(prod_row).cache_flushes, 0u);
}

// Producer commits in 24-byte pieces (crossing 64-byte cache lines), so
// flushes perform read-modify-write on shared lines. The consumer, with
// its own offset phase, must still see every byte correctly.
Task<void> partialWriter(Shell& prod) {
  std::uint32_t counter = 0;
  for (int p = 0; p < 40; ++p) {
    std::uint8_t chunk[24];
    for (auto& c : chunk) c = static_cast<std::uint8_t>(counter++);
    co_await prod.waitSpace(0, 0, 24);
    co_await prod.write(0, 0, 0, chunk);
    co_await prod.putSpace(0, 0, 24);
  }
}

Task<void> partialReader(Shell& cons) {
  std::uint32_t check = 0;
  for (int p = 0; p < 40; ++p) {
    std::uint8_t chunk[24];
    co_await cons.waitSpace(0, 0, 24);
    co_await cons.read(0, 0, 0, chunk);
    for (const auto c : chunk) EXPECT_EQ(c, static_cast<std::uint8_t>(check++));
    co_await cons.putSpace(0, 0, 24);
  }
}

TEST_F(ShellCache, PartialLineCommitsAreCoherent) {
  connect(192);
  sim->spawn(partialWriter(*prod), "w");
  sim->spawn(partialReader(*cons), "r");
  sim->run(10'000'000);
  ASSERT_EQ(sim->liveProcesses(), 0u);
}

Task<void> onePacket(Shell& prod, Shell& cons, std::uint32_t n) {
  std::vector<std::uint8_t> data(n, 0x5A);
  co_await prod.waitSpace(0, 0, n);
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, n);
  co_await cons.waitSpace(0, 0, n);
  std::vector<std::uint8_t> got(n);
  co_await cons.read(0, 0, 0, got);
  co_await cons.putSpace(0, 0, n);
}

TEST_F(ShellCache, PrefetchReducesMissesOnSequentialReads) {
  auto missesWith = [&](bool prefetch) {
    ShellParams p;
    p.prefetch = prefetch;
    p.cache_lines_per_port = 2;
    rebuild(p);
    connect(512);
    sim->spawn(onePacket(*prod, *cons, 512), "t");
    sim->run(1'000'000);
    return cons->streams().row(cons_row).cache_misses;
  };
  const auto without = missesWith(false);
  const auto with = missesWith(true);
  EXPECT_LT(with, without);
}

TEST_F(ShellCache, PrefetchCounterAdvances) {
  connect(512);
  run(onePacket(*prod, *cons, 512));
  EXPECT_GT(cons->streams().row(cons_row).prefetches, 0u);
}

Task<void> bigBurst(Shell& prod, std::uint32_t n) {
  std::vector<std::uint8_t> data(n, 1);
  co_await prod.waitSpace(0, 0, n);
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, n);
}

TEST_F(ShellCache, EvictionHandlesTransfersLargerThanCache) {
  // 2 lines of cache, 8-line transfer: forces eviction of dirty lines.
  connect(512);
  run(bigBurst(*prod, 512));
  const auto& row = prod->streams().row(prod_row);
  // All eight lines were written; flushes happen on eviction and commit.
  EXPECT_GE(row.cache_flushes, 8u);
  // Everything must have reached SRAM.
  for (sim::Addr a = 0; a < 512; ++a) {
    ASSERT_EQ(sram->storage().peek(0x400 + a), 1);
  }
}

TEST_F(ShellCache, SingleLineCacheStillCorrect) {
  ShellParams p;
  p.cache_lines_per_port = 1;
  p.prefetch = false;
  rebuild(p);
  connect(128);
  run(wraparoundStaleness(*prod, *cons, 20));
}

TEST_F(ShellCache, TinyLinesStillCorrect) {
  ShellParams p;
  p.cache_line_bytes = 16;
  p.cache_lines_per_port = 4;
  rebuild(p);
  connect(128);
  run(wraparoundStaleness(*prod, *cons, 20));
}

Task<void> statsAccumulate(Shell& prod, Shell& cons) {
  co_await onePacket(prod, cons, 128);
  co_await onePacket(prod, cons, 128);
}

TEST_F(ShellCache, TransferCountersTrackBytes) {
  connect(256);
  run(statsAccumulate(*prod, *cons));
  EXPECT_EQ(prod->streams().row(prod_row).bytes_transferred, 256u);
  EXPECT_EQ(cons->streams().row(cons_row).bytes_transferred, 256u);
  EXPECT_EQ(prod->streams().row(prod_row).write_calls, 2u);
  EXPECT_EQ(cons->streams().row(cons_row).read_calls, 2u);
}

// Stress: random interleavings of variable-size commits through a small
// buffer with aggressive cache pressure — data must survive bit-exactly.
Task<void> stressProducer(Shell& sh, int packets, std::uint64_t seed) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, 96));
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(counter * 7 + 1), ++counter;
    co_await sh.waitSpace(0, 0, n);
    // Write in random sub-chunks at random offsets covering [0, n).
    std::uint32_t off = 0;
    while (off < n) {
      const auto k = static_cast<std::uint32_t>(rng.range(1, static_cast<std::int64_t>(n - off)));
      co_await sh.write(0, 0, off, std::span<const std::uint8_t>(buf).subspan(off, k));
      off += k;
    }
    co_await sh.putSpace(0, 0, n);
  }
}

Task<void> stressConsumer(Shell& sh, int packets, std::uint64_t seed, bool& ok) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  ok = true;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, 96));
    std::vector<std::uint8_t> buf(n);
    co_await sh.waitSpace(0, 0, n);
    co_await sh.read(0, 0, 0, buf);
    std::uint32_t off = 0;
    while (off < n) {  // consume the same sub-chunk pattern from the rng
      const auto k = static_cast<std::uint32_t>(rng.range(1, static_cast<std::int64_t>(n - off)));
      off += k;
    }
    for (const auto b : buf) {
      if (b != static_cast<std::uint8_t>(counter * 7 + 1)) ok = false;
      ++counter;
    }
    co_await sh.putSpace(0, 0, n);
  }
}

TEST_F(ShellCache, RandomizedStressIsBitExact) {
  ShellParams p;
  p.cache_line_bytes = 32;
  p.cache_lines_per_port = 2;
  rebuild(p);
  connect(128);
  bool ok = false;
  sim->spawn(stressProducer(*prod, 300, 9), "p");
  sim->spawn(stressConsumer(*cons, 300, 9, ok), "c");
  sim->run(100'000'000);
  ASSERT_EQ(sim->liveProcesses(), 0u);
  EXPECT_TRUE(ok);
}

// Teardown mid-run: a burst in progress on the SRAM read bus, two
// contenders and a prefetch fill queued behind it. destroyProcesses() and
// destroying the models must not touch the queued requests again (checked
// under AddressSanitizer in CI).
Task<void> timedRead(mem::SharedSram& sram, std::size_t bytes, bool& done) {
  co_await sram.touchRead(bytes);
  done = true;
}

TEST(StreamCacheTeardown, StopMidBurstWithQueuedRequestsThenDestroy) {
  auto sim = std::make_unique<sim::Simulator>();
  auto sram = std::make_unique<mem::SharedSram>(*sim, mem::SramParams{});
  auto cache = std::make_unique<shell::StreamCache>(*sim, *sram, 64, 4);
  shell::StreamRow row;
  bool holder = false, first = false, second = false;
  sim->spawn(timedRead(*sram, 256, holder), "holder");  // burst 0..17
  sim->spawn(timedRead(*sram, 64, first), "contender-1");
  sim->spawn(timedRead(*sram, 64, second), "contender-2");
  cache->startPrefetch(row, 0x400);  // its fill queues behind the contenders
  EXPECT_EQ(sim->run(8), 8u);
  EXPECT_FALSE(holder || first || second);
  EXPECT_EQ(row.prefetches, 1u);
  EXPECT_EQ(sram->readBus().stats().transactions, 0u);
  EXPECT_FALSE(sim->quiescent());
  EXPECT_EQ(sim->liveProcesses(), 3u);

  sim->destroyProcesses();
  EXPECT_TRUE(sim->quiescent());
  cache.reset();
  sram.reset();
  sim.reset();
}

}  // namespace
