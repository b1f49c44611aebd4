// Tests for the shell's distributed stream synchronization (Section 5.1):
// GetSpace/PutSpace semantics, space accounting, putspace messages, window
// enforcement and cyclic-buffer data transport.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "eclipse/sim/prng.hpp"
#include "shell_fixture.hpp"

namespace {

using namespace eclipse;
using eclipse::test::TwoShellFixture;
using shell::Shell;
using sim::Task;

class ShellSync : public TwoShellFixture {};

Task<void> checkInitialSpace(Shell& prod, Shell& cons, std::uint32_t size) {
  // Producer starts with the whole buffer as room, consumer with nothing.
  EXPECT_TRUE(co_await prod.getSpace(0, 0, size));
  EXPECT_FALSE(co_await cons.getSpace(0, 0, 1));
}

TEST_F(ShellSync, InitialSpaceIsBufferForProducerOnly) {
  connect(256);
  run(checkInitialSpace(*prod, *cons, 256));
}

Task<void> produceThenConsume(Shell& prod, Shell& cons) {
  std::uint8_t data[100];
  for (std::size_t i = 0; i < sizeof data; ++i) data[i] = static_cast<std::uint8_t>(i * 3);
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 100));
  co_await prod.write(0, 0, 0, data);
  co_await prod.putSpace(0, 0, 100);

  // After the putspace message propagates, the consumer sees the data.
  co_await cons.waitSpace(0, 0, 100);
  std::uint8_t got[100];
  co_await cons.read(0, 0, 0, got);
  for (std::size_t i = 0; i < sizeof got; ++i) EXPECT_EQ(got[i], data[i]);
  co_await cons.putSpace(0, 0, 100);
}

TEST_F(ShellSync, DataFlowsProducerToConsumer) {
  connect(256);
  run(produceThenConsume(*prod, *cons));
  EXPECT_EQ(net->messagesSent(), 2u);
  // After the consumer commits, the producer's space is replenished.
  EXPECT_EQ(prod->streams().row(prod_row).space, 256u);
}

Task<void> getSpaceDenialIsSticky(Shell& cons) {
  EXPECT_FALSE(co_await cons.getSpace(0, 0, 64));
  // The denial must be recorded for best-guess scheduling.
  EXPECT_TRUE(cons.tasks().row(0).blocked);
  EXPECT_EQ(cons.tasks().row(0).blocked_need, 64u);
}

TEST_F(ShellSync, DenialMarksTaskBlocked) {
  connect(256);
  run(getSpaceDenialIsSticky(*cons));
  EXPECT_EQ(cons->streams().row(cons_row).getspace_denied, 1u);
}

Task<void> oversizeRequest(Shell& prod) {
  EXPECT_THROW((void)co_await prod.getSpace(0, 0, 1024), std::invalid_argument);
}

TEST_F(ShellSync, RequestLargerThanBufferThrows) {
  connect(256);
  run(oversizeRequest(*prod));
}

Task<void> commitBeyondGrant(Shell& prod) {
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 32));
  EXPECT_THROW(co_await prod.putSpace(0, 0, 64), std::logic_error);
}

TEST_F(ShellSync, PutSpaceBeyondGrantedThrows) {
  connect(256);
  run(commitBeyondGrant(*prod));
}

Task<void> accessOutsideWindow(Shell& prod) {
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 32));
  std::uint8_t buf[16];
  EXPECT_THROW(co_await prod.write(0, 0, 20, buf), std::logic_error);  // 20+16 > 32
  co_await prod.write(0, 0, 16, buf);  // 16+16 == 32: allowed
}

TEST_F(ShellSync, ReadWriteEnforceGrantedWindow) {
  connect(256);
  run(accessOutsideWindow(*prod));
}

Task<void> directionEnforced(Shell& prod, Shell& cons) {
  std::uint8_t buf[8] = {};
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 8));
  EXPECT_THROW(co_await prod.read(0, 0, 0, buf), std::logic_error);
  EXPECT_THROW(co_await cons.write(0, 0, 0, buf), std::logic_error);
}

TEST_F(ShellSync, PortDirectionIsEnforced) {
  connect(256);
  run(directionEnforced(*prod, *cons));
}

Task<void> randomAccessWithinWindow(Shell& prod, Shell& cons) {
  // The paper allows Read/Write at random offsets inside the window.
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 64));
  std::uint8_t a[16], b[16];
  for (std::size_t i = 0; i < 16; ++i) {
    a[i] = static_cast<std::uint8_t>(i);
    b[i] = static_cast<std::uint8_t>(100 + i);
  }
  co_await prod.write(0, 0, 48, b);  // out of order
  co_await prod.write(0, 0, 0, a);
  co_await prod.putSpace(0, 0, 64);

  co_await cons.waitSpace(0, 0, 64);
  std::uint8_t got[16];
  co_await cons.read(0, 0, 48, got);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], b[i]);
  co_await cons.read(0, 0, 0, got);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], a[i]);
}

TEST_F(ShellSync, RandomAccessInsideGrantedWindow) {
  connect(256);
  run(randomAccessWithinWindow(*prod, *cons));
}

Task<void> decoupledSyncGranularity(Shell& prod, Shell& cons) {
  // One GetSpace, many writes, one PutSpace: synchronization granularity
  // is independent of transport granularity (Section 2.2).
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 96));
  for (int k = 0; k < 12; ++k) {
    std::uint8_t chunk[8];
    for (auto& c : chunk) c = static_cast<std::uint8_t>(k);
    co_await prod.write(0, 0, static_cast<std::uint64_t>(k) * 8, chunk);
  }
  co_await prod.putSpace(0, 0, 96);

  co_await cons.waitSpace(0, 0, 96);
  std::uint8_t all[96];
  co_await cons.read(0, 0, 0, all);
  for (int k = 0; k < 12; ++k) {
    for (int i = 0; i < 8; ++i) EXPECT_EQ(all[k * 8 + i], k);
  }
  co_await cons.putSpace(0, 0, 96);
}

TEST_F(ShellSync, SyncGranularityDecoupledFromTransport) {
  connect(256);
  run(decoupledSyncGranularity(*prod, *cons));
  // 1 producer commit + 1 consumer commit = 2 messages, despite 12 writes.
  EXPECT_EQ(net->messagesSent(), 2u);
  EXPECT_EQ(prod->streams().row(prod_row).write_calls, 12u);
}

// Property: random packet sizes through a small cyclic buffer arrive
// intact, in order, with producer back-pressure.
struct WrapCase {
  std::uint32_t buffer;
  std::uint32_t max_packet;
  int packets;
};

class ShellWrapProperty : public eclipse::test::TwoShellFixture,
                          public ::testing::WithParamInterface<WrapCase> {};

Task<void> pump(Shell& sh, std::uint32_t max_packet, int packets, std::uint64_t seed) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, max_packet));
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(counter++);
    co_await sh.waitSpace(0, 0, n);
    co_await sh.write(0, 0, 0, buf);
    co_await sh.putSpace(0, 0, n);
  }
}

Task<void> drain(Shell& sh, std::uint32_t max_packet, int packets, std::uint64_t seed, bool& ok) {
  sim::Prng rng(seed);  // same sequence of sizes as the producer
  std::uint32_t counter = 0;
  ok = true;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, max_packet));
    std::vector<std::uint8_t> buf(n);
    co_await sh.waitSpace(0, 0, n);
    co_await sh.read(0, 0, 0, buf);
    for (const auto b : buf) {
      if (b != static_cast<std::uint8_t>(counter++)) ok = false;
    }
    co_await sh.putSpace(0, 0, n);
  }
}

TEST_P(ShellWrapProperty, StreamsSurviveWraparound) {
  const auto c = GetParam();
  connect(c.buffer);
  bool ok = false;
  sim->spawn(pump(*prod, c.max_packet, c.packets, 42), "pump");
  sim->spawn(drain(*cons, c.max_packet, c.packets, 42, ok), "drain");
  const auto end = sim->run(100'000'000);
  ASSERT_EQ(sim->liveProcesses(), 0u) << "deadlocked at " << end;
  EXPECT_TRUE(ok);
  EXPECT_EQ(prod->streams().row(prod_row).space, c.buffer);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShellWrapProperty,
                         ::testing::Values(WrapCase{64, 16, 200}, WrapCase{64, 63, 100},
                                           WrapCase{128, 100, 150}, WrapCase{256, 64, 300},
                                           WrapCase{1024, 700, 60}, WrapCase{64, 1, 100}));

Task<void> misalignedBufferRejected(Shell& prod) {
  shell::StreamConfig cfg;
  cfg.task = 1;
  cfg.port = 0;
  cfg.buffer_base = 0x10;  // not cache-line aligned
  cfg.buffer_bytes = 128;
  EXPECT_THROW((void)prod.configureStream(cfg), std::invalid_argument);
  cfg.buffer_base = 0x40;
  cfg.buffer_bytes = 100;  // not a line multiple
  EXPECT_THROW((void)prod.configureStream(cfg), std::invalid_argument);
  co_return;
}

TEST_F(ShellSync, MisalignedBuffersRejected) {
  connect(256);
  run(misalignedBufferRejected(*prod));
}

TEST_F(ShellSync, BufferPastSramEndRejected) {
  // The stream caches time fills without reading the SRAM, so a buffer
  // whose lines leave the SRAM is rejected when the row is configured.
  shell::StreamConfig cfg;
  cfg.task = 1;
  cfg.port = 0;
  cfg.buffer_base = sram->storage().size() - 64;
  cfg.buffer_bytes = 128;
  EXPECT_THROW((void)prod->configureStream(cfg), std::invalid_argument);
  cfg.buffer_bytes = 64;  // ends exactly at the last SRAM byte
  EXPECT_NO_THROW((void)prod->configureStream(cfg));
}

TEST_F(ShellSync, MessageForUnconfiguredRowIsDroppedAndCounted) {
  // A putspace message racing a teardown can legitimately arrive after its
  // row was invalidated; the shell must absorb it (dropping the simulation
  // would turn a benign race into a crash) and expose a sticky counter so
  // the control plane can still observe the event.
  connect(256);
  net->send(mem::SyncMessage{0, 1, 9, 4});  // row 9 was never configured
  EXPECT_NO_THROW(sim->run());
  EXPECT_EQ(cons->lateSyncDrops(), 1u);
  net->send(mem::SyncMessage{0, 1, 9, 4});
  sim->run();
  EXPECT_EQ(cons->lateSyncDrops(), 2u);
}


// ------------------------------------------------ division-free addressing

// Widths and line sizes on the data plane must be powers of two; each is
// rejected at construction under its configuration name.
TEST(PowerOfTwoWidths, NonPowerOfTwoParametersAreRejectedByName) {
  sim::Simulator sim;
  const auto expectRejected = [](auto&& make, const std::string& param) {
    try {
      make();
      ADD_FAILURE() << param << " = non-power-of-two was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(param), std::string::npos) << e.what();
    }
  };
  mem::SramParams sp;
  sp.bus_width_bytes = 12;
  expectRejected([&] { mem::SharedSram bad(sim, sp); }, "sram.bus_width_bytes");
  mem::DramParams dp;
  dp.bus_width_bytes = 6;
  expectRejected([&] { mem::OffChipMemory bad(sim, dp); }, "dram.bus_width_bytes");

  mem::SharedSram sram(sim, mem::SramParams{});
  mem::MessageNetwork net(sim, 1);
  shell::ShellParams line;
  line.cache_line_bytes = 48;
  expectRejected([&] { Shell bad(sim, line, sram, net); }, "shell.cache_line_bytes");
  shell::ShellParams port;
  port.port_width_bytes = 12;
  expectRejected([&] { Shell bad(sim, port, sram, net); }, "shell.port_width_bytes");
  shell::ShellParams zero;
  zero.port_width_bytes = 0;
  expectRejected([&] { Shell bad(sim, zero, sram, net); }, "shell.port_width_bytes");
  EXPECT_THROW(mem::Bus(sim, "b", 24, 1), std::invalid_argument);

  // Powers of two across the swept range are accepted.
  for (const std::uint32_t w : {1u, 2u, 4u, 8u, 16u, 32u}) {
    shell::ShellParams ok;
    ok.port_width_bytes = w;
    ok.cache_line_bytes = w * 4;
    EXPECT_NO_THROW(Shell(sim, ok, sram, net));
    EXPECT_NO_THROW(mem::Bus(sim, "b", w, 1));
  }
}

// The access point's buffer offset is kept incrementally (compare and
// subtract) as PutSpace advances it, so buffers need not be powers of
// two: 3- and 5-line buffers wrap many times, the offset equals pos % size
// after every PutSpace on both sides, and the data stays bit-exact.
Task<void> pumpChecked(Shell& sh, std::uint32_t row, std::uint32_t max_packet, int packets,
                       std::uint64_t seed) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, max_packet));
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(counter++);
    co_await sh.waitSpace(0, 0, n);
    co_await sh.write(0, 0, 0, buf);
    co_await sh.putSpace(0, 0, n);
    const shell::StreamRow& r = sh.streams().row(row);
    EXPECT_EQ(r.pos_off, r.pos % r.size) << "producer after packet " << p;
  }
}

Task<void> drainChecked(Shell& sh, std::uint32_t row, std::uint32_t max_packet, int packets,
                        std::uint64_t seed, bool& ok) {
  sim::Prng rng(seed);
  std::uint32_t counter = 0;
  ok = true;
  for (int p = 0; p < packets; ++p) {
    const auto n = static_cast<std::uint32_t>(rng.range(1, max_packet));
    std::vector<std::uint8_t> buf(n);
    co_await sh.waitSpace(0, 0, n);
    co_await sh.read(0, 0, 0, buf);
    for (const auto b : buf) {
      if (b != static_cast<std::uint8_t>(counter++)) ok = false;
    }
    co_await sh.putSpace(0, 0, n);
    const shell::StreamRow& r = sh.streams().row(row);
    EXPECT_EQ(r.pos_off, r.pos % r.size) << "consumer after packet " << p;
  }
}

TEST_F(ShellSync, NonPowerOfTwoBuffersWrapWithIncrementalOffset) {
  const std::uint32_t line = shell::ShellParams{}.cache_line_bytes;
  for (const std::uint32_t lines : {3u, 5u}) {
    rebuild(shell::ShellParams{});
    const std::uint32_t size = lines * line;
    connect(size);
    const int packets = 400;
    bool ok = false;
    sim->spawn(pumpChecked(*prod, prod_row, size - 1, packets, 7), "pump");
    sim->spawn(drainChecked(*cons, cons_row, size - 1, packets, 7, ok), "drain");
    const auto end = sim->run(100'000'000);
    ASSERT_EQ(sim->liveProcesses(), 0u) << "deadlocked at " << end;
    EXPECT_TRUE(ok) << lines << "-line buffer";
    const shell::StreamRow& r = cons->streams().row(cons_row);
    EXPECT_GT(r.pos, std::uint64_t{size} * 50) << "the buffer wrapped many times";
    EXPECT_EQ(r.pos, prod->streams().row(prod_row).pos);
    EXPECT_EQ(prod->streams().row(prod_row).space, size);
    sim->destroyProcesses();
  }
}

// ------------------------------------------------------- port map

// lookup() is a (task, port) -> row map kept current through configure and
// the MMIO valid / task / port writes; a duplicate key resolves to the
// lowest row, as a scan of the table would.
TEST(StreamTableMap, LookupFollowsConfigureAndRekey) {
  shell::StreamTable t(4, 8);
  shell::StreamConfig c;
  c.task = 2;
  c.port = 1;
  c.buffer_bytes = 64;
  EXPECT_EQ(t.configure(c), 0u);
  c.port = 3;
  EXPECT_EQ(t.configure(c), 1u);
  EXPECT_EQ(t.lookup(2, 1), 0u);
  EXPECT_EQ(t.lookup(2, 3), 1u);
  EXPECT_THROW((void)t.lookup(2, 2), std::out_of_range);

  t.rekey(1, [](shell::StreamRow& r) { r.port = 1; });  // duplicate of row 0
  EXPECT_EQ(t.lookup(2, 1), 0u);
  EXPECT_THROW((void)t.lookup(2, 3), std::out_of_range);
  t.rekey(0, [](shell::StreamRow& r) { r = shell::StreamRow{}; });  // teardown
  EXPECT_EQ(t.lookup(2, 1), 1u);
  t.rekey(1, [](shell::StreamRow& r) { r.task = 7; });
  EXPECT_EQ(t.lookup(7, 1), 1u);
  EXPECT_THROW((void)t.lookup(2, 1), std::out_of_range);

  // Keys outside the dense map (task >= max_tasks, large or negative
  // ports) are still found.
  c.task = 9;
  c.port = 40;
  const std::uint32_t far = t.configure(c);
  EXPECT_EQ(t.lookup(9, 40), far);
  c.task = 0;
  c.port = -1;
  const std::uint32_t neg = t.configure(c);
  EXPECT_EQ(t.lookup(0, -1), neg);
  EXPECT_THROW((void)t.lookup(-3, 0), std::out_of_range);
}

}  // namespace
