// Tests for the memory-mapped shell tables on the PI-bus (Section 5.4):
// the CPU configures applications and collects measurements through these
// registers.

#include <gtest/gtest.h>

#include "eclipse/mem/pi_bus.hpp"
#include "shell_fixture.hpp"

namespace {

using namespace eclipse;
using eclipse::test::TwoShellFixture;
using shell::Shell;
using sim::Task;

class ShellMmio : public TwoShellFixture {};

constexpr sim::Addr kStreamRowBytes = 32 * 4;
constexpr sim::Addr taskBase(const shell::ShellParams& p) {
  return static_cast<sim::Addr>(p.max_streams) * kStreamRowBytes;
}
constexpr sim::Addr kTaskRowBytes = 16 * 4;

TEST_F(ShellMmio, StreamConfigReadsBack) {
  connect(256);
  const auto& p = prod->params();
  (void)p;
  // Row 0 of the producer shell.
  EXPECT_EQ(prod->mmioRead(0 * 4), 1u);          // valid
  EXPECT_EQ(prod->mmioRead(3 * 4), 1u);          // is_producer
  EXPECT_EQ(prod->mmioRead(4 * 4), 0x400u);      // base
  EXPECT_EQ(prod->mmioRead(5 * 4), 256u);        // size
  EXPECT_EQ(prod->mmioRead(6 * 4), 256u);        // space = whole buffer
  EXPECT_EQ(prod->mmioRead(7 * 4), 1u);          // remote shell
  EXPECT_EQ(cons->mmioRead(6 * 4), 0u);          // consumer space = 0
}

TEST_F(ShellMmio, ValidBitRejectsBufferPastSramEnd) {
  const auto sram_bytes = static_cast<std::uint32_t>(sram->storage().size());
  prod->mmioWrite(4 * 4, sram_bytes - 64);  // buffer base
  prod->mmioWrite(5 * 4, 128);              // buffer size: one line too many
  EXPECT_THROW(prod->mmioWrite(0 * 4, 1), std::invalid_argument);
  EXPECT_EQ(prod->mmioRead(0 * 4), 0u);  // the row stays invalid
  prod->mmioWrite(5 * 4, 64);
  EXPECT_NO_THROW(prod->mmioWrite(0 * 4, 1));
  EXPECT_EQ(prod->mmioRead(0 * 4), 1u);
}

TEST_F(ShellMmio, ConfigureStreamEntirelyViaRegisters) {
  // Build the same stream as connect(), but through raw register writes —
  // the path the control CPU uses in hardware.
  auto writeRow = [&](Shell& sh, std::uint32_t row, bool producer, std::uint32_t remote_shell,
                      std::uint32_t remote_row, std::uint32_t space) {
    const sim::Addr base = static_cast<sim::Addr>(row) * kStreamRowBytes;
    sh.mmioWrite(base + 1 * 4, 0);             // task
    sh.mmioWrite(base + 2 * 4, 0);             // port
    sh.mmioWrite(base + 3 * 4, producer);      // direction
    sh.mmioWrite(base + 4 * 4, 0x800);         // buffer base
    sh.mmioWrite(base + 5 * 4, 128);           // buffer size
    sh.mmioWrite(base + 6 * 4, space);         // initial space
    sh.mmioWrite(base + 7 * 4, remote_shell);  // stream ID: remote shell
    sh.mmioWrite(base + 8 * 4, remote_row);    //            remote row
    sh.mmioWrite(base + 0 * 4, 1);             // valid last
  };
  writeRow(*prod, 0, true, 1, 0, 128);
  writeRow(*cons, 0, false, 0, 0, 0);
  // Task tables via registers too.
  const sim::Addr tb = taskBase(prod->params());
  for (Shell* sh : {prod.get(), cons.get()}) {
    sh->mmioWrite(tb + 2 * 4, 500);  // budget
    sh->mmioWrite(tb + 0 * 4, 1);    // valid
    sh->mmioWrite(tb + 1 * 4, 1);    // enabled
  }

  run([](Shell& prod, Shell& cons) -> Task<void> {
    std::uint8_t data[32];
    for (std::size_t i = 0; i < sizeof data; ++i) data[i] = static_cast<std::uint8_t>(i ^ 0x2F);
    EXPECT_TRUE(co_await prod.getSpace(0, 0, 32));
    co_await prod.write(0, 0, 0, data);
    co_await prod.putSpace(0, 0, 32);
    co_await cons.waitSpace(0, 0, 32);
    std::uint8_t got[32];
    co_await cons.read(0, 0, 0, got);
    for (std::size_t i = 0; i < sizeof got; ++i) EXPECT_EQ(got[i], data[i]);
  }(*prod, *cons));
}

TEST_F(ShellMmio, MeasurementFieldsVisibleAfterTraffic) {
  connect(256);
  run([](Shell& prod, Shell& cons) -> Task<void> {
    std::uint8_t data[64] = {};
    EXPECT_TRUE(co_await prod.getSpace(0, 0, 64));
    co_await prod.write(0, 0, 0, data);
    co_await prod.putSpace(0, 0, 64);
    co_await cons.waitSpace(0, 0, 64);
    std::uint8_t got[64];
    co_await cons.read(0, 0, 0, got);
    co_await cons.putSpace(0, 0, 64);
  }(*prod, *cons));

  EXPECT_EQ(prod->mmioRead(12 * 4), 64u);  // bytes transferred (lo)
  EXPECT_EQ(prod->mmioRead(14 * 4), 1u);   // getspace calls
  EXPECT_EQ(prod->mmioRead(16 * 4), 1u);   // putspace calls
  EXPECT_EQ(prod->mmioRead(18 * 4), 1u);   // write calls
  EXPECT_EQ(cons->mmioRead(17 * 4), 1u);   // read calls
  // Consumer-side GetSpace denials appear too (waitSpace's first attempt
  // may or may not be denied depending on message timing; just read it).
  (void)cons->mmioRead(15 * 4);
}

TEST_F(ShellMmio, AccessLatencyMeasurementExposed) {
  connect(256);
  run([](Shell& prod, Shell& cons) -> Task<void> {
    std::uint8_t data[64] = {};
    EXPECT_TRUE(co_await prod.getSpace(0, 0, 64));
    co_await prod.write(0, 0, 0, data);
    co_await prod.putSpace(0, 0, 64);
    co_await cons.waitSpace(0, 0, 64);
    std::uint8_t got[64];
    co_await cons.read(0, 0, 0, got);
    co_await cons.putSpace(0, 0, 64);
  }(*prod, *cons));
  EXPECT_EQ(prod->mmioRead(24 * 4), 1u);             // one timed write access
  EXPECT_GT(prod->mmioRead(25 * 4), 0u);             // nonzero mean latency
  EXPECT_GE(prod->mmioRead(26 * 4), prod->mmioRead(25 * 4));  // max >= mean
  EXPECT_EQ(cons->mmioRead(24 * 4), 1u);
  // The consumer's cold read misses in the cache, so its latency exceeds
  // the port-transfer floor.
  EXPECT_GT(cons->streams().row(0).access_latency.mean(), 5.0);
}

TEST_F(ShellMmio, TaskRegistersRoundTrip) {
  connect(256);
  const sim::Addr tb = taskBase(prod->params());
  prod->mmioWrite(tb + 2 * 4, 12345);   // budget
  prod->mmioWrite(tb + 3 * 4, 0xBEEF);  // task_info
  EXPECT_EQ(prod->mmioRead(tb + 2 * 4), 12345u);
  EXPECT_EQ(prod->mmioRead(tb + 3 * 4), 0xBEEFu);
  EXPECT_EQ(prod->tasks().row(0).budget_cycles, 12345u);
}

TEST_F(ShellMmio, ReadOnlyFieldsRejectWrites) {
  connect(256);
  EXPECT_THROW(prod->mmioWrite(12 * 4, 1), std::invalid_argument);  // stats field
  const sim::Addr tb = taskBase(prod->params());
  EXPECT_THROW(prod->mmioWrite(tb + 4 * 4, 1), std::invalid_argument);  // busy cycles
}

TEST_F(ShellMmio, OutOfWindowAccessThrows) {
  connect(256);
  EXPECT_THROW((void)prod->mmioRead(prod->mmioWindowBytes() + 64), std::out_of_range);
}

TEST_F(ShellMmio, PiBusRoutesToBothShells) {
  connect(256);
  mem::PiBus bus;
  prod->mapMmio(bus, 0x0000);
  cons->mapMmio(bus, 0x10000);
  EXPECT_EQ(bus.read(0x0000 + 3 * 4), 1u);   // producer row direction
  EXPECT_EQ(bus.read(0x10000 + 3 * 4), 0u);  // consumer row direction
  bus.write(0x0000 + taskBase(prod->params()) + 2 * 4, 999);
  EXPECT_EQ(prod->tasks().row(0).budget_cycles, 999u);
}

}  // namespace
