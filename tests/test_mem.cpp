// Unit tests for the memory subsystem: storage, buses, SRAM/DRAM models,
// the putspace message network and the PI control bus.

#include <gtest/gtest.h>

#include <vector>

#include "eclipse/mem/bus.hpp"
#include "eclipse/mem/message_network.hpp"
#include "eclipse/mem/pi_bus.hpp"
#include "eclipse/mem/sram.hpp"
#include "eclipse/mem/storage.hpp"
#include "eclipse/sim/simulator.hpp"

namespace {

using namespace eclipse;
using namespace eclipse::mem;
using eclipse::sim::Cycle;
using eclipse::sim::Simulator;
using eclipse::sim::Task;

// --------------------------------------------------------------- storage

TEST(Storage, ReadWriteRoundTrip) {
  Storage s(256);
  std::vector<std::uint8_t> in{1, 2, 3, 4, 5};
  s.write(100, in);
  std::vector<std::uint8_t> out(5);
  s.read(100, out);
  EXPECT_EQ(in, out);
}

TEST(Storage, BoundsChecked) {
  Storage s(16);
  std::vector<std::uint8_t> buf(8);
  EXPECT_THROW(s.read(10, buf), std::out_of_range);
  EXPECT_THROW(s.write(16, buf), std::out_of_range);
  EXPECT_NO_THROW(s.read(8, buf));
  EXPECT_THROW((void)s.peek(16), std::out_of_range);
}

TEST(Storage, FillAndPoke) {
  Storage s(8);
  s.fill(0xAB);
  EXPECT_EQ(s.peek(7), 0xAB);
  s.poke(3, 0x11);
  EXPECT_EQ(s.peek(3), 0x11);
}

// ------------------------------------------------------------------- bus

Task<void> doTransfer(Bus& bus, std::size_t bytes, Cycle& done_at, Simulator& sim) {
  co_await bus.transfer(bytes);
  done_at = sim.now();
}

TEST(Bus, TransferTimingMatchesWidth) {
  Simulator sim;
  Bus bus(sim, "b", 16, 2);  // 16B wide, 2-cycle arbitration
  Cycle done = 0;
  sim.spawn(doTransfer(bus, 64, done, sim), "t");
  sim.run();
  EXPECT_EQ(done, 2u + 64 / 16);  // arb + 4 data cycles
  EXPECT_EQ(bus.stats().transactions, 1u);
  EXPECT_EQ(bus.stats().bytes, 64u);
}

TEST(Bus, PartialWordRoundsUp) {
  Simulator sim;
  Bus bus(sim, "b", 16, 0);
  EXPECT_EQ(bus.dataCycles(1), 1u);
  EXPECT_EQ(bus.dataCycles(16), 1u);
  EXPECT_EQ(bus.dataCycles(17), 2u);
}

TEST(Bus, ContendersSerialize) {
  Simulator sim;
  Bus bus(sim, "b", 8, 1);
  Cycle a = 0, b = 0;
  sim.spawn(doTransfer(bus, 32, a, sim), "a");  // 1 + 4 = 5 cycles
  sim.spawn(doTransfer(bus, 32, b, sim), "b");
  sim.run();
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 10u);  // waits for the first transfer
  EXPECT_EQ(bus.stats().busy_cycles, 10u);
  EXPECT_EQ(bus.stats().transactions, 2u);
  EXPECT_EQ(bus.stats().bytes, 64u);
}

TEST(Bus, UtilizationFraction) {
  Simulator sim;
  Bus bus(sim, "b", 8, 0);
  Cycle done = 0;
  sim.spawn(doTransfer(bus, 80, done, sim), "t");  // 10 cycles
  sim.run();
  EXPECT_DOUBLE_EQ(bus.utilization(20), 0.5);
}

Task<void> transferAfter(Bus& bus, Cycle start, std::size_t bytes, Cycle& done_at,
                         Simulator& sim) {
  co_await sim.delay(start);
  co_await bus.transfer(bytes);
  done_at = sim.now();
}

TEST(Bus, ArrivalInReleaseCycleQueuesBehindHandedOffWaiter) {
  Simulator sim;
  Bus bus(sim, "b", 8, 1);
  Cycle a = 0, b = 0, c = 0;
  sim.spawn(doTransfer(bus, 32, a, sim), "a");           // holds the bus 0..5
  sim.spawn(doTransfer(bus, 32, b, sim), "b");           // queues at 0
  sim.spawn(transferAfter(bus, 5, 32, c, sim), "c");     // arrives at 5, after a's release
  sim.run();
  // At cycle 5 the grant is already b's (handed over through a zero-delay
  // event that runs after c arrives); c must not steal it.
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 10u);
  EXPECT_EQ(c, 15u);
  EXPECT_EQ(bus.stats().busy_cycles, 15u);
}

Task<void> postedWrites(Bus& bus, Cycle& done_at, Simulator& sim) {
  // The MC coprocessor's reconstructed-macroblock write-back: three posted
  // bursts back to back, each issued as the previous one ends.
  co_await bus.transfer(256);
  co_await bus.transfer(64);
  co_await bus.transfer(64);
  done_at = sim.now();
}

TEST(Bus, BackToBackPostedTransfersInterleaveFifo) {
  Simulator sim;
  Bus bus(sim, "system.bus", 8, 2);
  Cycle mc = 0, other = 0;
  sim.spawn(postedWrites(bus, mc, sim), "mc");
  sim.spawn(transferAfter(bus, 1, 64, other, sim), "vld");
  sim.run();
  // mc 0..34 (2 + 32); the waiter queued at 1 gets the bus next, 34..44;
  // mc's second burst queued at 34 runs 44..54, its third 54..64.
  EXPECT_EQ(other, 44u);
  EXPECT_EQ(mc, 64u);
  EXPECT_EQ(bus.stats().transactions, 4u);
  EXPECT_EQ(bus.stats().busy_cycles, 64u);
}

Task<void> zeroCycleTransfer(Bus& bus, bool& done) {
  co_await bus.transfer(0);
  done = true;
}

TEST(Bus, ZeroCycleBurstOnIdleBusDoesNotSuspend) {
  Simulator sim;
  Bus bus(sim, "b", 8, 0);
  bool done = false;
  sim.spawn(zeroCycleTransfer(bus, done), "z");
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.eventsDispatched(), 1u);  // only the spawn
  EXPECT_EQ(bus.stats().transactions, 1u);
}

// ------------------------------------------------------------ SRAM / DRAM

Task<void> timedRead(SharedSram& sram, std::vector<std::uint8_t>& out, Cycle& done_at,
                     std::uint64_t& events_at, Simulator& sim) {
  co_await sram.read(0x100, out);
  done_at = sim.now();
  events_at = sim.eventsDispatched();
}

TEST(SharedSram, ReadCompletesAfterArbitrationDataAndAccess) {
  Simulator sim;
  SramParams p;
  p.bus_width_bytes = 16;
  p.bus_arbitration_latency = 2;
  p.access_latency = 3;
  SharedSram sram(sim, p);
  sram.storage().poke(0x100, 0xA5);
  std::vector<std::uint8_t> out(64);
  Cycle done = 0;
  std::uint64_t events = 0;
  sim.spawn(timedRead(sram, out, done, events, sim), "r");
  sim.run();
  EXPECT_EQ(done, 2u + 64 / 16 + 3);
  EXPECT_EQ(events, 3u);  // spawn, end of burst, end of access
  EXPECT_EQ(out[0], 0xA5);
}

TEST(SharedSram, ZeroAccessLatencyResumesInsideTheBusReleaseEvent) {
  Simulator sim;
  SramParams p;
  p.bus_width_bytes = 16;
  p.bus_arbitration_latency = 2;
  p.access_latency = 0;
  SharedSram sram(sim, p);
  std::vector<std::uint8_t> out(64), other(16);
  Cycle done = 0, other_done = 0;
  std::uint64_t events = 0, other_events = 0;
  sim.spawn(timedRead(sram, out, done, events, sim), "r");
  sim.spawn(timedRead(sram, other, other_done, other_events, sim), "waiter");
  sim.run();
  // The first reader resumes in the event that ends its burst (event 3:
  // two spawns, then the burst end), before the waiter's zero-delay grant.
  EXPECT_EQ(done, 2u + 4);
  EXPECT_EQ(events, 3u);
  // The waiter: grant event at 6, burst 6..9, resumed inline at 9.
  EXPECT_EQ(other_done, 6u + 2 + 1);
  EXPECT_EQ(other_events, 5u);
}


Task<void> sramRoundTrip(SharedSram& sram, bool& ok, Simulator& sim) {
  std::vector<std::uint8_t> in(100);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i);
  co_await sram.write(0x40, in);
  std::vector<std::uint8_t> out(100);
  co_await sram.read(0x40, out);
  ok = in == out;
  (void)sim;
}

TEST(SharedSram, TimedRoundTrip) {
  Simulator sim;
  SramParams p;
  SharedSram sram(sim, p);
  bool ok = false;
  sim.spawn(sramRoundTrip(sram, ok, sim), "rt");
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(sram.readBus().stats().bytes, 100u);
  EXPECT_EQ(sram.writeBus().stats().bytes, 100u);
}

Task<void> concurrentReadWrite(SharedSram& sram, Cycle& r_done, Cycle& w_done, Simulator& sim) {
  // Split read/write buses: a read and a write of the same size do not
  // contend (the paper's separate 150 MHz read and write buses).
  std::vector<std::uint8_t> buf(64);
  co_await sram.write(0, buf);
  w_done = sim.now();
  co_await sram.read(0, buf);
  r_done = sim.now();
}

TEST(SharedSram, SplitBusesDoNotContend) {
  Simulator sim;
  SramParams p;
  p.bus_width_bytes = 16;
  p.bus_arbitration_latency = 1;
  p.access_latency = 1;
  SharedSram sram(sim, p);
  Cycle r1 = 0, w1 = 0;
  sim.spawn(concurrentReadWrite(sram, r1, w1, sim), "a");
  sim.run();
  // write: 1 arb + 4 data + 1 access = 6; read likewise after it: 12.
  EXPECT_EQ(w1, 6u);
  EXPECT_EQ(r1, 12u);
}

Task<void> dramAccess(OffChipMemory& dram, Cycle& done, Simulator& sim) {
  std::vector<std::uint8_t> buf(64);
  co_await dram.read(0, buf);
  done = sim.now();
}

TEST(OffChipMemory, HasLongLatency) {
  Simulator sim;
  DramParams p;
  p.bus_width_bytes = 8;
  p.bus_arbitration_latency = 2;
  p.access_latency = 20;
  OffChipMemory dram(sim, p);
  Cycle done = 0;
  sim.spawn(dramAccess(dram, done, sim), "d");
  sim.run();
  EXPECT_EQ(done, 2u + 8 + 20);
}

Task<void> touchOnly(OffChipMemory& dram, Cycle& done, Simulator& sim) {
  dram.storage().poke(5, 0x77);
  co_await dram.touchRead(64);
  co_await dram.touchWrite(64);
  done = sim.now();
}

TEST(OffChipMemory, TouchChargesTimeWithoutDataEffects) {
  Simulator sim;
  OffChipMemory dram(sim, DramParams{});
  Cycle done = 0;
  sim.spawn(touchOnly(dram, done, sim), "t");
  sim.run();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(dram.storage().peek(5), 0x77);  // touches never alter contents
  EXPECT_EQ(dram.bus().stats().transactions, 2u);
}

// --------------------------------------------------------- message network

TEST(MessageNetwork, DeliversWithLatency) {
  Simulator sim;
  MessageNetwork net(sim, 3);
  Cycle delivered_at = 0;
  SyncMessage got{};
  net.attach(7, [&](const SyncMessage& m) {
    got = m;
    delivered_at = sim.now();
  });
  sim.schedule(10, [&] { net.send(SyncMessage{1, 7, 2, 48}); });
  sim.run();
  EXPECT_EQ(delivered_at, 13u);
  EXPECT_EQ(got.src_shell, 1u);
  EXPECT_EQ(got.dst_row, 2u);
  EXPECT_EQ(got.bytes, 48u);
  EXPECT_EQ(net.messagesSent(), 1u);
  EXPECT_EQ(net.bytesSignalled(), 48u);
}

TEST(MessageNetwork, PreservesOrderPerDestination) {
  Simulator sim;
  MessageNetwork net(sim, 5);
  std::vector<std::uint32_t> seen;
  net.attach(0, [&](const SyncMessage& m) { seen.push_back(m.bytes); });
  sim.schedule(0, [&] {
    net.send(SyncMessage{1, 0, 0, 1});
    net.send(SyncMessage{1, 0, 0, 2});
    net.send(SyncMessage{1, 0, 0, 3});
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(MessageNetwork, UnattachedDestinationThrows) {
  Simulator sim;
  MessageNetwork net(sim, 1);
  EXPECT_THROW(net.send(SyncMessage{0, 9, 0, 1}), std::runtime_error);
  net.attach(2, [](const SyncMessage&) {});
  EXPECT_THROW(net.send(SyncMessage{0, 1, 0, 1}), std::runtime_error);  // below, never attached
}

TEST(MessageNetwork, InFlightDeliverySurvivesTableGrowth) {
  // Delivery events hold a pointer to the destination's handler; attaching
  // more shells while a message is in flight must not move it.
  Simulator sim;
  MessageNetwork net(sim, 4);
  std::uint32_t got = 0;
  net.attach(0, [&](const SyncMessage& m) { got = m.bytes; });
  net.send(SyncMessage{1, 0, 0, 77});
  for (std::uint32_t id = 1; id < 64; ++id) net.attach(id, [](const SyncMessage&) {});
  sim.run();
  EXPECT_EQ(got, 77u);
}

// ----------------------------------------------------------------- PI-bus

TEST(PiBus, DispatchesByAddress) {
  PiBus bus;
  std::uint32_t reg_a = 0, reg_b = 0;
  bus.attach(
      "a", 0x0, 0x100, [&](sim::Addr off) { return reg_a + static_cast<std::uint32_t>(off); },
      [&](sim::Addr, std::uint32_t v) { reg_a = v; });
  bus.attach(
      "b", 0x100, 0x100, [&](sim::Addr) { return reg_b; },
      [&](sim::Addr, std::uint32_t v) { reg_b = v; });
  bus.write(0x0, 11);
  bus.write(0x100, 22);
  EXPECT_EQ(bus.read(0x4), 15u);  // device-relative offset
  EXPECT_EQ(bus.read(0x100), 22u);
  EXPECT_EQ(bus.readCount(), 2u);
  EXPECT_EQ(bus.writeCount(), 2u);
}

TEST(PiBus, RejectsOverlapsAndHoles) {
  PiBus bus;
  bus.attach("a", 0x0, 0x100, [](sim::Addr) { return 0u; }, [](sim::Addr, std::uint32_t) {});
  EXPECT_THROW(bus.attach("b", 0x80, 0x100, [](sim::Addr) { return 0u; },
                          [](sim::Addr, std::uint32_t) {}),
               std::runtime_error);
  EXPECT_THROW((void)bus.read(0x200), std::out_of_range);
}

}  // namespace
