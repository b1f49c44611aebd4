// Tests for the fork (multicast) coprocessor: one producer, several
// consumers, each with independent back-pressure.

#include <gtest/gtest.h>

#include "eclipse/coproc/fork.hpp"
#include "eclipse/coproc/packet_io.hpp"
#include "eclipse/media/packets.hpp"
#include "shell_fixture.hpp"

namespace {

using namespace eclipse;
using coproc::ForkCoproc;
using coproc::packet_io::frameBytes;
using coproc::packet_io::Packet;
using coproc::packet_io::tryReadView;
using coproc::packet_io::write;
using shell::Shell;
using sim::Task;

class ForkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim = std::make_unique<sim::Simulator>();
    mem::SramParams sp;
    sp.size_bytes = 64 * 1024;
    sram = std::make_unique<mem::SharedSram>(*sim, sp);
    net = std::make_unique<mem::MessageNetwork>(*sim, 2);
    for (std::uint32_t id = 0; id < 4; ++id) {
      shell::ShellParams p;
      p.id = id;
      p.name = "s" + std::to_string(id);
      shells.push_back(std::make_unique<Shell>(*sim, p, *sram, *net));
    }
    // producer shell 0 -> fork shell 1 -> sink shells 2, 3
    connect(*shells[0], 0, 0, *shells[1], 0, ForkCoproc::kIn, 0x0000);
    connect(*shells[1], 0, 1, *shells[2], 0, 0, 0x1000);
    connect(*shells[1], 0, 2, *shells[3], 0, 0, 0x2000);
    for (auto& sh : shells) sh->configureTask(0, shell::TaskConfig{});
    fork = std::make_unique<ForkCoproc>(*sim, *shells[1], 2, 512);
    fork->start();
  }

  void connect(Shell& prod, sim::TaskId pt, sim::PortId pp, Shell& cons, sim::TaskId ct,
               sim::PortId cp, sim::Addr base) {
    shell::StreamConfig pc;
    pc.task = pt;
    pc.port = pp;
    pc.is_producer = true;
    pc.buffer_base = base;
    pc.buffer_bytes = 2048;
    pc.remote_shell = cons.id();
    pc.initial_space = 2048;
    const auto prow = prod.configureStream(pc);
    pc.task = ct;
    pc.port = cp;
    pc.is_producer = false;
    pc.remote_shell = prod.id();
    pc.remote_row = prow;
    pc.initial_space = 0;
    const auto crow = cons.configureStream(pc);
    prod.streams().row(prow).remote_row = crow;
  }

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<mem::SharedSram> sram;
  std::unique_ptr<mem::MessageNetwork> net;
  std::vector<std::unique_ptr<Shell>> shells;
  std::unique_ptr<ForkCoproc> fork;
};

Task<void> produceN(Shell& sh, int n) {
  for (int i = 0; i < n; ++i) {
    std::vector<std::uint8_t> pkt{static_cast<std::uint8_t>(media::PacketTag::Mb)};
    for (int b = 0; b < 40; ++b) pkt.push_back(static_cast<std::uint8_t>(i * 40 + b));
    co_await sh.waitSpace(0, 0, frameBytes(static_cast<std::uint32_t>(pkt.size())));
    co_await write(sh, 0, 0, pkt);
  }
  co_await sh.waitSpace(0, 0, frameBytes(1));
  co_await write(sh, 0, 0, media::packTag(media::PacketTag::Eos));
}

Task<void> collect(Shell& sh, std::vector<std::vector<std::uint8_t>>& out, sim::Simulator& sim,
                   sim::Cycle delay_per_packet) {
  while (true) {
    co_await test::waitPacket(sh, 0, 0);
    const Packet p = co_await tryReadView(sh, 0, 0);
    std::vector<std::uint8_t> pkt(p.bytes.begin(), p.bytes.end());
    const bool eos = static_cast<media::PacketTag>(pkt.at(0)) == media::PacketTag::Eos;
    out.push_back(std::move(pkt));
    if (eos) co_return;
    co_await sim.delay(delay_per_packet);
  }
}

TEST_F(ForkTest, BothConsumersReceiveIdenticalStreams) {
  std::vector<std::vector<std::uint8_t>> a, b;
  sim->spawn(produceN(*shells[0], 50), "prod");
  sim->spawn(collect(*shells[2], a, *sim, 0), "c0");
  sim->spawn(collect(*shells[3], b, *sim, 0), "c1");
  sim->run(50'000'000);
  ASSERT_EQ(sim->liveProcesses(), 1u);  // only the parked coprocessor loop remains
  ASSERT_EQ(a.size(), 51u);  // 50 packets + Eos
  EXPECT_EQ(a, b);
  EXPECT_EQ(fork->packetsForwarded(), 51u);
}

TEST_F(ForkTest, SlowConsumerThrottlesTheMulticast) {
  std::vector<std::vector<std::uint8_t>> a, b;
  sim->spawn(produceN(*shells[0], 50), "prod");
  sim->spawn(collect(*shells[2], a, *sim, 0), "fast");
  sim->spawn(collect(*shells[3], b, *sim, 3000), "slow");
  sim->run(50'000'000);
  ASSERT_EQ(sim->liveProcesses(), 1u);  // only the parked coprocessor loop remains
  EXPECT_EQ(a, b);
  // The fast consumer can never run ahead by more than the FIFO capacity.
  EXPECT_EQ(a.size(), 51u);
}

}  // namespace
