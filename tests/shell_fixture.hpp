#pragma once

// Shared fixture for shell-level tests: a simulator with SRAM, message
// network and two shells (producer side / consumer side) connected by one
// configurable stream.

#include <gtest/gtest.h>

#include <memory>

#include "eclipse/mem/message_network.hpp"
#include "eclipse/mem/sram.hpp"
#include "eclipse/shell/shell.hpp"

namespace eclipse::test {

class TwoShellFixture : public ::testing::Test {
 protected:
  void SetUp() override { rebuild(shell::ShellParams{}); }

  void TearDown() override {
    // Suspended frames reference the shells and the SRAM; destroy them
    // before the models (see Simulator::destroyProcesses).
    if (sim) sim->destroyProcesses();
  }

  /// Rebuilds the harness with custom shell parameters (same for both).
  void rebuild(shell::ShellParams base) {
    sim = std::make_unique<sim::Simulator>();
    sram = std::make_unique<mem::SharedSram>(*sim, mem::SramParams{});
    net = std::make_unique<mem::MessageNetwork>(*sim, 2);
    base.id = 0;
    base.name = "prod";
    prod = std::make_unique<shell::Shell>(*sim, base, *sram, *net);
    base.id = 1;
    base.name = "cons";
    cons = std::make_unique<shell::Shell>(*sim, base, *sram, *net);
  }

  /// Configures one stream between task 0 port 0 on both shells.
  void connect(std::uint32_t buffer_bytes, sim::Addr base_addr = 0x400) {
    shell::StreamConfig pc;
    pc.task = 0;
    pc.port = 0;
    pc.is_producer = true;
    pc.buffer_base = base_addr;
    pc.buffer_bytes = buffer_bytes;
    pc.remote_shell = 1;
    pc.remote_row = 0;
    pc.initial_space = buffer_bytes;
    prod_row = prod->configureStream(pc);

    shell::StreamConfig cc = pc;
    cc.is_producer = false;
    cc.remote_shell = 0;
    cc.remote_row = prod_row;
    cc.initial_space = 0;
    cons_row = cons->configureStream(cc);
    prod->streams().row(prod_row).remote_row = cons_row;

    prod->configureTask(0, shell::TaskConfig{});
    cons->configureTask(0, shell::TaskConfig{});
  }

  /// Runs a test coroutine to completion; fails the test on timeout or if
  /// any spawned process is still blocked when the event queue drains.
  void run(sim::Task<void> t, sim::Cycle horizon = 10'000'000) {
    sim->spawn(std::move(t), "test");
    const sim::Cycle end = sim->run(horizon);
    ASSERT_LT(end, horizon) << "simulation hit the horizon";
    ASSERT_EQ(sim->liveProcesses(), 0u) << "a process is blocked forever (deadlock)";
  }

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<mem::SharedSram> sram;
  std::unique_ptr<mem::MessageNetwork> net;
  std::unique_ptr<shell::Shell> prod;
  std::unique_ptr<shell::Shell> cons;
  std::uint32_t prod_row = 0;
  std::uint32_t cons_row = 0;
};

}  // namespace eclipse::test
