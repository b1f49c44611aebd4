// Fault containment, watchdogs and control-plane recovery (DESIGN §9):
// injector window/budget semantics, the per-task fault register over the
// PI-bus, watchdog stall latching, quiescence classification (deadlock vs
// starvation vs clean drain, lost synchronisation between two shells), the
// zero cost of an idle injector or watchdog on the pinned decode, and the
// end-to-end decode recovery policy.

#include <gtest/gtest.h>

#include "eclipse/eclipse.hpp"

#include "decode_pin.hpp"

namespace {

using namespace eclipse;

std::vector<std::uint8_t> validStream(int frames = 5, int gop_n = 0) {
  media::VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = frames;
  vp.seed = 31;
  media::CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  if (gop_n > 0) cp.gop = media::GopStructure{gop_n, 2};
  media::Encoder enc(cp);
  return enc.encode(media::generateVideo(vp));
}

// ---------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------

TEST(Faults, InjectorHonorsWindowAndBudget) {
  sim::FaultInjector inj;
  sim::FaultSpec f;
  f.kind = sim::FaultKind::DropPutspace;
  f.shell = 3;
  f.at_cycle = 100;
  f.until_cycle = 200;
  f.count = 2;
  inj.arm(f);

  EXPECT_FALSE(inj.shouldDropPutspace(3, 50));   // before the window
  EXPECT_FALSE(inj.shouldDropPutspace(2, 150));  // wrong shell
  EXPECT_TRUE(inj.shouldDropPutspace(3, 150));
  EXPECT_TRUE(inj.shouldDropPutspace(3, 160));
  EXPECT_FALSE(inj.shouldDropPutspace(3, 170));  // budget exhausted
  EXPECT_FALSE(inj.shouldDropPutspace(3, 250));  // window closed

  inj.clear();
  inj.arm(f);
  EXPECT_TRUE(inj.shouldDropPutspace(3, 150)) << "clear() must reset trigger budgets";
}

// ---------------------------------------------------------------------
// Fault register over the PI-bus
// ---------------------------------------------------------------------

TEST(Faults, FaultRegistersReadableAndClearableOverPiBus) {
  app::EclipseInstance inst;
  shell::Shell& sh = inst.vldShell();
  sh.configureTask(0, shell::TaskConfig{});
  sh.latchFault(0, shell::FaultCause::Protocol, /*row=*/2, "unit-test fault");

  mem::PiBus& bus = inst.piBus();
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaulted)), 1u);
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaultCause)),
            static_cast<std::uint32_t>(shell::FaultCause::Protocol));
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaultRow)), 2u);
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaultCount)), 1u);
  // Latching a fault disables the task so siblings keep running.
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskEnabled)), 0u);
  EXPECT_EQ(bus.read(app::mmio::ctlReg(sh, app::mmio::kCtlFaultsLatched)), 1u);

  // First fault wins; repeats only bump the count.
  sh.latchFault(0, shell::FaultCause::Bitstream, -1, "second fault");
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaultCause)),
            static_cast<std::uint32_t>(shell::FaultCause::Protocol));
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaultCount)), 2u);

  // Recovery step 1: clearing the latch does NOT re-enable (step 2 is a
  // separate, deliberate enable-bit write).
  bus.write(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaulted), 0);
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskFaulted)), 0u);
  EXPECT_EQ(bus.read(app::mmio::taskReg(sh, 0, app::mmio::kTaskEnabled)), 0u);
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Faults, WatchdogLatchesStallOnStarvedStreamWithoutKillingTasks) {
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, validStream());
  dec.handle().setTaskEnabled("rlsq", false);  // starve the coef stream
  inst.armWatchdogs(/*timeout=*/10'000, /*period=*/256);

  inst.run(200'000);
  EXPECT_FALSE(dec.done());
  const app::AppHealth h = dec.handle().health();
  ASSERT_FALSE(h.stalls.empty()) << "watchdog latched no stall";
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Starved);
  // The stall latch is detection-only: no task may be faulted by a slow
  // (here: paused) peer.
  EXPECT_TRUE(h.faults.empty());

  // Un-starving the stream completes the clip — detection was harmless.
  dec.handle().setTaskEnabled("rlsq", true);
  inst.run(10'000'000);
  EXPECT_TRUE(dec.done());
}

TEST(Faults, WatchdogLatchesHangFaultOnWedgedTask) {
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, validStream());

  sim::FaultPlan plan;
  sim::FaultSpec f;
  f.kind = sim::FaultKind::TaskHang;
  f.shell = inst.rlsqShell().id();
  f.task = dec.rlsqTask();
  f.at_cycle = 10'000;
  f.delay_cycles = 300'000;  // well past the watchdog timeout
  plan.faults.push_back(f);
  inst.armFaults(plan);
  inst.armWatchdogs(/*timeout=*/20'000, /*period=*/256);

  inst.run(600'000);
  const app::AppHealth h = dec.handle().health();
  ASSERT_FALSE(h.faults.empty()) << "hang was not detected";
  EXPECT_EQ(h.faults[0].task, "rlsq");
  EXPECT_EQ(h.faults[0].cause, static_cast<std::uint32_t>(shell::FaultCause::Hang));
  EXPECT_EQ(inst.faults().triggerCount(sim::FaultKind::TaskHang), 1u);
}

// ---------------------------------------------------------------------
// Quiescence classification
// ---------------------------------------------------------------------

TEST(Faults, ClassifierReportsCleanDrainAsDone) {
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, validStream());
  inst.run(10'000'000);
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Done);
}

TEST(Faults, ClassifierReportsDisabledSourceAsStarvation) {
  app::EclipseInstance inst;
  app::DecodeAppConfig cfg;
  cfg.vld_enabled = false;  // source never runs: everyone waits on it
  app::DecodeApp dec(inst, validStream(), cfg);
  inst.run(200'000);
  EXPECT_FALSE(dec.done());
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Starved);
}

TEST(Faults, ClassifierDetectsTrueDeadlockCycle) {
  app::EclipseInstance inst;
  coproc::SoftCpu& cpu = inst.cpu();

  // Two software tasks, each needing a byte from the other before it will
  // produce one: a genuine circular wait, undetectable as starvation.
  auto need_input_first = [&cpu](sim::TaskId task, std::uint32_t) -> sim::Task<void> {
    if (!co_await cpu.shell().getSpace(task, /*port=*/0, 1)) co_return;
  };

  app::GraphSpec g("loop");
  g.task({.name = "x", .shell = "dsp-cpu", .software = need_input_first})
      .task({.name = "y", .shell = "dsp-cpu", .software = need_input_first});
  g.stream("xy", "x", /*out=*/1, "y", /*in=*/0, 256).stream("yx", "y", 1, "x", 0, 256);

  app::AppHandle h = app::AppHandle::configure(inst, g);
  inst.run(100'000);
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Deadlocked);
}

// A bare vld -> dct stream over a 256-byte FIFO: each side pumps 64-byte
// chunks (GetSpace + PutSpace, no payload) until it has done `rounds`.
sim::Task<void> pump(shell::Shell& sh, std::uint64_t rounds, std::uint64_t& done) {
  while (done < rounds) {
    const shell::GetTaskResult r = co_await sh.getTask();
    if (co_await sh.getSpace(r.task, /*port=*/0, 64)) {
      co_await sh.putSpace(r.task, /*port=*/0, 64);
      ++done;
    }
  }
}

/// Programs that stream and one enabled task on each shell (slot 0, port
/// 0). The rows stay programmed for the instance's lifetime.
void connectVldToDct(app::EclipseInstance& inst) {
  app::GraphSpec g("vld-dct");
  g.task({.name = "p", .shell = "vld", .software = {}})
      .task({.name = "c", .shell = "dct", .software = {}});
  g.stream("s", "p", 0, "c", 0, 256);
  app::AppHandle::configure(inst, g);
}

TEST(Faults, DelayedPutspaceHonorsBudgetAndPipelineCompletes) {
  app::EclipseInstance inst;
  connectVldToDct(inst);
  sim::FaultPlan fp;
  for (const shell::Shell* sh : {&inst.vldShell(), &inst.dctShell()}) {
    sim::FaultSpec delay;
    delay.kind = sim::FaultKind::DelayPutspace;
    delay.shell = sh->id();
    delay.count = 25;  // first 25 messages from each shell arrive late
    delay.delay_cycles = 7;
    fp.faults.push_back(delay);
  }
  inst.armFaults(fp);

  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  inst.simulator().spawn(pump(inst.vldShell(), 200, produced), "producer");
  inst.simulator().spawn(pump(inst.dctShell(), 200, consumed), "consumer");
  inst.simulator().run(2'000'000);

  EXPECT_EQ(produced, 200u);
  EXPECT_EQ(consumed, 200u);
  EXPECT_EQ(inst.faults().triggerCount(sim::FaultKind::DelayPutspace), 50u);
}

// Lost synchronisation: every putspace leaving vld is dropped. vld commits
// one FIFO of chunks and then waits for space dct never returns; dct waits
// for data it never hears about. Each task's blocked-on edge points at the
// other's shell.
void startLostSync(app::EclipseInstance& inst, std::uint64_t& produced, std::uint64_t& consumed) {
  connectVldToDct(inst);
  sim::FaultSpec drop;
  drop.kind = sim::FaultKind::DropPutspace;
  drop.shell = inst.vldShell().id();
  drop.count = 0;  // unlimited: every sync message from the producer dies
  inst.armFaults(sim::FaultPlan{{drop}});
  inst.simulator().spawn(pump(inst.vldShell(), 1'000'000, produced), "producer");
  inst.simulator().spawn(pump(inst.dctShell(), 1'000'000, consumed), "consumer");
}

TEST(Faults, LostSyncBetweenTwoShellsIsClassifiedDeadlocked) {
  app::EclipseInstance inst;
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  startLostSync(inst, produced, consumed);
  inst.simulator().run(500'000);

  EXPECT_EQ(produced, 4u) << "producer commits exactly one FIFO of chunks, then starves";
  EXPECT_EQ(consumed, 0u);
  EXPECT_GT(inst.network().messagesDropped(), 0u);
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Deadlocked);
}

TEST(Faults, WatchdogLatchesLostSyncStallOnBothShells) {
  app::EclipseInstance inst;
  inst.armWatchdogs(/*timeout=*/5'000, /*period=*/512);
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  startLostSync(inst, produced, consumed);
  inst.simulator().run(100'000);  // watchdog scans keep the queue alive

  shell::Shell& cons = inst.dctShell();
  EXPECT_GE(cons.stallsLatched(), 1u);
  EXPECT_GE(inst.vldShell().stallsLatched(), 1u);
  const shell::TaskRow& blocked = cons.tasks().row(0);
  EXPECT_TRUE(blocked.blocked);
  ASSERT_GE(blocked.blocked_row, 0);
  EXPECT_TRUE(cons.streams().row(static_cast<std::uint32_t>(blocked.blocked_row)).stalled);
  // Stall latching is detection-only: the cycle is still a deadlock.
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Deadlocked);
}

// ---------------------------------------------------------------------
// Idle robustness machinery is free: the pinned decode does not move
// ---------------------------------------------------------------------

TEST(Faults, EmptyPlanAndIdleWatchdogLeaveThePinnedDecodeUnmoved) {
  // The suite-wide pin workload (tests/decode_pin.hpp).
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
  const auto bitstream = enc.encode(media::generateVideo(vp));

  sim::Cycle baseline_cycles = 0;
  std::uint64_t baseline_events = 0;
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bitstream);
    baseline_cycles = inst.run();
    baseline_events = inst.simulator().eventsDispatched();
    ASSERT_TRUE(dec.done());
    EXPECT_EQ(baseline_cycles, pin::kDecodePinCycles);
    EXPECT_EQ(baseline_events, pin::kDecodePinEvents);
  }

  // Armed injector, empty plan: every hook becomes a real query, but
  // nothing may change in simulated time or event count.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bitstream);
    inst.armFaults(sim::FaultPlan{});
    EXPECT_EQ(inst.run(), baseline_cycles);
    EXPECT_EQ(inst.simulator().eventsDispatched(), baseline_events);
    EXPECT_TRUE(dec.done());
  }

  // Watchdog armed with a generous timeout: its scan process adds events
  // but must not move the decode's end cycle or latch anything.
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bitstream);
    inst.armWatchdogs(/*timeout=*/1'000'000, /*period=*/256);
    EXPECT_EQ(inst.run(), baseline_cycles);
    EXPECT_TRUE(dec.done());
    const app::AppHealth h = dec.handle().health();
    EXPECT_TRUE(h.faults.empty()) << "watchdog false positive on a clean decode";
    EXPECT_TRUE(h.stalls.empty()) << "watchdog false positive on a clean decode";
  }
}

TEST(Faults, ReArmingReplacesAScheduledBitFlip) {
  const auto bitstream = validStream();
  sim::Cycle baseline_cycles = 0;
  std::uint64_t baseline_events = 0;
  std::vector<media::Frame> baseline_frames;
  {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bitstream);
    baseline_cycles = inst.run();
    baseline_events = inst.simulator().eventsDispatched();
    ASSERT_TRUE(dec.done());
    baseline_frames = dec.frames();
  }

  // A plan with an SRAM bit flip halfway through the decode, replaced by
  // an empty plan before its cycle: the flip must neither fire nor log.
  // Applied, this flip keeps the decode from completing: the byte lies in
  // a buffer the pipeline still reads after the trigger cycle.
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bitstream);
  sim::FaultSpec flip;
  flip.kind = sim::FaultKind::BitFlipSram;
  flip.at_cycle = baseline_cycles / 2;
  flip.addr = 1216;
  flip.bit = 3;
  sim::FaultPlan plan;
  plan.faults.push_back(flip);
  inst.armFaults(plan);
  inst.armFaults(sim::FaultPlan{});

  EXPECT_EQ(inst.run(), baseline_cycles);
  // Events cannot be cancelled: the replaced flip is still dispatched,
  // once, and returns without touching anything.
  EXPECT_EQ(inst.simulator().eventsDispatched(), baseline_events + 1);
  EXPECT_TRUE(inst.faults().triggers().empty());
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(dec.frames(), baseline_frames);
}

// ---------------------------------------------------------------------
// End-to-end recovery: corruption mid-clip, resync at the next I-frame
// ---------------------------------------------------------------------

TEST(Faults, DecodeRecoversFromMidClipCorruption) {
  const int total_frames = 10;
  const auto bits = validStream(total_frames, /*gop=*/4);  // I-frames recur

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bits);

  std::vector<app::TaskFault> seen;
  dec.handle().onFault([&seen](const app::TaskFault& f) { seen.push_back(f); });
  dec.enableRecovery();

  sim::FaultPlan plan;
  plan.seed = 7;
  sim::FaultSpec f;
  f.kind = sim::FaultKind::CorruptPayload;
  f.shell = inst.vldShell().id();
  f.task = dec.vldTask();
  f.port = coproc::VldCoproc::kOutCoef;
  f.at_cycle = 30'000;  // mid-clip
  f.count = 2;
  f.xor_mask = 0xff;
  plan.faults.push_back(f);
  inst.armFaults(plan);

  const auto end = inst.run(50'000'000);
  ASSERT_LT(end, 50'000'000u) << "recovery hung";
  ASSERT_TRUE(dec.done()) << "clip did not finish after recovery";

  // The fault latched, was observable, and the policy recovered from it.
  ASSERT_FALSE(seen.empty()) << "corruption caused no fault";
  EXPECT_NE(seen[0].cause, 0u);
  EXPECT_GE(dec.recoveries(), 1u);
  EXPECT_GE(inst.faults().triggerCount(sim::FaultKind::CorruptPayload), 1u);

  // Graceful degradation accounting: pictures were lost, not invented.
  EXPECT_GE(dec.framesDropped() + inst.vld().picturesSkipped(), 1u);
  EXPECT_LT(dec.frames().size(), static_cast<std::size_t>(total_frames));
  EXPECT_GT(dec.frames().size(), 0u);

  // After recovery the latch was acknowledged over the PI-bus.
  EXPECT_TRUE(dec.handle().health().faults.empty());
}

TEST(Faults, RepairStreamRestoresALostPutspaceAndTheDecodeCompletesBitExact) {
  // One putspace message lost from a decode shell: its stream's
  // two space registers no longer add up to the buffer, the graph stalls
  // at quiescence, and repairStream() rebuilds both from the committed
  // positions, after which the decode finishes bit-exact.
  media::VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 5;
  vp.seed = 31;
  media::CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  media::Encoder enc(cp);
  const auto bits = enc.encode(media::generateVideo(vp));
  const std::vector<media::Frame> golden = enc.reconstructed();

  // A message lost from the dct shell at this cycle does not stall this
  // clip (the decode still finishes), so it has nothing to repair here.
  for (const char* shell_name : {"vld", "rlsq", "mc"}) {
    SCOPED_TRACE(shell_name);
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bits);
    sim::FaultSpec drop;
    drop.kind = sim::FaultKind::DropPutspace;
    drop.shell = inst.shell(shell_name).id();
    drop.at_cycle = 20'000;
    drop.count = 1;
    inst.armFaults(sim::FaultPlan{{drop}});

    inst.run();
    ASSERT_EQ(inst.faults().triggerCount(sim::FaultKind::DropPutspace), 1u);
    ASSERT_FALSE(dec.done()) << "a lost putspace must stall the decode";

    // The stream the message belonged to is the one whose producer room
    // and consumer data no longer add up to its buffer.
    std::vector<std::string> broken;
    for (const app::AppStream& s : dec.handle().streams()) {
      const std::uint32_t room = inst.piBus().read(
          app::mmio::streamReg(*s.producer_shell, s.producer_row, app::mmio::kStreamSpace));
      const std::uint32_t data = inst.piBus().read(
          app::mmio::streamReg(*s.consumer_shell, s.consumer_row, app::mmio::kStreamSpace));
      if (room + data != s.spec.buffer_bytes) broken.push_back(s.spec.name);
    }
    ASSERT_EQ(broken.size(), 1u);

    dec.handle().repairStream(broken.front());
    inst.armFaults(sim::FaultPlan{});
    inst.run();
    ASSERT_TRUE(dec.done()) << "repaired stream " << broken.front();
    const auto out = dec.frames();
    ASSERT_EQ(out.size(), golden.size());
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], golden[i]) << "frame " << i;
  }
}

}  // namespace
