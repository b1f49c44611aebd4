// Tests for the declarative graph control plane: GraphSpec validation,
// free-list allocator reuse, the PI-bus cost of configure and teardown,
// and runtime reconfiguration through AppHandle — pause/resume,
// drain-to-quiescence, teardown with resource reclamation, relaunching a
// different application on the same instance, and a concurrent
// two-application launch/teardown sweep followed by repeated
// configure/teardown of a never-run graph.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "eclipse/app/audio_app.hpp"
#include "eclipse/app/configurator.hpp"
#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/encode_app.hpp"
#include "eclipse/app/graph_spec.hpp"
#include "eclipse/eclipse.hpp"

#include "decode_pin.hpp"

namespace {

using namespace eclipse;

coproc::SoftCpu::StepHandler nopStep() {
  return [](sim::TaskId, std::uint32_t) -> sim::Task<void> { co_return; };
}

/// Validates `g` against `inst` and expects a GraphSpecError whose message
/// contains `needle`.
void expectInvalid(const app::GraphSpec& g, app::EclipseInstance& inst,
                   const std::string& needle) {
  try {
    g.validate(inst);
    FAIL() << "expected GraphSpecError containing '" << needle << "'";
  } catch (const app::GraphSpecError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

media::VideoGenParams tinyVideo() {
  media::VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 7;
  vp.seed = 5;
  return vp;
}

media::CodecParams tinyCodec() {
  media::CodecParams cp;
  cp.width = 48;
  cp.height = 32;
  cp.gop = media::GopStructure{6, 3};
  return cp;
}

std::vector<std::uint8_t> tinyBitstream() {
  media::Encoder enc(tinyCodec());
  return enc.encode(media::generateVideo(tinyVideo()));
}

// ----------------------------------------------------- GraphSpec validation

TEST(GraphSpecValidation, RejectsEmptyGraph) {
  app::EclipseInstance inst;
  expectInvalid(app::GraphSpec("empty"), inst, "no tasks");
}

TEST(GraphSpecValidation, RejectsDanglingPort) {
  app::EclipseInstance inst;
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "dct", .software = {}});
  g.stream("s", "a", 0, "ghost", 0, 256);
  expectInvalid(g, inst, "dangling port");
}

TEST(GraphSpecValidation, RejectsDuplicateEndpoint) {
  app::EclipseInstance inst;
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}})
      .task({.name = "c", .shell = "rlsq", .software = {}});
  g.stream("s1", "a", 1, "b", 0, 256).stream("s2", "a", 1, "c", 0, 256);
  expectInvalid(g, inst, "bound to more than one stream endpoint");

  // Direction-agnostic: reusing a consumer port as a producer port is just
  // as invalid — the shell's stream-table lookup ignores direction.
  app::GraphSpec g2("g2");
  g2.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}});
  g2.stream("s1", "a", 1, "b", 0, 256).stream("s2", "b", 0, "a", 2, 256);
  expectInvalid(g2, inst, "bound to more than one stream endpoint");
}

TEST(GraphSpecValidation, RejectsUnknownShell) {
  app::EclipseInstance inst;
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "quantum-fpu", .software = {}});
  expectInvalid(g, inst, "unknown shell");
}

TEST(GraphSpecValidation, RejectsSoftwareMismatch) {
  app::EclipseInstance inst;
  app::GraphSpec hw_with_sw("g");
  hw_with_sw.task({.name = "a", .shell = "dct", .software = nopStep()});
  expectInvalid(hw_with_sw, inst, "binds a software step to hardware shell");

  app::GraphSpec sw_without("g");
  sw_without.task({.name = "a", .shell = "dsp-cpu", .software = {}});
  expectInvalid(sw_without, inst, "no software step handler");
}

TEST(GraphSpecValidation, RejectsTaskSlotExhaustion) {
  app::InstanceParams ip;
  ip.max_tasks = 2;
  app::EclipseInstance inst(ip);
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "dct", .software = {}})
      .task({.name = "c", .shell = "dct", .software = {}});
  expectInvalid(g, inst, "free task slots");
}

TEST(GraphSpecValidation, RejectsStreamRowExhaustion) {
  app::InstanceParams ip;
  ip.max_streams = 3;
  app::EclipseInstance inst(ip);
  // Two streams between DCT tasks need four rows on the DCT shell.
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "dct", .software = {}});
  g.stream("s1", "a", 0, "b", 0, 256).stream("s2", "b", 1, "a", 1, 256);
  expectInvalid(g, inst, "free stream rows");
}

TEST(GraphSpecValidation, RejectsUndersizedBuffer) {
  app::EclipseInstance inst;
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}});
  g.stream("s", "a", 0, "b", 0, 100);  // not a cache-line multiple
  expectInvalid(g, inst, "cache line");

  app::GraphSpec g0("g");
  g0.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}});
  g0.stream("s", "a", 0, "b", 0, 0);
  expectInvalid(g0, inst, "cache line");
}

TEST(GraphSpecValidation, RejectsSramExhaustion) {
  app::InstanceParams ip;
  ip.sram.size_bytes = 1024;
  app::EclipseInstance inst(ip);
  app::GraphSpec g("g");
  g.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}});
  g.stream("s", "a", 0, "b", 0, 4096);
  expectInvalid(g, inst, "bytes of SRAM");
}

// ------------------------------------------------------ free-list allocators

TEST(FreeList, SramReusesFreedHolesFirstFit) {
  app::EclipseInstance inst;
  const std::size_t free0 = inst.sramBytesFree();
  const auto a = inst.allocSram(128);
  const auto b = inst.allocSram(256);
  const auto c = inst.allocSram(128);
  inst.freeSram(b, 256);
  // First fit: the freed hole between a and c is reused.
  EXPECT_EQ(inst.allocSram(64), b);
  inst.freeSram(b, 64);
  inst.freeSram(a, 128);
  inst.freeSram(c, 128);
  // Full coalescing: everything merges back into one region.
  EXPECT_EQ(inst.sramBytesFree(), free0);
  const auto whole = inst.allocSram(static_cast<std::uint32_t>(free0));
  EXPECT_EQ(whole, a);
  inst.freeSram(whole, static_cast<std::uint32_t>(free0));
}

TEST(FreeList, DoubleFreeAndOverlapThrow) {
  app::EclipseInstance inst;
  const auto a = inst.allocSram(128);
  inst.freeSram(a, 128);
  EXPECT_THROW(inst.freeSram(a, 128), std::logic_error);
  const auto b = inst.allocDram(256);
  inst.freeDram(b, 256);
  EXPECT_THROW(inst.freeDram(b, 256), std::logic_error);
}

TEST(FreeList, DramRoundTripRestoresFreeBytes) {
  app::EclipseInstance inst;
  const std::size_t free0 = inst.dramBytesFree();
  const auto a = inst.allocDram(1000);  // rounded up internally
  const auto b = inst.allocDram(64);
  inst.freeDram(a, 1000);
  inst.freeDram(b, 64);
  EXPECT_EQ(inst.dramBytesFree(), free0);
}

// ------------------------------------------------- runtime reconfiguration

TEST(Reconfig, DecodeTimingViaGraphSpecStaysPinned) {
  // The control-plane acceptance pin: building the decode graph through
  // GraphSpec + AppHandle MMIO writes must be cycle-identical to the
  // historical direct-wiring path.
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

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bitstream);
  const sim::Cycle cycles = inst.run();
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(cycles, pin::kDecodePinCycles);
  EXPECT_EQ(inst.simulator().eventsDispatched(), pin::kDecodePinEvents);
}

TEST(Reconfig, ConfigureAndTeardownPiBusTrafficIsPinned) {
  // The configuring CPU's cost of two decode applications on one default
  // instance, access for access: building both (task slots, stream rows
  // found by valid-bit reads, fields, valid bits, enables) and tearing
  // both down after the run (quiescence and enable reads, then every row
  // invalidated).
  media::VideoGenParams vp = tinyVideo();
  vp.frames = 3;
  media::Encoder enc(tinyCodec());
  const auto bits = enc.encode(media::generateVideo(vp));

  app::EclipseInstance inst;
  const mem::PiBus& bus = inst.piBus();
  std::uint64_t w0 = bus.writeCount();
  std::uint64_t r0 = bus.readCount();
  app::DecodeApp a(inst, bits);
  app::DecodeApp b(inst, bits);
  EXPECT_EQ(bus.writeCount() - w0, 220u);
  EXPECT_EQ(bus.readCount() - r0, 53u);

  inst.run();
  ASSERT_TRUE(a.done());
  ASSERT_TRUE(b.done());
  for (const app::DecodeApp* d : {&a, &b}) {
    const auto frames = d->frames();
    ASSERT_EQ(frames.size(), enc.reconstructed().size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i], enc.reconstructed()[i]) << "frame " << i;
    }
  }

  w0 = bus.writeCount();
  r0 = bus.readCount();
  a.teardown();
  b.teardown();
  EXPECT_EQ(bus.writeCount() - w0, 40u);
  EXPECT_EQ(bus.readCount() - r0, 25u);
}

TEST(Reconfig, PauseFreezesProgressAndResumeCompletes) {
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, tinyBitstream());
  inst.run(20'000);
  ASSERT_FALSE(dec.done());
  const auto mb_before = dec.macroblocksDecoded();

  dec.handle().pause();
  EXPECT_TRUE(dec.handle().paused());
  for (const auto& t : dec.handle().tasks()) {
    EXPECT_FALSE(t.shell->tasks().row(t.id).enabled) << t.spec.name;
  }
  inst.run(120'000);
  EXPECT_EQ(dec.macroblocksDecoded(), mb_before);  // nothing moved
  EXPECT_FALSE(dec.done());

  dec.handle().resume();
  EXPECT_FALSE(dec.handle().paused());
  inst.run();
  EXPECT_TRUE(dec.done());
  media::Encoder ref(tinyCodec());
  (void)ref.encode(media::generateVideo(tinyVideo()));
  const auto frames = dec.frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i], ref.reconstructed()[i]);
  }
}

TEST(Reconfig, DecodeDrainTeardownThenLaunchEncode) {
  app::InstanceParams ip;
  ip.sram.size_bytes = 64 * 1024;
  app::EclipseInstance inst(ip);

  const std::size_t sram0 = inst.sramBytesFree();
  const std::size_t dram0 = inst.dramBytesFree();
  std::vector<std::uint32_t> slots0;
  for (auto* sh : {&inst.vldShell(), &inst.rlsqShell(), &inst.dctShell(), &inst.mcShell(),
                   &inst.cpuShell()}) {
    slots0.push_back(inst.freeTaskSlots(*sh));
  }

  // Launch a decode, stop it mid-stream, drain to quiescence, tear down.
  auto dec = std::make_unique<app::DecodeApp>(inst, tinyBitstream());
  inst.run(30'000);
  ASSERT_FALSE(dec->done());
  EXPECT_TRUE(dec->handle().drain());
  EXPECT_TRUE(dec->handle().quiesced());
  dec->teardown();
  EXPECT_TRUE(dec->handle().tornDown());
  EXPECT_THROW(dec->handle().setTaskEnabled("vld", true), std::logic_error);
  dec->teardown();  // idempotent
  dec.reset();

  // Every resource went back to the instance allocators.
  EXPECT_EQ(inst.sramBytesFree(), sram0);
  EXPECT_EQ(inst.dramBytesFree(), dram0);
  std::size_t i = 0;
  for (auto* sh : {&inst.vldShell(), &inst.rlsqShell(), &inst.dctShell(), &inst.mcShell(),
                   &inst.cpuShell()}) {
    EXPECT_EQ(inst.freeTaskSlots(*sh), slots0[i++]) << sh->name();
  }
  EXPECT_EQ(inst.pendingApps(), 0);

  // The freed slots, rows and SRAM now carry a full encode application.
  const auto video = media::generateVideo(tinyVideo());
  app::EncodeApp enc(inst, video, tinyCodec());
  inst.run();
  ASSERT_TRUE(enc.done());
  media::Decoder check;
  EXPECT_GT(media::averagePsnr(video, check.decode(enc.bitstream())), 28.0);

  enc.handle().teardown();
  EXPECT_EQ(inst.sramBytesFree(), sram0);
  EXPECT_EQ(inst.dramBytesFree(), dram0);
}

TEST(Reconfig, TwoAppConcurrentLaunchTeardownSweep) {
  app::InstanceParams ip;
  ip.sram.size_bytes = 128 * 1024;
  app::EclipseInstance inst(ip);
  const auto bits = tinyBitstream();
  const auto tone = media::audio::encode(media::audio::generateTone(4096, 11));

  const std::size_t sram0 = inst.sramBytesFree();

  for (int iter = 0; iter < 3; ++iter) {
    // Two applications configured and running concurrently.
    auto dec = std::make_unique<app::DecodeApp>(inst, bits);
    auto aud = std::make_unique<app::AudioDecodeApp>(inst, tone);
    const sim::Cycle base = inst.simulator().now();
    inst.run(base + 20'000);

    // Tear the audio application down mid-run; the decode keeps going.
    EXPECT_TRUE(aud->handle().drain());
    aud->teardown();
    aud.reset();
    ASSERT_FALSE(dec->done());

    // Relaunch audio into the freed rows/slots/SRAM, run both to the end.
    auto aud2 = std::make_unique<app::AudioDecodeApp>(inst, tone);
    inst.run();
    ASSERT_TRUE(dec->done());
    ASSERT_TRUE(aud2->done());
    EXPECT_GT(media::audio::snrDb(media::audio::generateTone(4096, 11), aud2->pcm()), 25.0);

    // Alternate teardown order across iterations.
    if (iter % 2 == 0) {
      dec->teardown();
      aud2->teardown();
    } else {
      aud2->teardown();
      dec->teardown();
    }
    dec.reset();
    aud2.reset();
    EXPECT_EQ(inst.sramBytesFree(), sram0) << "iteration " << iter;
    EXPECT_EQ(inst.pendingApps(), 0) << "iteration " << iter;
  }

  // A scheduler-disabled decode-shaped graph (the four hardware tasks and
  // their internal streams, no sink) configured and torn down back to back
  // over the PI-bus, never run: the free list must hand back every SRAM
  // byte on every cycle.
  const app::DecodeAppConfig cfg;
  app::GraphSpec probe("reconfig-probe");
  probe
      .task({.name = "vld",
             .shell = "vld",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .source = true,
             .software = {}})
      .task({.name = "rlsq",
             .shell = "rlsq",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .software = {}})
      .task({.name = "idct",
             .shell = "dct",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .software = {}})
      .task({.name = "mc",
             .shell = "mc",
             .budget_cycles = cfg.budget_cycles,
             .enabled = false,
             .software = {}});
  probe
      .stream("coef", "vld", coproc::VldCoproc::kOutCoef, "rlsq", coproc::RlsqCoproc::kIn,
              cfg.coef_buffer)
      .stream("hdr", "vld", coproc::VldCoproc::kOutHdr, "mc", coproc::McCoproc::kInHdr,
              cfg.hdr_buffer)
      .stream("blocks", "rlsq", coproc::RlsqCoproc::kOut, "idct", coproc::DctCoproc::kIn,
              cfg.blocks_buffer)
      .stream("res", "idct", coproc::DctCoproc::kOut, "mc", coproc::McCoproc::kInRes,
              cfg.res_buffer);
  for (int cycle = 0; cycle < 20; ++cycle) {
    app::AppHandle h = app::AppHandle::configure(inst, probe);
    h.teardown();
    EXPECT_EQ(inst.sramBytesFree(), sram0) << "probe cycle " << cycle;
  }
}

}  // namespace
