// Mode-set applications and diff-based live reconfiguration (DESIGN §12):
// ModeSet cross-mode validation, the diffGraphs classification rules,
// field-only (drain-free) transitions, seamless mid-clip SD<->HD segment
// switching, live audio subgraph detach/attach, teardown lifecycle
// enforcement, fault containment across a mode switch, and the farm's
// mode-scheduled adaptive-decode jobs.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "eclipse/app/audio_app.hpp"
#include "eclipse/app/configurator.hpp"
#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/encode_app.hpp"
#include "eclipse/app/graph_spec.hpp"
#include "eclipse/app/mode_set.hpp"
#include "eclipse/eclipse.hpp"
#include "eclipse/farm/farm.hpp"

#include "decode_pin.hpp"

namespace {

using namespace eclipse;

/// One synthetic clip with its encoded bitstream and golden (encoder
/// reconstruction) frames — the same deterministic recipe the rest of the
/// suite uses.
struct Clip {
  std::vector<media::Frame> video;
  std::vector<std::uint8_t> bitstream;
  std::vector<media::Frame> golden;
};

Clip makeClip(int w, int h, int frames, std::uint64_t seed = 3) {
  media::VideoGenParams vp;
  vp.width = w;
  vp.height = h;
  vp.frames = frames;
  vp.seed = seed;
  vp.detail = 8;
  vp.noise_level = 0.0;
  vp.motion_speed = 4;
  media::CodecParams cp;
  cp.width = w;
  cp.height = h;
  cp.qscale = 14;
  cp.gop = {9, 3};
  media::Encoder enc(cp);
  Clip c;
  c.video = media::generateVideo(vp);
  c.bitstream = enc.encode(c.video);
  c.golden = enc.reconstructed();
  return c;
}

/// The HD decode mode of the tests/bench: wider stream FIFOs, same graph
/// topology, so an SD->HD transition re-binds four streams and keeps hdr.
app::DecodeAppConfig hdConfig() {
  app::DecodeAppConfig cfg;
  cfg.coef_buffer = 6144;
  cfg.blocks_buffer = 3072;
  cfg.res_buffer = 3072;
  cfg.pix_buffer = 3072;
  return cfg;
}

/// A reduced-budget decode mode over the identical topology: transitions
/// to/from it are field-only (no stream touched, no drain).
app::DecodeAppConfig ecoConfig() {
  app::DecodeAppConfig cfg;
  cfg.budget_cycles = 500;
  return cfg;
}

void expectFramesEqual(const std::vector<media::Frame>& got,
                       const std::vector<media::Frame>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " frame " << i;
  }
}

// ------------------------------------------------------ ModeSet validation

TEST(ModeSet, RejectsDuplicateModeName) {
  app::GraphSpec a("sd");
  a.task({.name = "t", .shell = "dct", .software = {}});
  app::GraphSpec b("sd");
  b.task({.name = "t", .shell = "dct", .software = {}});
  app::ModeSet ms("fam");
  ms.mode(std::move(a));
  EXPECT_THROW(ms.mode(std::move(b)), app::GraphSpecError);
}

TEST(ModeSet, RejectsCrossModeShellMove) {
  // A task name shared by two modes must keep its shell: transitions keep
  // the task slot in place, they never migrate it.
  app::EclipseInstance inst;
  app::GraphSpec a("sd");
  a.task({.name = "x", .shell = "dct", .software = {}});
  app::GraphSpec b("hd");
  b.task({.name = "x", .shell = "mc", .software = {}});
  app::ModeSet ms("fam");
  ms.mode(std::move(a)).mode(std::move(b));
  try {
    ms.validate(inst);
    FAIL() << "expected GraphSpecError for a cross-mode shell move";
  } catch (const app::GraphSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("rename the task if it moves"), std::string::npos)
        << e.what();
  }
}

TEST(ModeSet, AtThrowsOnUnknownModeAndListsKnownOnes) {
  app::GraphSpec a("sd");
  a.task({.name = "t", .shell = "dct", .software = {}});
  app::ModeSet ms("fam");
  ms.mode(std::move(a));
  try {
    (void)ms.at("4k");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("sd"), std::string::npos) << e.what();
  }
}

// --------------------------------------------------- diffGraphs semantics

TEST(GraphDiff, ClassifiesTasksByNameAndScalarFields) {
  app::GraphSpec cur("cur");
  cur.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .budget_cycles = 1000, .software = {}})
      .task({.name = "gone", .shell = "rlsq", .software = {}});
  app::GraphSpec tgt("tgt");
  tgt.task({.name = "a", .shell = "dct", .software = {}})               // kept
      .task({.name = "b", .shell = "mc", .budget_cycles = 250, .software = {}})  // updated
      .task({.name = "fresh", .shell = "vld", .software = {}});         // added

  const app::GraphDiff d = app::diffGraphs(cur, tgt);
  ASSERT_EQ(d.tasks_kept.size(), 1u);
  EXPECT_EQ(d.tasks_kept[0], "a");
  ASSERT_EQ(d.tasks_updated.size(), 1u);
  EXPECT_EQ(d.tasks_updated[0], "b");
  ASSERT_EQ(d.tasks_added.size(), 1u);
  EXPECT_EQ(d.tasks_added[0].name, "fresh");
  ASSERT_EQ(d.tasks_removed.size(), 1u);
  EXPECT_EQ(d.tasks_removed[0], "gone");
}

TEST(GraphDiff, StreamKeptOnlyWhenEndpointsAndBufferMatch) {
  app::GraphSpec cur("cur");
  cur.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}});
  cur.stream("same", "a", 0, "b", 0, 256)
      .stream("grown", "a", 1, "b", 1, 256)
      .stream("orphan", "a", 2, "b", 2, 256);
  app::GraphSpec tgt("tgt");
  tgt.task({.name = "a", .shell = "dct", .software = {}})
      .task({.name = "b", .shell = "mc", .software = {}});
  // "grown" keeps its name and endpoints but doubles its buffer: that is a
  // re-bind, reported as a remove+add pair, never an in-place mutation.
  tgt.stream("same", "a", 0, "b", 0, 256).stream("grown", "a", 1, "b", 1, 512);

  const app::GraphDiff d = app::diffGraphs(cur, tgt);
  ASSERT_EQ(d.streams_kept.size(), 1u);
  EXPECT_EQ(d.streams_kept[0], "same");
  ASSERT_EQ(d.streams_added.size(), 1u);
  EXPECT_EQ(d.streams_added[0].name, "grown");
  EXPECT_EQ(d.streams_added[0].buffer_bytes, 512u);
  ASSERT_EQ(d.streams_removed.size(), 2u);  // grown (re-bind) + orphan
  EXPECT_TRUE(d.touchesStreams());
  EXPECT_FALSE(d.empty());

  // Identical graphs: an empty, stream-free diff.
  const app::GraphDiff none = app::diffGraphs(cur, cur);
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.touchesStreams());
}

// ------------------------------------------- live transitions (tentpole)

TEST(ModeSwitch, MultiModeConstructorKeepsDecodePinWhenNoSwitchOccurs) {
  // Carrying a whole validated mode family must be timing-free: a
  // multi-mode decode that never switches is cycle-identical to the pin.
  const Clip clip = makeClip(96, 80, 5);
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, clip.bitstream,
                     {{"sd", app::DecodeAppConfig{}}, {"hd", hdConfig()}, {"eco", ecoConfig()}});
  const sim::Cycle cycles = inst.run();
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(cycles, pin::kDecodePinCycles);
  EXPECT_EQ(inst.simulator().eventsDispatched(), pin::kDecodePinEvents);
  EXPECT_EQ(dec.macroblocksDecoded(), pin::kDecodePinMacroblocks);
}

TEST(ModeSwitch, FieldOnlyTransitionIsDrainFreeAndInstant) {
  const Clip clip = makeClip(96, 80, 3);
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, clip.bitstream, {{"sd", app::DecodeAppConfig{}}, {"eco", ecoConfig()}});
  inst.run(20'000);
  ASSERT_FALSE(dec.done());
  const sim::Cycle t0 = inst.simulator().now();

  const app::TransitionStats st = dec.switchMode("eco");
  EXPECT_EQ(st.from, "sd");
  EXPECT_EQ(st.to, "eco");
  EXPECT_EQ(st.cycles, 0u) << "field-only transitions must not advance the simulation";
  EXPECT_FALSE(st.drained);
  EXPECT_EQ(st.streams_kept, 5u);
  EXPECT_EQ(st.streams_removed, 0u);
  EXPECT_EQ(st.tasks_updated + st.tasks_kept, 5u);
  EXPECT_EQ(inst.simulator().now(), t0);
  EXPECT_EQ(dec.currentMode(), "eco");
  EXPECT_EQ(dec.handle().lastTransition().mmio_writes, st.mmio_writes);

  // The new budget is visible over the PI-bus, same path the CPU reads.
  EXPECT_EQ(inst.piBus().read(app::mmio::taskReg(inst.vldShell(), dec.vldTask(),
                                                 app::mmio::kTaskBudget)),
            500u);

  inst.run();
  ASSERT_TRUE(dec.done());
  expectFramesEqual(dec.frames(), clip.golden, "eco-mode tail");
  const sim::Cycle diff_to_done = inst.simulator().now() - t0;

  // The cold alternative at the same decision point: drain, tear down and
  // relaunch the clip in the eco configuration. The field-only switch must
  // be strictly cheaper both in PI-bus writes and in cycles to completion.
  app::EclipseInstance cold;
  app::DecodeApp first(cold, clip.bitstream);
  cold.run(20'000);
  ASSERT_FALSE(first.done());
  const sim::Cycle c0 = cold.simulator().now();
  const std::uint64_t w0 = cold.piBus().writeCount();
  ASSERT_TRUE(first.handle().drain());
  first.teardown();
  app::DecodeApp relaunch(cold, clip.bitstream, ecoConfig());
  const std::uint64_t cold_writes = cold.piBus().writeCount() - w0;
  cold.run();
  ASSERT_TRUE(relaunch.done());
  const sim::Cycle cold_to_done = cold.simulator().now() - c0;
  EXPECT_LT(st.mmio_writes, cold_writes);
  EXPECT_LT(diff_to_done, cold_to_done);
}

TEST(ModeSwitch, MidClipSegmentSwitchSdToHdIsSeamless) {
  const Clip sd = makeClip(96, 80, 2);
  const Clip hd = makeClip(128, 96, 2, /*seed=*/4);

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, sd.bitstream, {{"sd", app::DecodeAppConfig{}}, {"hd", hdConfig()}});
  inst.run();
  ASSERT_TRUE(dec.done());

  // The hdr stream is identical in both modes: its rows and SRAM buffer
  // must be reused in place across the transition.
  const app::AppStream hdr_before = dec.handle().stream("hdr");

  const app::TransitionStats st = dec.switchSegment("hd", hd.bitstream);
  EXPECT_EQ(st.tasks_kept, 5u);
  EXPECT_EQ(st.streams_kept, 1u);
  EXPECT_EQ(st.streams_removed, 4u);
  EXPECT_EQ(st.streams_added, 4u);
  EXPECT_GT(st.mmio_writes, 0u);
  EXPECT_EQ(dec.currentMode(), "hd");

  const app::AppStream hdr_after = dec.handle().stream("hdr");
  EXPECT_EQ(hdr_after.buffer_base, hdr_before.buffer_base);
  EXPECT_EQ(hdr_after.producer_row, hdr_before.producer_row);
  EXPECT_EQ(hdr_after.consumer_row, hdr_before.consumer_row);

  inst.run();
  ASSERT_TRUE(dec.done());

  // Seamless: bit-exact per segment, zero dropped frames, and the
  // macroblock count accumulates across both segments.
  ASSERT_EQ(dec.segmentsCompleted(), 1u);
  expectFramesEqual(dec.segmentFrames(0), sd.golden, "SD segment");
  expectFramesEqual(dec.frames(), hd.golden, "HD segment");
  EXPECT_EQ(dec.framesDropped(), 0u);
  EXPECT_EQ(dec.macroblocksDecoded(), 60u + 96u);

  // The cold alternative at the same boundary: tear the finished SD
  // application down and launch an HD one from scratch. The diff switch
  // must cost strictly fewer PI-bus writes.
  app::EclipseInstance cold;
  app::DecodeApp sd_only(cold, sd.bitstream, {{"sd", app::DecodeAppConfig{}}});
  cold.run();
  ASSERT_TRUE(sd_only.done());
  const std::uint64_t w0 = cold.piBus().writeCount();
  sd_only.teardown();
  app::DecodeApp hd_cold(cold, hd.bitstream, hdConfig());
  const std::uint64_t cold_writes = cold.piBus().writeCount() - w0;
  cold.run();
  ASSERT_TRUE(hd_cold.done());
  EXPECT_LT(st.mmio_writes, cold_writes);
}

TEST(ModeSwitch, EncodeEcoModeIsFieldOnly) {
  media::VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 5;
  vp.seed = 5;
  const auto video = media::generateVideo(vp);
  media::CodecParams cp;
  cp.width = 48;
  cp.height = 32;
  cp.gop = media::GopStructure{6, 3};

  app::EncodeAppConfig eco;
  eco.budget_cycles = 500;
  app::EclipseInstance inst;
  app::EncodeApp enc(inst, video, cp, {{"hq", app::EncodeAppConfig{}}, {"eco", eco}});
  inst.run(30'000);
  ASSERT_FALSE(enc.done());

  // The encode reconstruction loop never fully drains mid-clip, so only
  // field-only modes are reachable while it runs — and they must be.
  const app::TransitionStats st = enc.switchMode("eco");
  EXPECT_EQ(st.cycles, 0u);
  EXPECT_FALSE(st.drained);
  EXPECT_EQ(st.streams_removed, 0u);
  EXPECT_EQ(enc.currentMode(), "eco");

  inst.run();
  ASSERT_TRUE(enc.done());
  media::Decoder check;
  EXPECT_GT(media::averagePsnr(video, check.decode(enc.bitstream())), 28.0);
}

TEST(ModeSwitch, AudioDecoderDetachReattachRoundTrip) {
  const auto tone = media::audio::generateTone(16384, 11);
  app::AudioAppConfig bypass;
  bypass.bypass = true;

  app::EclipseInstance inst;
  app::AudioDecodeApp aud(inst, media::audio::encode(tone),
                          {{"play", app::AudioAppConfig{}}, {"bypass", bypass}});
  inst.run(30'000);
  ASSERT_FALSE(aud.done());

  // Detach: the decoder task and its two streams leave the graph; the
  // partial drain finishes the in-flight blocks first, so nothing is lost.
  const app::TransitionStats detach = aud.switchMode("bypass");
  EXPECT_EQ(detach.tasks_removed, 1u);
  EXPECT_EQ(detach.streams_removed, 2u);
  EXPECT_EQ(detach.streams_added, 1u);
  EXPECT_EQ(aud.currentMode(), "bypass");

  // Re-attach before running again: the decoder comes back live and the
  // clip completes losslessly through the reattached subgraph.
  const app::TransitionStats attach = aud.switchMode("play");
  EXPECT_EQ(attach.tasks_added, 1u);
  EXPECT_EQ(attach.streams_added, 2u);
  EXPECT_EQ(aud.currentMode(), "play");

  inst.run();
  ASSERT_TRUE(aud.done());
  EXPECT_GT(media::audio::snrDb(tone, aud.pcm()), 25.0);
}

// --------------------------------------------- teardown lifecycle (asserts)

TEST(AppLifecycle, TeardownThrowsOnUndrainedRunningApp) {
  const Clip clip = makeClip(96, 80, 3);
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, clip.bitstream);
  inst.run(20'000);
  ASSERT_FALSE(dec.done());
  ASSERT_FALSE(dec.handle().quiesced());

  // teardown() on a live, undrained graph is a programming error: stream
  // FIFOs still hold data and tasks are still scheduled against the rows.
  EXPECT_THROW(dec.teardown(), std::logic_error);
  EXPECT_TRUE(dec.handle().live()) << "a refused teardown must not half-destroy the app";

  // The documented sequence works: drain to quiescence, then tear down.
  EXPECT_TRUE(dec.handle().drain());
  dec.teardown();
  EXPECT_TRUE(dec.handle().tornDown());
}

TEST(AppLifecycle, ForcedTeardownDiscardsWedgedGraph) {
  const Clip clip = makeClip(96, 80, 3);
  app::EclipseInstance inst;
  const std::size_t sram0 = inst.sramBytesFree();
  app::DecodeApp dec(inst, clip.bitstream);
  inst.run(20'000);
  ASSERT_FALSE(dec.handle().quiesced());

  // The escape hatch for a graph that cannot drain (e.g. after a fault):
  // force-teardown discards in-flight data but still reclaims resources.
  dec.handle().teardown(/*force=*/true);
  EXPECT_TRUE(dec.handle().tornDown());
  EXPECT_EQ(inst.sramBytesFree(), sram0);
}

// ------------------------------------- fault injection across a transition

TEST(ModeFaults, InjectedHangIsContainedAcrossAFieldOnlySwitch) {
  const Clip clip = makeClip(96, 80, 3);
  const auto tone = media::audio::generateTone(2048, 7);

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, clip.bitstream, {{"sd", app::DecodeAppConfig{}}, {"eco", ecoConfig()}});
  app::AudioDecodeApp aud(inst, media::audio::encode(tone));

  // PR-4 injector: wedge the RLSQ task mid-clip for longer than the
  // watchdog timeout, so a Hang fault latches and disables it.
  sim::FaultPlan plan;
  sim::FaultSpec f;
  f.kind = sim::FaultKind::TaskHang;
  f.shell = inst.rlsqShell().id();
  f.task = dec.rlsqTask();
  f.at_cycle = 10'000;
  f.delay_cycles = 5'000'000;  // never resumes within the test
  plan.faults.push_back(f);
  inst.armFaults(plan);
  inst.armWatchdogs(/*timeout=*/20'000, /*period=*/256);

  inst.run(200'000);
  ASSERT_FALSE(dec.done());
  const app::AppHealth before = dec.handle().health();
  ASSERT_EQ(before.faults.size(), 1u) << "hang was not detected";
  EXPECT_EQ(before.faults[0].task, "rlsq");

  // A live mode transition while the fault is latched: the field-only
  // switch must succeed without touching the faulted subgraph.
  const app::TransitionStats st = dec.switchMode("eco");
  EXPECT_EQ(st.cycles, 0u);
  EXPECT_FALSE(st.drained);
  EXPECT_EQ(dec.currentMode(), "eco");

  // Containment: the fault stays on the one task — the switch neither
  // cleared nor spread it — and the concurrent audio app is unaffected.
  const app::AppHealth after = dec.handle().health();
  ASSERT_EQ(after.faults.size(), 1u);
  EXPECT_EQ(after.faults[0].task, "rlsq");
  inst.run(2'000'000);
  EXPECT_TRUE(aud.done()) << "fault on the video pipeline leaked into audio";
  EXPECT_GT(media::audio::snrDb(tone, aud.pcm()), 25.0);

  // Classification: the decode pipeline is starved behind the disabled
  // RLSQ task, not deadlocked and not done.
  EXPECT_FALSE(dec.done());
  EXPECT_EQ(inst.classifyQuiescence(), app::Quiescence::Starved);

  // The wedged graph refuses a polite teardown but yields to force.
  EXPECT_THROW(dec.teardown(), std::logic_error);
  dec.handle().teardown(/*force=*/true);
  EXPECT_TRUE(dec.handle().tornDown());
}

TEST(ModeFaults, DegradedFallbackRejectsUnknownModeUpFront) {
  const Clip clip = makeClip(96, 80, 2);
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, clip.bitstream, {{"sd", app::DecodeAppConfig{}}, {"eco", ecoConfig()}});
  EXPECT_THROW(dec.enableDegradedFallback("no-such-mode"), std::out_of_range);
  EXPECT_NO_THROW(dec.enableDegradedFallback("eco"));

  // Without a fault the fallback never fires: the clip decodes bit-exact
  // in the original mode.
  inst.run();
  ASSERT_TRUE(dec.done());
  EXPECT_FALSE(dec.degraded());
  EXPECT_EQ(dec.currentMode(), "sd");
  expectFramesEqual(dec.frames(), clip.golden, "fallback armed, no fault");
}

// ------------------------------------------------- farm mode schedules

farm::ModeSegment seg(const std::string& mode, int w, int h, int frames) {
  farm::ModeSegment s;
  s.mode = mode;
  s.workload.width = w;
  s.workload.height = h;
  s.workload.frames = frames;
  return s;
}

TEST(FarmModes, ScheduledJobSwitchesLiveAndStaysDeterministic) {
  farm::Job job;
  job.name = "abr";
  job.schedule = {seg("sd", 96, 80, 2), seg("hd", 128, 96, 2), seg("sd", 96, 80, 2)};

  auto runOn = [&](int workers) {
    farm::FarmOptions opts;
    opts.workers = workers;
    farm::Farm f(opts);
    return f.submit(job).result.get();
  };

  const farm::JobResult r1 = runOn(1);
  EXPECT_EQ(r1.status, farm::JobStatus::Completed) << r1.error;
  EXPECT_TRUE(r1.bit_exact);
  EXPECT_EQ(r1.mode_switches, 2u);
  EXPECT_GT(r1.switch_mmio_writes, 0u);
  EXPECT_EQ(r1.macroblocks, 60u + 96u + 60u);
  EXPECT_EQ(r1.frames_dropped, 0u);

  // Determinism contract: the simulated fields — including the transition
  // accounting — are a pure function of the Job, worker count aside.
  const farm::JobResult r4 = runOn(4);
  EXPECT_EQ(r4.sim_cycles, r1.sim_cycles);
  EXPECT_EQ(r4.sim_events, r1.sim_events);
  EXPECT_EQ(r4.macroblocks, r1.macroblocks);
  EXPECT_EQ(r4.mode_switches, r1.mode_switches);
  EXPECT_EQ(r4.switch_mmio_writes, r1.switch_mmio_writes);
  EXPECT_EQ(r4.bit_exact, r1.bit_exact);
}

TEST(FarmModes, ScheduledJobIsPinnedAtItsSimulatedValues) {
  // The sd/hd/sd job above, pinned at the values it had when scheduled
  // jobs still ran through a runner of their own, so the one runner that
  // now serves plain and scheduled jobs alike cannot move a cycle. The
  // supervised run takes the sliced path through the same runner.
  farm::Job job;
  job.name = "abr";
  job.schedule = {seg("sd", 96, 80, 2), seg("hd", 128, 96, 2), seg("sd", 96, 80, 2)};
  farm::Job supervised = job;
  supervised.supervise_ms = 60'000.0;

  farm::FarmOptions opts;
  opts.workers = 1;
  farm::Farm f(opts);
  for (const farm::Job& j : {job, supervised, job}) {
    const farm::JobResult r = f.submit(j).result.get();
    ASSERT_EQ(r.status, farm::JobStatus::Completed) << r.error;
    EXPECT_TRUE(r.bit_exact);
    EXPECT_EQ(r.sim_cycles, 218517u);
    EXPECT_EQ(r.sim_events, 69705u);
    EXPECT_EQ(r.macroblocks, 216u);
    EXPECT_EQ(r.mode_switches, 2u);
    EXPECT_EQ(r.switch_mmio_writes, 192u);
  }
}

TEST(FarmModes, UnknownModeInScheduleFailsTheJobCleanly) {
  farm::Job job;
  job.name = "bad-mode";
  job.schedule = {seg("sd", 96, 80, 2), seg("4k", 96, 80, 2)};

  farm::FarmOptions opts;
  opts.workers = 1;
  farm::Farm f(opts);
  const farm::JobResult r = f.submit(job).result.get();
  EXPECT_EQ(r.status, farm::JobStatus::Error);
  EXPECT_NE(r.error.find("unknown decode mode"), std::string::npos) << r.error;

  // The worker survives the bad job: the next one completes normally.
  farm::Job ok;
  ok.name = "after";
  ok.schedule = {seg("sd", 96, 80, 2)};
  const farm::JobResult r2 = f.submit(ok).result.get();
  EXPECT_EQ(r2.status, farm::JobStatus::Completed) << r2.error;
  EXPECT_EQ(r2.mode_switches, 0u);
}

}  // namespace
