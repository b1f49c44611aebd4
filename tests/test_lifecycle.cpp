// The application lifecycle (DESIGN §8): an application is pending only
// once its first transition succeeds, its off-chip memory is allocated
// inside that transition, and a refused configure or segment switch leaves
// the instance exactly as it found it. Construct, run and tear down returns
// every resource.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "eclipse/app/av_app.hpp"
#include "eclipse/eclipse.hpp"
#include "eclipse/media/audio.hpp"
#include "eclipse/media/mux.hpp"

#include "decode_pin.hpp"

namespace {

using namespace eclipse;

/// The pin recipe (decode_pin.hpp) at any size and length.
std::vector<media::Frame> video(int w, int h, int frames) {
  media::VideoGenParams vp;
  vp.width = w;
  vp.height = h;
  vp.frames = frames;
  vp.seed = 3;
  vp.detail = 8;
  vp.noise_level = 0.0;
  vp.motion_speed = 4;
  return media::generateVideo(vp);
}

media::CodecParams codec(int w, int h) {
  media::CodecParams cp;
  cp.width = w;
  cp.height = h;
  cp.qscale = 14;
  cp.gop = {9, 3};
  return cp;
}

std::vector<std::uint8_t> bitstream(int w, int h, int frames) {
  media::Encoder enc(codec(w, h));
  return enc.encode(video(w, h, frames));
}

std::vector<std::uint8_t> audioStream() {
  return media::audio::encode(media::audio::generateTone(4096, 7));
}

/// What an application holds on an instance while it lives.
struct Footprint {
  std::size_t dram = 0;
  std::size_t sram = 0;
  std::uint32_t used_task_slots = 0;  ///< over every shell
  int pending = 0;
};

Footprint footprint(app::EclipseInstance& inst) {
  Footprint f{inst.dramBytesFree(), inst.sramBytesFree(), 0, inst.pendingApps()};
  for (const auto& sh : inst.shells()) {
    f.used_task_slots += sh->params().max_tasks - inst.freeTaskSlots(*sh);
  }
  return f;
}

void expectFootprint(app::EclipseInstance& inst, const Footprint& want, const char* what) {
  const Footprint got = footprint(inst);
  EXPECT_EQ(got.dram, want.dram) << what;
  EXPECT_EQ(got.sram, want.sram) << what;
  EXPECT_EQ(got.used_task_slots, want.used_task_slots) << what;
  EXPECT_EQ(got.pending, want.pending) << what;
}

app::DecodeAppConfig oversizedDecode() {
  app::DecodeAppConfig cfg;
  cfg.pix_buffer = 32768;  // the whole default SRAM for one FIFO
  return cfg;
}

app::EncodeAppConfig oversizedEncode() {
  app::EncodeAppConfig cfg;
  cfg.cur_buffer = 32768;
  return cfg;
}

app::AudioAppConfig oversizedAudio() {
  app::AudioAppConfig cfg;
  cfg.pcm_buffer = 32768;
  return cfg;
}

TEST(AppLifecycle, RefusedConstructionsLeaveNoTraceAndThePinHolds) {
  const auto bits = bitstream(96, 80, 5);
  const auto small = video(48, 32, 2);
  app::EclipseInstance inst;
  const Footprint fresh = footprint(inst);
  const std::size_t shells = inst.shells().size();
  const std::uint64_t writes = inst.piBus().writeCount();

  EXPECT_THROW(app::DecodeApp(inst, bits, oversizedDecode()), app::GraphSpecError);
  EXPECT_THROW(app::EncodeApp(inst, small, codec(48, 32), oversizedEncode()),
               app::GraphSpecError);
  EXPECT_THROW(app::AudioDecodeApp(inst, audioStream(), oversizedAudio()), app::GraphSpecError);

  expectFootprint(inst, fresh, "after three refused constructions");
  EXPECT_EQ(inst.shells().size(), shells) << "a refused application keeps no sink shell";
  EXPECT_EQ(inst.piBus().writeCount(), writes) << "refused before the first PI-bus write";

  // run() stops in the event that finishes the one live application, as
  // on an instance that never saw the refused ones.
  app::DecodeApp dec(inst, bits);
  EXPECT_EQ(inst.run(5'000'000), pin::kDecodePinCycles);
  ASSERT_TRUE(dec.done());
  EXPECT_EQ(inst.simulator().eventsDispatched(), pin::kDecodePinEvents);
  EXPECT_EQ(dec.macroblocksDecoded(), pin::kDecodePinMacroblocks);
  EXPECT_EQ(inst.pendingApps(), 0);
}

TEST(AppLifecycle, RefusedSegmentSwitchLeavesTheFinishedAppAsItWas) {
  // A's "big" mode needs a 12288-byte pix FIFO; next to B the free SRAM is
  // split into holes too small for it, so the switch is refused.
  const auto bits = bitstream(48, 32, 3);
  app::DecodeAppConfig big;
  big.pix_buffer = 12288;
  app::EclipseInstance inst;
  app::DecodeApp a(inst, bits, {{"sd", app::DecodeAppConfig{}}, {"big", big}});
  app::DecodeApp b(inst, bits);
  inst.run();
  ASSERT_TRUE(a.done());
  ASSERT_TRUE(b.done());
  ASSERT_EQ(inst.pendingApps(), 0);

  const std::size_t dram = inst.dramBytesFree();
  EXPECT_THROW((void)a.switchSegment("big", bits), app::GraphSpecError);
  EXPECT_EQ(inst.pendingApps(), 0);
  EXPECT_TRUE(a.done());
  EXPECT_EQ(a.currentMode(), "sd");
  EXPECT_EQ(inst.dramBytesFree(), dram) << "the next segment's off-chip memory stays free";
  EXPECT_EQ(a.segmentsCompleted(), 0u);
}

TEST(AppLifecycle, DecodeAppReturnsEveryResource) {
  const auto bits = bitstream(48, 32, 3);
  app::EclipseInstance inst;
  const Footprint fresh = footprint(inst);
  EXPECT_THROW(app::DecodeApp(inst, bits, oversizedDecode()), app::GraphSpecError);
  expectFootprint(inst, fresh, "refused");

  app::DecodeApp dec(inst, bits);
  EXPECT_EQ(inst.pendingApps(), 1);
  inst.run();
  ASSERT_TRUE(dec.done());
  dec.teardown();
  expectFootprint(inst, fresh, "run and torn down");

  // On a running instance too: the refused app's sink never started, so
  // its shell goes again.
  const std::size_t shells = inst.shells().size();
  EXPECT_THROW(app::DecodeApp(inst, bits, oversizedDecode()), app::GraphSpecError);
  expectFootprint(inst, fresh, "refused on a running instance");
  EXPECT_EQ(inst.shells().size(), shells);
  app::DecodeApp again(inst, bits);
  inst.run();
  EXPECT_TRUE(again.done());
}

TEST(AppLifecycle, EncodeAppReturnsEveryResource) {
  const auto frames = video(48, 32, 3);
  app::EclipseInstance inst;
  const Footprint fresh = footprint(inst);
  EXPECT_THROW(app::EncodeApp(inst, frames, codec(48, 32), oversizedEncode()),
               app::GraphSpecError);
  expectFootprint(inst, fresh, "refused");

  app::EncodeApp enc(inst, frames, codec(48, 32));
  EXPECT_EQ(inst.pendingApps(), 1);
  inst.run();
  ASSERT_TRUE(enc.done());
  // The sink has the whole bitstream, but the reconstruction loop still
  // holds the last frames' work: drain() lets it finish. Its result is not
  // checked: the source never reads the token edge's trailing packets, so
  // that edge does not settle, and teardown accepts the graph once every
  // task is parked.
  (void)enc.handle().drain();
  enc.teardown();
  expectFootprint(inst, fresh, "run and torn down");
}

TEST(AppLifecycle, AudioDecodeAppReturnsEveryResource) {
  app::EclipseInstance inst;
  const Footprint fresh = footprint(inst);
  EXPECT_THROW(app::AudioDecodeApp(inst, audioStream(), oversizedAudio()), app::GraphSpecError);
  expectFootprint(inst, fresh, "refused");

  app::AudioDecodeApp aud(inst, audioStream());
  EXPECT_EQ(inst.pendingApps(), 1);
  inst.run();
  ASSERT_TRUE(aud.done());
  aud.teardown();
  expectFootprint(inst, fresh, "run and torn down");
}

TEST(AppLifecycle, AvPlaybackAppReturnsEveryResource) {
  const auto ts = media::mux::interleave({bitstream(48, 32, 3), audioStream()});

  // 12288 bytes of SRAM hold the video graph (11264) but not the audio
  // one next to it: the video part is undone again.
  app::InstanceParams tight;
  tight.sram.size_bytes = 12288;
  app::EclipseInstance refusing(tight);
  const Footprint before = footprint(refusing);
  EXPECT_THROW(app::AvPlaybackApp(refusing, ts), app::GraphSpecError);
  expectFootprint(refusing, before, "refused");

  app::InstanceParams ip;
  ip.sram.size_bytes = 64 * 1024;
  app::EclipseInstance inst(ip);
  const Footprint fresh = footprint(inst);
  app::AvPlaybackApp av(inst, ts);
  EXPECT_EQ(inst.pendingApps(), 2);
  inst.run();
  ASSERT_TRUE(av.done());
  av.teardown();
  expectFootprint(inst, fresh, "run and torn down");
}

}  // namespace
