// Tests for the Eclipse encoding application: determinism, quality
// ordering, transcode chains and coprocessor sharing.

#include <gtest/gtest.h>

#include "eclipse/app/kpn_media.hpp"
#include "eclipse/eclipse.hpp"

namespace {

using namespace eclipse;

media::VideoGenParams vid() {
  media::VideoGenParams vp;
  vp.width = 64;
  vp.height = 48;
  vp.frames = 7;
  vp.seed = 23;
  return vp;
}

media::CodecParams codec(int qscale = 8) {
  media::CodecParams cp;
  cp.width = 64;
  cp.height = 48;
  cp.qscale = qscale;
  cp.gop = media::GopStructure{6, 3};
  return cp;
}

std::vector<std::uint8_t> encodeOnEclipse(const std::vector<media::Frame>& frames,
                                          const media::CodecParams& cp, sim::Cycle* cycles = nullptr) {
  app::InstanceParams ip;
  ip.sram.size_bytes = 64 * 1024;
  app::EclipseInstance inst(ip);
  app::EncodeApp enc(inst, frames, cp);
  const auto end = inst.run(4'000'000'000ULL);
  if (cycles != nullptr) *cycles = end;
  EXPECT_TRUE(enc.done());
  return enc.bitstream();
}

TEST(EncodeApp, BitIdenticalToFunctionalEncoder) {
  // The strongest refinement-correctness statement for the encode side:
  // with matching motion-search parameters, the distributed 9-task Eclipse
  // encoding application (source, ME, FDCT, QRLE, VLE, DEQ, IDCT, RECON,
  // sink — including the feedback reconstruction loop and frame-done
  // token gating) produces the *bit-identical* elementary stream of the
  // sequential functional encoder. Kahn determinism, end to end.
  const auto frames = media::generateVideo(vid());
  auto cp = codec();
  cp.search.range = 4;  // the MC/ME coprocessor's window search parameters
  cp.search.half_pel = true;
  media::Encoder golden(cp);
  const auto golden_bits = golden.encode(frames);
  const auto eclipse_bits = encodeOnEclipse(frames, cp);
  EXPECT_EQ(golden_bits, eclipse_bits);
}

TEST(EncodeApp, AllThreeRefinementLevelsAreBitIdentical) {
  // golden functional encoder == KPN encoder == cycle-level Eclipse
  // encoder: the complete refinement trajectory of Section 4 for the
  // encoding application.
  const auto frames = media::generateVideo(vid());
  auto cp = codec();
  cp.search.range = 4;
  cp.search.half_pel = true;
  media::Encoder golden(cp);
  const auto golden_bits = golden.encode(frames);

  app::KpnEncoder kpn(frames, cp);
  const auto kpn_bits = kpn.run();
  EXPECT_EQ(golden_bits, kpn_bits);

  const auto eclipse_bits = encodeOnEclipse(frames, cp);
  EXPECT_EQ(kpn_bits, eclipse_bits);
}

TEST(EncodeApp, DeterministicAcrossRuns) {
  const auto frames = media::generateVideo(vid());
  sim::Cycle c1 = 0, c2 = 0;
  const auto a = encodeOnEclipse(frames, codec(), &c1);
  const auto b = encodeOnEclipse(frames, codec(), &c2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(c1, c2);
}

TEST(EncodeApp, QscaleOrderingHoldsOnHardwarePath) {
  const auto frames = media::generateVideo(vid());
  auto measure = [&](int q) {
    const auto bits = encodeOnEclipse(frames, codec(q));
    media::Decoder dec;
    const auto out = dec.decode(bits);
    return std::pair{bits.size(), media::averagePsnr(frames, out)};
  };
  const auto [size_fine, psnr_fine] = measure(3);
  const auto [size_coarse, psnr_coarse] = measure(20);
  EXPECT_GT(size_fine, size_coarse);
  EXPECT_GT(psnr_fine, psnr_coarse + 2.0);
}

TEST(EncodeApp, TranscodeChainEclipseToEclipse) {
  // Encode on Eclipse, then decode the result on Eclipse, and check
  // against the golden decoder of the same stream — the full time-shift
  // transcoding path with no functional components in the loop.
  const auto frames = media::generateVideo(vid());
  const auto bits = encodeOnEclipse(frames, codec());

  media::Decoder golden;
  const auto golden_frames = golden.decode(bits);

  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bits);
  inst.run(4'000'000'000ULL);
  ASSERT_TRUE(dec.done());
  const auto eclipse_frames = dec.frames();
  ASSERT_EQ(eclipse_frames.size(), golden_frames.size());
  for (std::size_t i = 0; i < eclipse_frames.size(); ++i) {
    EXPECT_EQ(eclipse_frames[i], golden_frames[i]) << "frame " << i;
  }
}

TEST(EncodeApp, IntraOnlyGopWorks) {
  auto cp = codec();
  cp.gop = media::GopStructure{1, 1};  // III...
  const auto frames = media::generateVideo(vid());
  const auto bits = encodeOnEclipse(frames, cp);
  media::Decoder dec;
  const auto out = dec.decode(bits);
  EXPECT_GT(media::averagePsnr(frames, out), 30.0);
}

TEST(EncodeApp, NoBFramesGopWorks) {
  auto cp = codec();
  cp.gop = media::GopStructure{4, 1};  // IPPP
  const auto frames = media::generateVideo(vid());
  const auto bits = encodeOnEclipse(frames, cp);
  media::Decoder dec;
  const auto out = dec.decode(bits);
  EXPECT_GT(media::averagePsnr(frames, out), 28.0);
}

TEST(EncodeApp, SingleFrameSequence) {
  auto v = vid();
  v.frames = 1;
  const auto frames = media::generateVideo(v);
  const auto bits = encodeOnEclipse(frames, codec());
  media::Decoder dec;
  const auto out = dec.decode(bits);
  ASSERT_EQ(out.size(), 1u);
}

TEST(EncodeApp, SharedCoprocessorsCarryEncodeAndDecodeDirections) {
  const auto frames = media::generateVideo(vid());
  media::Encoder golden_enc(codec());
  const auto dec_bits = golden_enc.encode(frames);

  app::InstanceParams ip;
  ip.sram.size_bytes = 96 * 1024;
  app::EclipseInstance inst(ip);
  app::EncodeApp enc(inst, frames, codec());
  app::DecodeApp dec(inst, dec_bits);
  inst.run(4'000'000'000ULL);
  ASSERT_TRUE(enc.done());
  ASSERT_TRUE(dec.done());

  // The DCT coprocessor must have run forward, inverse (encode loop) and
  // inverse (decode) tasks: three valid task slots.
  int dct_tasks = 0;
  for (std::uint32_t t = 0; t < inst.dctShell().tasks().capacity(); ++t) {
    if (inst.dctShell().tasks().row(static_cast<sim::TaskId>(t)).valid) ++dct_tasks;
  }
  EXPECT_EQ(dct_tasks, 3);
  EXPECT_GT(inst.dctShell().taskSwitches(), 10u);

  const auto out = dec.frames();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], golden_enc.reconstructed()[i]);
  }
}

}  // namespace

namespace {

TEST(KpnEncoder, SmallFifosStillCompleteTheFeedbackLoop) {
  // The encoder graph contains a cycle (recon -> src tokens); bounded
  // FIFOs must not deadlock it as long as one worst-case packet fits.
  const auto frames = media::generateVideo(vid());
  auto cp = codec();
  cp.search.range = 4;
  media::Encoder golden(cp);
  const auto golden_bits = golden.encode(frames);
  app::KpnEncoder small(frames, cp, 4096);
  EXPECT_EQ(small.run(), golden_bits);
}

TEST(KpnEncoder, EveryEdgeEndsDrained) {
  // recon joins the reconstruction residuals with me's headers and reads
  // both Eos packets, so each byte written on an edge is also read.
  const auto frames = media::generateVideo(vid());
  auto cp = codec();
  cp.search.range = 4;
  app::KpnEncoder enc(frames, cp);
  media::Encoder golden(cp);
  EXPECT_EQ(enc.run(), golden.encode(frames));
  for (std::size_t e = 0; e < enc.graph().edgeCount(); ++e) {
    const kpn::ByteFifo& f = enc.graph().edge(static_cast<int>(e));
    EXPECT_EQ(f.totalProduced(), f.totalConsumed()) << f.name();
  }
}

TEST(KpnEncoder, GraphHasTheNineTaskShape) {
  const auto frames = media::generateVideo(vid());
  app::KpnEncoder enc(frames, codec());
  const auto d = enc.graph().describe();
  for (const char* task : {"src", "me", "fdct", "qrle", "vle", "deq", "idct", "recon"}) {
    EXPECT_NE(d.find(task), std::string::npos) << task;
  }
  EXPECT_EQ(enc.graph().edgeCount(), 10u);
}

}  // namespace
