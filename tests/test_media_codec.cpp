// Unit + property tests for the codec layer: syntax round trips, coded
// order, packets, encoder/decoder consistency, video generator and metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "eclipse/media/codec.hpp"
#include "eclipse/media/metrics.hpp"
#include "eclipse/media/video_gen.hpp"
#include "eclipse/sim/prng.hpp"

namespace {

using namespace eclipse::media;
using eclipse::sim::Prng;

// ---------------------------------------------------------------- syntax

TEST(Syntax, SeqHeaderRoundTrip) {
  SeqHeader sh;
  sh.width = 320;
  sh.height = 240;
  sh.gop_n = 12;
  sh.gop_m = 3;
  sh.qscale = 13;
  sh.frame_count = 77;
  sh.scan_order = 1;
  sh.use_intra_matrix = 0;
  BitWriter bw;
  stages::writeSeqHeader(bw, sh);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(stages::parseSeqHeader(br), sh);
}

TEST(Syntax, BadMagicRejected) {
  std::vector<std::uint8_t> junk{0x00, 0x01, 0x02, 0x03};
  BitReader br(junk);
  EXPECT_THROW((void)stages::parseSeqHeader(br), BitstreamError);
}

TEST(Syntax, PicHeaderRoundTrip) {
  for (const auto t : {FrameType::I, FrameType::P, FrameType::B}) {
    PicHeader ph;
    ph.type = t;
    ph.temporal_ref = 5;
    ph.qscale = 9;
    BitWriter bw;
    stages::writePicHeader(bw, ph);
    const auto bytes = bw.finish();
    BitReader br(bytes);
    EXPECT_EQ(stages::parsePicHeader(br), ph);
  }
}

/// Property sweep: random macroblocks survive write/parse for every mode.
class MbSyntaxRoundTrip : public ::testing::TestWithParam<MbMode> {};

TEST_P(MbSyntaxRoundTrip, Survives) {
  const MbMode mode = GetParam();
  Prng rng(static_cast<std::uint64_t>(mode) + 100);
  for (int trial = 0; trial < 30; ++trial) {
    MbHeader h;
    h.mb_x = 3;
    h.mb_y = 4;
    h.mode = mode;
    h.qscale = 8;
    if (mode == MbMode::Forward || mode == MbMode::Bidirectional) {
      h.mv_fwd = {static_cast<std::int16_t>(rng.range(-32, 32)),
                  static_cast<std::int16_t>(rng.range(-32, 32))};
    }
    if (mode == MbMode::Backward || mode == MbMode::Bidirectional) {
      h.mv_bwd = {static_cast<std::int16_t>(rng.range(-32, 32)),
                  static_cast<std::int16_t>(rng.range(-32, 32))};
    }
    MbCoefs coefs;
    coefs.cbp = 0;
    for (int b = 0; b < kBlocksPerMacroblock; ++b) {
      if (!rng.chance(0.6)) continue;
      coefs.cbp |= static_cast<std::uint8_t>(1u << b);
      const int n = static_cast<int>(rng.below(10)) + 1;
      int run_total = 0;
      for (int k = 0; k < n && run_total < 60; ++k) {
        rle::RunLevel p;
        p.run = static_cast<std::uint8_t>(rng.below(3));
        p.level = static_cast<std::int16_t>(rng.range(1, 100) * (rng.chance(0.5) ? 1 : -1));
        run_total += p.run + 1;
        coefs.blocks[static_cast<std::size_t>(b)].push_back(p);
      }
    }
    h.cbp = coefs.cbp;

    BitWriter bw;
    stages::writeMb(bw, h, coefs);
    const auto bytes = bw.finish();
    BitReader br(bytes);
    const FrameType pic_type = mode == MbMode::Intra ? FrameType::I : FrameType::B;
    const auto parsed = stages::parseMb(br, pic_type, 3, 4, 8);
    EXPECT_EQ(parsed.header.mode, h.mode);
    EXPECT_EQ(parsed.header.mv_fwd, h.mv_fwd);
    EXPECT_EQ(parsed.header.mv_bwd, h.mv_bwd);
    EXPECT_EQ(parsed.header.cbp, h.cbp);
    for (int b = 0; b < kBlocksPerMacroblock; ++b) {
      EXPECT_EQ(parsed.coefs.blocks[static_cast<std::size_t>(b)],
                coefs.blocks[static_cast<std::size_t>(b)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MbSyntaxRoundTrip,
                         ::testing::Values(MbMode::Intra, MbMode::Forward, MbMode::Backward,
                                           MbMode::Bidirectional));

TEST(Syntax, IFrameRejectsInterMb) {
  MbHeader h;
  h.mode = MbMode::Forward;
  MbCoefs coefs;
  BitWriter bw;
  stages::writeMb(bw, h, coefs);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_THROW((void)stages::parseMb(br, FrameType::I, 0, 0, 8), BitstreamError);
}

TEST(Syntax, PFrameRejectsBackwardMb) {
  MbHeader h;
  h.mode = MbMode::Backward;
  MbCoefs coefs;
  BitWriter bw;
  stages::writeMb(bw, h, coefs);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_THROW((void)stages::parseMb(br, FrameType::P, 0, 0, 8), BitstreamError);
}

// ----------------------------------------------------------------- GOP

TEST(Gop, PatternMatchesTypeAt) {
  const GopStructure g{9, 3};
  EXPECT_EQ(g.pattern(), "IBBPBBPBB");
  EXPECT_EQ(g.typeAt(0), FrameType::I);
  EXPECT_EQ(g.typeAt(3), FrameType::P);
  EXPECT_EQ(g.typeAt(9), FrameType::I);
  EXPECT_EQ(g.typeAt(10), FrameType::B);
}

TEST(Gop, NoBFramesWhenMIs1) {
  const GopStructure g{4, 1};
  EXPECT_EQ(g.pattern(), "IPPP");
}

class CodedOrderProperty : public ::testing::TestWithParam<std::pair<int, GopStructure>> {};

TEST_P(CodedOrderProperty, CoversAllFramesWithValidReferences) {
  const auto [count, gop] = GetParam();
  const auto order = codedOrder(count, gop);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(count));

  std::set<int> seen;
  std::set<int> decoded;
  for (const auto& cp : order) {
    EXPECT_TRUE(seen.insert(cp.display_idx).second) << "duplicate frame";
    // References must already be coded.
    if (cp.fwd_ref_display >= 0) EXPECT_TRUE(decoded.count(cp.fwd_ref_display)) << cp.display_idx;
    if (cp.bwd_ref_display >= 0) EXPECT_TRUE(decoded.count(cp.bwd_ref_display)) << cp.display_idx;
    // B pictures reference both temporal sides.
    if (cp.type == FrameType::B) {
      EXPECT_LT(cp.fwd_ref_display, cp.display_idx);
      EXPECT_GT(cp.bwd_ref_display, cp.display_idx);
    }
    if (cp.type == FrameType::P) EXPECT_GE(cp.fwd_ref_display, -1);
    decoded.insert(cp.display_idx);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(count));
  // The first coded picture is always an I frame.
  EXPECT_EQ(order.front().type, FrameType::I);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodedOrderProperty,
    ::testing::Values(std::pair{1, GopStructure{9, 3}}, std::pair{2, GopStructure{9, 3}},
                      std::pair{7, GopStructure{6, 3}}, std::pair{9, GopStructure{9, 3}},
                      std::pair{20, GopStructure{9, 3}}, std::pair{10, GopStructure{4, 1}},
                      std::pair{13, GopStructure{12, 4}}, std::pair{8, GopStructure{6, 2}}));

// ----------------------------------------------------------- packets

TEST(Packets, MbCoefsRoundTrip) {
  MbCoefs in;
  in.cbp = 0b101001;
  in.intra = 1;
  in.blocks[0] = {rle::RunLevel{0, 5}, rle::RunLevel{2, -7}};
  in.blocks[3] = {rle::RunLevel{63, 1}};
  in.blocks[5] = {};
  ByteWriter w;
  put(w, in);
  auto bytes = w.take();
  ByteReader r(bytes);
  MbCoefs out;
  get(r, out);
  EXPECT_EQ(out.cbp, in.cbp);
  EXPECT_EQ(out.intra, in.intra);
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    EXPECT_EQ(out.blocks[static_cast<std::size_t>(b)], in.blocks[static_cast<std::size_t>(b)]);
  }
  EXPECT_TRUE(r.atEnd());
}

TEST(Packets, MbBlocksAndPixelsRoundTrip) {
  Prng rng(3);
  MbBlocks blocks;
  blocks.cbp = 0x3F;
  blocks.intra = 1;
  for (auto& b : blocks.blocks) {
    for (auto& v : b) v = static_cast<std::int16_t>(rng.range(-1000, 1000));
  }
  ByteWriter w;
  put(w, blocks);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), kMbBlocksBytes);
  ByteReader r(bytes);
  MbBlocks back;
  get(r, back);
  EXPECT_EQ(back.cbp, blocks.cbp);
  EXPECT_EQ(back.intra, blocks.intra);
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    EXPECT_EQ(back.blocks[static_cast<std::size_t>(b)], blocks.blocks[static_cast<std::size_t>(b)]);
  }
  // Byte layout: cbp, intra, then the 6x64 coefficients block by block,
  // each exactly as ByteWriter::i16 writes it.
  ASSERT_EQ(bytes.size(), kMbBlocksBytes);
  EXPECT_EQ(bytes[0], 0x3F);
  EXPECT_EQ(bytes[1], 1);
  ByteWriter ref;
  ref.u8(blocks.cbp);
  ref.u8(blocks.intra);
  for (const auto& b : blocks.blocks) {
    for (const auto c : b) ref.i16(c);
  }
  EXPECT_EQ(bytes, ref.data());
  blocks.intra = 0;  // a distinct intra value must survive the trip too
  ByteWriter w_inter;
  put(w_inter, blocks);
  ByteReader r_inter(w_inter.data());
  get(r_inter, back);
  EXPECT_EQ(back.intra, 0);
  EXPECT_TRUE(r_inter.atEnd());

  MbPixels px;
  for (auto& v : px.y) v = static_cast<std::uint8_t>(rng.below(256));
  ByteWriter w2;
  put(w2, px);
  auto bytes2 = w2.take();
  EXPECT_EQ(bytes2.size(), kMbPixelsBytes);
  ByteReader r2(bytes2);
  MbPixels back_px;
  get(r2, back_px);
  EXPECT_EQ(back_px, px);
}

TEST(Packets, UnderrunThrows) {
  std::vector<std::uint8_t> tiny{1, 2};
  ByteReader r(tiny);
  MbHeader h;
  EXPECT_THROW(get(r, h), std::runtime_error);
}

// ---------------------------------------------------- pixel plumbing

TEST(Stages, ExtractPlaceRoundTrip) {
  const auto frames = generateVideo(VideoGenParams{});
  const Frame& src = frames[0];
  Frame dst(src.width(), src.height());
  for (int mb_y = 0; mb_y < src.mbHeight(); ++mb_y) {
    for (int mb_x = 0; mb_x < src.mbWidth(); ++mb_x) {
      MbPixels px;
      stages::extractMb(src, mb_x, mb_y, px);
      stages::placeMb(dst, mb_x, mb_y, px);
    }
  }
  EXPECT_EQ(src, dst);
}

TEST(Stages, ResidualAddInverts) {
  Prng rng(7);
  MbPixels cur, pred;
  for (std::size_t i = 0; i < cur.y.size(); ++i) {
    cur.y[i] = static_cast<std::uint8_t>(rng.below(256));
    pred.y[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  for (std::size_t i = 0; i < cur.cb.size(); ++i) {
    cur.cb[i] = static_cast<std::uint8_t>(rng.below(256));
    pred.cb[i] = static_cast<std::uint8_t>(rng.below(256));
    cur.cr[i] = static_cast<std::uint8_t>(rng.below(256));
    pred.cr[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  MbBlocks res;
  stages::residualMb(cur, pred, res);
  MbPixels back;
  stages::addResidualMb(pred, res, back);
  EXPECT_EQ(back, cur);
}

// ------------------------------------------------- encoder / decoder

struct CodecCase {
  int qscale;
  GopStructure gop;
  int frames;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, DecoderMatchesEncoderReconstruction) {
  const auto c = GetParam();
  VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = c.frames;
  vp.seed = static_cast<std::uint64_t>(c.qscale) * 31 + static_cast<std::uint64_t>(c.frames);
  const auto frames = generateVideo(vp);

  CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  cp.qscale = c.qscale;
  cp.gop = c.gop;
  Encoder enc(cp);
  const auto bits = enc.encode(frames);
  Decoder dec;
  const auto out = dec.decode(bits);
  ASSERT_EQ(out.size(), frames.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], enc.reconstructed()[i]) << "frame " << i;
  }
  EXPECT_EQ(dec.seqHeader(), cp.toSeqHeader(c.frames));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTrip,
    ::testing::Values(CodecCase{2, {9, 3}, 9}, CodecCase{8, {9, 3}, 10}, CodecCase{16, {9, 3}, 5},
                      CodecCase{31, {9, 3}, 9}, CodecCase{8, {4, 1}, 8}, CodecCase{8, {6, 2}, 7},
                      CodecCase{8, {12, 4}, 13}, CodecCase{8, {9, 3}, 1},
                      CodecCase{8, {9, 3}, 2}));

TEST(Codec, LowerQscaleGivesHigherPsnr) {
  VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 5;
  const auto frames = generateVideo(vp);
  auto psnrAt = [&](int q) {
    CodecParams cp;
    cp.width = vp.width;
    cp.height = vp.height;
    cp.qscale = q;
    Encoder enc(cp);
    (void)enc.encode(frames);
    return averagePsnr(frames, enc.reconstructed());
  };
  const double fine = psnrAt(2);
  const double coarse = psnrAt(24);
  EXPECT_GT(fine, coarse + 3.0);
}

TEST(Codec, CoarserQscaleGivesSmallerStream) {
  VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 5;
  const auto frames = generateVideo(vp);
  auto sizeAt = [&](int q) {
    CodecParams cp;
    cp.width = vp.width;
    cp.height = vp.height;
    cp.qscale = q;
    Encoder enc(cp);
    return enc.encode(frames).size();
  };
  EXPECT_GT(sizeAt(2), sizeAt(24));
}

TEST(Codec, StatsAreConsistentBetweenEncoderAndDecoder) {
  VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 7;
  const auto frames = generateVideo(vp);
  CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  Encoder enc(cp);
  const auto bits = enc.encode(frames);
  Decoder dec;
  (void)dec.decode(bits);
  ASSERT_EQ(enc.pictureStats().size(), dec.pictureStats().size());
  for (std::size_t i = 0; i < enc.pictureStats().size(); ++i) {
    EXPECT_EQ(enc.pictureStats()[i].type, dec.pictureStats()[i].type);
    EXPECT_EQ(enc.pictureStats()[i].temporal_ref, dec.pictureStats()[i].temporal_ref);
    EXPECT_EQ(enc.pictureStats()[i].coded_blocks, dec.pictureStats()[i].coded_blocks);
    const auto mbs = [&](const PictureStats& s) {
      return s.intra_mbs + s.fwd_mbs + s.bwd_mbs + s.bidi_mbs;
    };
    EXPECT_EQ(mbs(enc.pictureStats()[i]), mbs(dec.pictureStats()[i]));
    EXPECT_EQ(mbs(dec.pictureStats()[i]), 6u);  // 48x32 = 3x2 MBs
  }
}

TEST(Codec, TruncatedStreamThrows) {
  VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 3;
  const auto frames = generateVideo(vp);
  CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  Encoder enc(cp);
  auto bits = enc.encode(frames);
  bits.resize(bits.size() / 3);
  Decoder dec;
  EXPECT_THROW((void)dec.decode(bits), BitstreamError);
}

TEST(Codec, RejectsMismatchedFrameSize) {
  CodecParams cp;
  cp.width = 48;
  cp.height = 32;
  Encoder enc(cp);
  std::vector<Frame> wrong{Frame(64, 64)};
  EXPECT_THROW((void)enc.encode(wrong), std::invalid_argument);
  EXPECT_THROW((void)enc.encode({}), std::invalid_argument);
}

TEST(Codec, AlternateScanAndFlatMatrixWork) {
  VideoGenParams vp;
  vp.width = 48;
  vp.height = 32;
  vp.frames = 4;
  const auto frames = generateVideo(vp);
  CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  cp.scan_order = eclipse::media::scan::Order::Alternate;
  cp.use_intra_matrix = false;
  Encoder enc(cp);
  const auto bits = enc.encode(frames);
  Decoder dec;
  const auto out = dec.decode(bits);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], enc.reconstructed()[i]);
}

// --------------------------------------------------- video generator

TEST(VideoGen, DeterministicPerSeed) {
  VideoGenParams vp;
  vp.frames = 3;
  const auto a = generateVideo(vp);
  const auto b = generateVideo(vp);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(VideoGen, FramesActuallyChangeOverTime) {
  VideoGenParams vp;
  vp.frames = 2;
  const auto v = generateVideo(vp);
  EXPECT_FALSE(v[0] == v[1]);
}

TEST(VideoGen, RandomAccessMatchesSequential) {
  VideoGenParams vp;
  vp.frames = 5;
  const auto seq = generateVideo(vp);
  EXPECT_EQ(generateFrame(vp, 3), seq[3]);
}

TEST(VideoGen, SceneCutCreatesDiscontinuity) {
  VideoGenParams vp;
  vp.frames = 6;
  vp.scene_cut_period = 3;
  vp.noise_level = 0;
  const auto v = generateVideo(vp);
  const double within = psnrLuma(v[1], v[2]);   // same scene
  const double across = psnrLuma(v[2], v[3]);   // scene cut
  EXPECT_GT(within, across);
}

// ----------------------------------------------------------- metrics

TEST(Metrics, IdenticalFramesHaveInfinitePsnr) {
  const auto v = generateVideo(VideoGenParams{});
  EXPECT_TRUE(std::isinf(psnrLuma(v[0], v[0])));
  EXPECT_TRUE(std::isinf(psnr(v[0], v[0])));
}

TEST(Metrics, KnownMse) {
  std::vector<std::uint8_t> a{0, 0, 0, 0};
  std::vector<std::uint8_t> b{2, 2, 2, 2};
  EXPECT_DOUBLE_EQ(mse(a, b), 4.0);
}

TEST(Metrics, MismatchedSizesThrow) {
  Frame a(16, 16), b(32, 32);
  EXPECT_THROW((void)psnrLuma(a, b), std::invalid_argument);
}

}  // namespace
