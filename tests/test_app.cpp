// Tests for the application layer: instance building, resource allocation,
// setup-file loading, KPN decoder, trace rendering and run determinism.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "eclipse/app/kpn_media.hpp"
#include "eclipse/eclipse.hpp"

namespace {

using namespace eclipse;

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

std::vector<std::uint8_t> tinyStream(media::Encoder& enc) {
  return enc.encode(media::generateVideo(tinyVideo()));
}

// ----------------------------------------------------------- instance

TEST(Instance, SramAllocatorAlignsAndExhausts) {
  app::InstanceParams ip;
  ip.sram.size_bytes = 1024;
  app::EclipseInstance inst(ip);
  const auto a = inst.allocSram(100);  // rounded to 128
  const auto b = inst.allocSram(64);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 128u);
  EXPECT_EQ(b % 64, 0u);
  (void)inst.allocSram(832);
  EXPECT_THROW((void)inst.allocSram(64), std::runtime_error);
}

TEST(Instance, TaskAllocatorExhaustsPerShell) {
  app::InstanceParams ip;
  ip.max_tasks = 2;
  app::EclipseInstance inst(ip);
  EXPECT_EQ(inst.allocTask(inst.dctShell()), 0);
  EXPECT_EQ(inst.allocTask(inst.dctShell()), 1);
  EXPECT_THROW((void)inst.allocTask(inst.dctShell()), std::runtime_error);
  EXPECT_EQ(inst.allocTask(inst.mcShell()), 0);  // independent tables
}

TEST(Instance, ConnectStreamLinksRemoteRows) {
  app::EclipseInstance inst;
  app::GraphSpec g("link");
  g.task({.name = "p", .shell = "vld", .software = {}})
      .task({.name = "c", .shell = "rlsq", .software = {}});
  g.stream("s", "p", 0, "c", 0, 256);
  const app::AppHandle handle = app::AppHandle::configure(inst, g);
  const app::AppStream& h = handle.stream("s");
  const auto& prow = inst.vldShell().streams().row(h.producer_row);
  const auto& crow = inst.rlsqShell().streams().row(h.consumer_row);
  EXPECT_EQ(prow.remote_shell, inst.rlsqShell().id());
  EXPECT_EQ(prow.remote_row, h.consumer_row);
  EXPECT_EQ(crow.remote_shell, inst.vldShell().id());
  EXPECT_EQ(crow.remote_row, h.producer_row);
  EXPECT_TRUE(prow.is_producer);
  EXPECT_FALSE(crow.is_producer);
  EXPECT_EQ(prow.space, 256u);
  EXPECT_EQ(crow.space, 0u);
}

TEST(Instance, FromConfigAppliesOverrides) {
  const auto cfg = sim::Config::fromString(
      "[sram]\nsize_bytes = 65536\nbus_width_bytes = 8\n"
      "[shell]\nprefetch = false\ncache_line_bytes = 32\n"
      "[dct]\npipelined = true\n");
  const auto ip = app::InstanceParams::fromConfig(cfg);
  EXPECT_EQ(ip.sram.size_bytes, 65536u);
  EXPECT_EQ(ip.sram.bus_width_bytes, 8u);
  EXPECT_FALSE(ip.prefetch);
  EXPECT_EQ(ip.cache_line_bytes, 32u);
  EXPECT_TRUE(ip.dct.pipelined);
  // Untouched fields keep defaults.
  EXPECT_EQ(ip.dram.access_latency, app::InstanceParams{}.dram.access_latency);
}

TEST(Instance, FromConfigRejectsAnUnknownKeyByName) {
  const auto cfg = sim::Config::fromString("[sram]\nsize_bytes = 65536\nsize_byte = 1024\n");
  try {
    (void)app::InstanceParams::fromConfig(cfg);
    ADD_FAILURE() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'sram.size_byte'"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------- KPN level

TEST(KpnDecoder, BitExactAgainstGolden) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::KpnDecoder dec(bits);
  const auto out = dec.run();
  ASSERT_EQ(out.size(), enc.reconstructed().size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], enc.reconstructed()[i]);
}

TEST(KpnDecoder, EdgeStatisticsAccumulate) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::KpnDecoder dec(bits);
  (void)dec.run();
  EXPECT_GT(dec.graph().edge(dec.coefEdge()).totalProduced(), 0u);
  EXPECT_EQ(dec.graph().edge(dec.pixEdge()).totalProduced(),
            dec.graph().edge(dec.pixEdge()).totalConsumed());
}

TEST(KpnDecoder, SmallFifosStillComplete) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::KpnDecoder dec(bits, 2048);  // just above the largest packet
  const auto out = dec.run();
  EXPECT_EQ(out.size(), 7u);
  EXPECT_LE(dec.graph().edge(dec.coefEdge()).maxFill(), 2048u);
}

// One FIFO size for every edge. mc joins the header and residual streams
// and reads both Eos packets, so no task is left with a write the network
// cannot take: a bounded Kahn network stays determinate, and FIFOs down to
// one byte only serialise the tasks more. Every edge ends drained, each
// byte written also read.
TEST(KpnDecoder, UniformFifosDownToOneByteDecodeBitExactAndDrainEveryEdge) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  for (std::size_t fifo = 1; fifo <= 5; ++fifo) {
    app::KpnDecoder dec(bits, fifo);
    const auto out = dec.run();
    ASSERT_EQ(out.size(), enc.reconstructed().size()) << fifo << "-byte FIFOs";
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], enc.reconstructed()[i]) << fifo << "-byte FIFOs, frame " << i;
    }
    for (std::size_t e = 0; e < dec.graph().edgeCount(); ++e) {
      const kpn::ByteFifo& f = dec.graph().edge(static_cast<int>(e));
      EXPECT_EQ(f.totalProduced(), f.totalConsumed())
          << fifo << "-byte FIFOs, edge " << f.name();
    }
  }
}

// ------------------------------------------------------------- traces

TEST(Trace, RenderSeriesShowsNameAndScale) {
  sim::TimeSeries s("demo series");
  for (sim::Cycle c = 0; c < 100; ++c) s.sample(c, static_cast<double>(c % 10));
  const auto txt = app::renderSeries(s);
  EXPECT_NE(txt.find("demo series"), std::string::npos);
  EXPECT_NE(txt.find('#'), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndRows) {
  sim::TimeSeries a("a"), b("b");
  a.sample(10, 1.5);
  b.sample(20, 2.5);
  const auto csv = app::toCsv({&a, &b});
  EXPECT_NE(csv.find("cycle,a,b"), std::string::npos);
  EXPECT_NE(csv.find("10,1.5,"), std::string::npos);
  EXPECT_NE(csv.find("20,,2.5"), std::string::npos);
}

TEST(Trace, DifferentiateComputesRates) {
  sim::TimeSeries cum("c");
  cum.sample(0, 0);
  cum.sample(10, 50);   // rate 5
  cum.sample(20, 50);   // rate 0
  const auto rate = app::differentiate(cum, "rate");
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_DOUBLE_EQ(rate.points()[0].second, 5.0);
  EXPECT_DOUBLE_EQ(rate.points()[1].second, 0.0);
}

TEST(Trace, ActivityStripsQuantizeCorrectly) {
  sim::TimeSeries busy("busy"), idle("idle"), half("half");
  for (sim::Cycle c = 0; c < 100; ++c) {
    busy.sample(c, 1.0);
    idle.sample(c, 0.0);
    half.sample(c, c % 2 == 0 ? 1.0 : 0.0);
  }
  const auto txt = app::renderActivityStrips({&busy, &idle, &half}, 20);
  // One '#' lane, one blank lane, one '.'/':' lane.
  EXPECT_NE(txt.find("busy |####################|"), std::string::npos);
  EXPECT_NE(txt.find("idle |                    |"), std::string::npos);
  EXPECT_NE(txt.find("half |"), std::string::npos);
  EXPECT_EQ(txt.find("half |####"), std::string::npos);
}

TEST(Trace, EmptySeriesRendersSafely) {
  sim::TimeSeries s("empty");
  EXPECT_NO_THROW((void)app::renderSeries(s));
  EXPECT_NO_THROW((void)app::renderStack({&s, nullptr}));
}

// ----------------------------------------------------- timed decoding

TEST(Apps, ProfilerCollectsSeries) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::InstanceParams ip;
  ip.profiler_period = 200;
  app::EclipseInstance inst(ip);
  app::DecodeApp dec(inst, bits);
  inst.run();
  ASSERT_TRUE(dec.done());
  const auto& row = dec.coefStream().consumer_shell->streams().row(dec.coefStream().consumer_row);
  EXPECT_GT(row.fill_series.size(), 10u);
  EXPECT_GT(row.fill_series.maxValue(), 0.0);
}

TEST(Apps, ProcessingStepGranularityMatchesThePaper) {
  // Section 5.3: "The target granularity for processing steps within the
  // Eclipse architecture is in the range of 10-1000 clock cycles."
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bits);
  inst.run();
  ASSERT_TRUE(dec.done());
  for (shell::Shell* sh :
       {&inst.vldShell(), &inst.rlsqShell(), &inst.dctShell(), &inst.mcShell()}) {
    const auto& t = sh->tasks().row(0);
    ASSERT_GT(t.step_cycles.count(), 0u) << sh->name();
    EXPECT_GE(t.step_cycles.mean(), 10.0) << sh->name();
    EXPECT_LE(t.step_cycles.mean(), 2000.0) << sh->name();
  }
}

TEST(Apps, RunIsCycleDeterministic) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  auto runOnce = [&] {
    app::EclipseInstance inst;
    app::DecodeApp dec(inst, bits);
    return inst.run();
  };
  const auto a = runOnce();
  EXPECT_EQ(a, runOnce());
  EXPECT_EQ(a, runOnce());
}

TEST(Apps, ThreeSimultaneousDecodes) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::InstanceParams ip;
  ip.sram.size_bytes = 96 * 1024;
  app::EclipseInstance inst(ip);
  std::vector<std::unique_ptr<app::DecodeApp>> apps;
  for (int i = 0; i < 3; ++i) apps.push_back(std::make_unique<app::DecodeApp>(inst, bits));
  inst.run(2'000'000'000);
  for (auto& a : apps) {
    ASSERT_TRUE(a->done());
    const auto frames = a->frames();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(frames[i], enc.reconstructed()[i]);
    }
  }
}

TEST(Apps, BlockedStreamsShowDenialsUnderTinyBuffers) {
  media::Encoder enc(tinyCodec());
  const auto bits = tinyStream(enc);
  app::DecodeAppConfig cfg;
  cfg.coef_buffer = 1280;   // just above the worst-case coef frame
  cfg.blocks_buffer = 832;  // just above the blocks frame
  cfg.res_buffer = 832;
  cfg.pix_buffer = 448;
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bits);
  app::EclipseInstance inst2;
  app::DecodeApp dec2(inst2, bits, cfg);
  inst.run();
  inst2.run();
  ASSERT_TRUE(dec.done());
  ASSERT_TRUE(dec2.done());
  auto denials = [](app::DecodeApp& d) {
    return d.coefStream().producer_shell->streams().row(d.coefStream().producer_row).getspace_denied;
  };
  EXPECT_GT(denials(dec2), denials(dec));
}

// ------------------------------------------------------- MC frame borders

// Hand-built stream for the motion-compensation border test: an intra I
// picture of a textured frame, then a P and a B picture whose macroblocks
// carry motion vectors pointing past every frame edge and corner (partly,
// and for the B picture's forward vectors entirely, outside the frame). The
// inter macroblocks code no residual, so the output is the prediction
// itself. Coded order I(0) P(2) B(1). Returns the inter headers written.
constexpr int kBorderW = 64;  // 4x3 macroblocks: two interior ones
constexpr int kBorderH = 48;

std::vector<std::uint8_t> borderStream(std::vector<media::MbHeader>& inter) {
  media::VideoGenParams vp;
  vp.width = kBorderW;
  vp.height = kBorderH;
  vp.frames = 1;
  vp.seed = 11;
  vp.detail = 8;  // busy texture: a wrong edge sample changes the output
  vp.noise_level = 4.0;
  const media::Frame src = media::generateVideo(vp).front();

  media::CodecParams cp;
  cp.width = kBorderW;
  cp.height = kBorderH;
  cp.gop = media::GopStructure{9, 3};
  const media::SeqHeader sh = cp.toSeqHeader(3);
  media::BitWriter bw;
  media::stages::writeSeqHeader(bw, sh);

  const int mb_w = kBorderW / media::kMbSize;
  const int mb_h = kBorderH / media::kMbSize;
  media::PicHeader ph;
  ph.qscale = sh.qscale;
  ph.type = media::FrameType::I;
  ph.temporal_ref = 0;
  media::stages::writePicHeader(bw, ph);
  for (int my = 0; my < mb_h; ++my) {
    for (int mx = 0; mx < mb_w; ++mx) {
      media::MbHeader h;
      h.mb_x = static_cast<std::uint16_t>(mx);
      h.mb_y = static_cast<std::uint16_t>(my);
      media::MbPixels cur, pred;
      media::stages::extractMb(src, mx, my, cur);
      media::stages::predictMb(h, nullptr, nullptr, pred);
      media::MbBlocks residual, coefs;
      media::stages::residualMb(cur, pred, residual);
      media::stages::fdctMb(residual, coefs);
      media::MbCoefs rl;
      media::stages::rlsqEncode(coefs, true, sh, ph.qscale, rl);
      h.cbp = rl.cbp;
      media::stages::writeMb(bw, h, rl);
    }
  }

  // Outward direction of a macroblock: -1 / +1 on the first / last
  // column (row), 0 inside.
  auto out = [](int i, int n) { return i == 0 ? -1 : (i == n - 1 ? 1 : 0); };
  // Vector component pushing `o` outward: `far` half-pels to the left/top;
  // to the right/bottom `near` on every other macroblock, `far` otherwise.
  auto push = [](int o, int other_axis, int near, int far) {
    return o < 0 ? -far : (o > 0 ? (other_axis % 2 == 0 ? near : far) : 0);
  };
  auto mv = [](int x, int y) {
    return media::MotionVector{static_cast<std::int16_t>(x), static_cast<std::int16_t>(y)};
  };
  for (const media::FrameType type : {media::FrameType::P, media::FrameType::B}) {
    ph.type = type;
    ph.temporal_ref = type == media::FrameType::P ? 2 : 1;
    media::stages::writePicHeader(bw, ph);
    for (int my = 0; my < mb_h; ++my) {
      for (int mx = 0; mx < mb_w; ++mx) {
        const int ox = out(mx, mb_w);
        const int oy = out(my, mb_h);
        media::MbHeader h;
        h.mb_x = static_cast<std::uint16_t>(mx);
        h.mb_y = static_cast<std::uint16_t>(my);
        h.qscale = ph.qscale;
        if (type == media::FrameType::P) {
          // Regions straddling the edges by 3-4 pels, or on the right and
          // bottom by exactly the one extra sample a luma half-pel read
          // needs (vector +1). Interior macroblocks read a half-pel region
          // inside the frame.
          h.mode = media::MbMode::Forward;
          h.mv_fwd = (ox == 0 && oy == 0) ? mv(3, -3)
                                          : mv(push(ox, my, 1, 7), push(oy, mx, 1, 5));
        } else {
          // Forward vectors 30.5 / 22.5 pels outward (wholly outside the
          // frame at the border); backward ones 9.5 pels outward, or +3
          // half-pels, which makes the 9x9 chroma half-pel read straddle
          // by exactly one sample.
          static constexpr media::MbMode kModes[] = {media::MbMode::Bidirectional,
                                                     media::MbMode::Forward,
                                                     media::MbMode::Backward};
          h.mode = kModes[(mx + my) % 3];
          h.mv_fwd = mv(61 * ox - 1, 45 * oy + 1);
          h.mv_bwd = mv(push(ox, my, 3, 19), push(oy, mx + 1, 3, 19) - 1);
        }
        media::stages::writeMb(bw, h, media::MbCoefs{});
        inter.push_back(h);
      }
    }
  }
  return bw.finish();
}

// Which frame edges and corners a fetched region [x0, x0+w) x [y0, y0+h)
// straddles in a plane of `pw` x `ph` samples ("inside" / "outside" when
// it lies entirely in / out of the plane). "edge+1" marks a region that
// overhangs the right or bottom edge by exactly one sample which the
// half-pel interpolation (`fx` / `fy` set) then reads.
void classifyRegion(const std::string& plane, int x0, int y0, int fx, int fy, int w, int h,
                    int pw, int ph, std::set<std::string>& seen) {
  const bool left = x0 < 0 && x0 + w > 0;
  const bool right = x0 < pw && x0 + w > pw;
  const bool top = y0 < 0 && y0 + h > 0;
  const bool bottom = y0 < ph && y0 + h > ph;
  const bool in = x0 >= 0 && x0 + w <= pw && y0 >= 0 && y0 + h <= ph;
  const bool out = x0 + w <= 0 || x0 >= pw || y0 + h <= 0 || y0 >= ph;
  if (left) seen.insert(plane + " left");
  if (right) seen.insert(plane + " right");
  if (top) seen.insert(plane + " top");
  if (bottom) seen.insert(plane + " bottom");
  if (left && top) seen.insert(plane + " top-left");
  if (right && top) seen.insert(plane + " top-right");
  if (left && bottom) seen.insert(plane + " bottom-left");
  if (right && bottom) seen.insert(plane + " bottom-right");
  if (x0 + w == pw + 1 && fx == 1) seen.insert(plane + " right edge+1");
  if (y0 + h == ph + 1 && fy == 1) seen.insert(plane + " bottom edge+1");
  if (in) seen.insert(plane + " inside");
  if (out) seen.insert(plane + " outside");
}

TEST(Apps, McPredictionsAcrossFrameBordersAreBitExact) {
  std::vector<media::MbHeader> inter;
  const auto bits = borderStream(inter);

  // The stream really exercises the clamp: the MC coprocessor's 17x17 luma
  // and 9x9 chroma fetches (anchored like McCoproc::predictTimed) straddle
  // every edge and corner, and some lie wholly inside or outside.
  std::set<std::string> seen;
  for (const auto& h : inter) {
    auto visit = [&](media::MotionVector v) {
      const int px = h.mb_x * media::kMbSize;
      const int py = h.mb_y * media::kMbSize;
      const int lx = 2 * px + v.x;
      const int ly = 2 * py + v.y;
      classifyRegion("luma", lx >> 1, ly >> 1, lx & 1, ly & 1, 17, 17, kBorderW, kBorderH, seen);
      const int cx = px + v.x / 2;  // 2 * (px / 2) + chroma vector
      const int cy = py + v.y / 2;
      classifyRegion("chroma", cx >> 1, cy >> 1, cx & 1, cy & 1, 9, 9, kBorderW / 2,
                     kBorderH / 2, seen);
    };
    if (h.mode == media::MbMode::Forward || h.mode == media::MbMode::Bidirectional) visit(h.mv_fwd);
    if (h.mode == media::MbMode::Backward || h.mode == media::MbMode::Bidirectional) visit(h.mv_bwd);
  }
  for (const char* plane : {"luma", "chroma"}) {
    for (const char* where : {"left", "right", "top", "bottom", "top-left", "top-right",
                              "bottom-left", "bottom-right", "right edge+1", "bottom edge+1",
                              "inside", "outside"}) {
      EXPECT_TRUE(seen.count(std::string(plane) + " " + where)) << plane << " " << where;
    }
  }

  media::Decoder golden;
  const auto expected = golden.decode(bits);
  ASSERT_EQ(expected.size(), 3u);
  app::EclipseInstance inst;
  app::DecodeApp dec(inst, bits);
  inst.run();
  ASSERT_TRUE(dec.done());
  const auto frames = dec.frames();
  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i) EXPECT_EQ(frames[i], expected[i]) << "frame " << i;
  // The reconstruction is not trivially flat: the P picture differs from
  // the I picture it predicts from (the border replication shifts it).
  EXPECT_NE(expected[2], expected[0]);
}

}  // namespace
