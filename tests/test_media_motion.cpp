// Unit + property tests for motion estimation and compensation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "eclipse/media/motion.hpp"
#include "eclipse/media/video_gen.hpp"
#include "eclipse/sim/prng.hpp"

namespace {

using namespace eclipse::media;
using namespace eclipse::media::motion;
using eclipse::sim::Prng;

Frame noiseFrame(int w, int h, std::uint64_t seed) {
  Frame f(w, h);
  Prng rng(seed);
  for (auto& v : f.yPlane()) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : f.cbPlane()) v = static_cast<std::uint8_t>(rng.below(256));
  for (auto& v : f.crPlane()) v = static_cast<std::uint8_t>(rng.below(256));
  return f;
}

/// Copy of `src` translated by (dx, dy) full pels with edge clamping.
Frame translated(const Frame& src, int dx, int dy) {
  Frame out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      const int sx = std::clamp(x + dx, 0, src.width() - 1);
      const int sy = std::clamp(y + dy, 0, src.height() - 1);
      out.setY(x, y, src.yAt(sx, sy));
    }
  }
  return out;
}

TEST(SampleHalfPel, FullPelIsIdentity) {
  const Frame f = noiseFrame(32, 32, 1);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      ASSERT_EQ(sampleHalfPel(f.yPlane(), 32, 32, 2 * x, 2 * y), f.yAt(x, y));
    }
  }
}

TEST(SampleHalfPel, HalfPelIsRoundedAverage) {
  Frame f(16, 16);
  f.setY(3, 5, 10);
  f.setY(4, 5, 13);
  f.setY(3, 6, 20);
  f.setY(4, 6, 25);
  EXPECT_EQ(sampleHalfPel(f.yPlane(), 16, 16, 7, 10), (10 + 13 + 1) / 2);
  EXPECT_EQ(sampleHalfPel(f.yPlane(), 16, 16, 6, 11), (10 + 20 + 1) / 2);
  EXPECT_EQ(sampleHalfPel(f.yPlane(), 16, 16, 7, 11), (10 + 13 + 20 + 25 + 2) / 4);
}

TEST(SampleHalfPel, ClampsAtEdges) {
  const Frame f = noiseFrame(16, 16, 2);
  EXPECT_EQ(sampleHalfPel(f.yPlane(), 16, 16, -10, -10), f.yAt(0, 0));
  EXPECT_EQ(sampleHalfPel(f.yPlane(), 16, 16, 100, 100), f.yAt(15, 15));
}

TEST(PredictLuma, ZeroVectorIsCopy) {
  const Frame f = noiseFrame(48, 32, 3);
  LumaMb pred;
  predictLuma(f, 16, 16, MotionVector{0, 0}, pred);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      ASSERT_EQ(pred[static_cast<std::size_t>(y * 16 + x)], f.yAt(16 + x, 16 + y));
    }
  }
}

TEST(Sad, ZeroForIdenticalContent) {
  const Frame f = noiseFrame(48, 48, 4);
  EXPECT_EQ(sadLuma(f, f, 1, 1, MotionVector{0, 0}), 0u);
}

TEST(Average, RoundsUp) {
  LumaMb a, b, out;
  a.fill(10);
  b.fill(11);
  average(a, b, out);
  for (const auto v : out) EXPECT_EQ(v, 11);  // (10+11+1)/2
}

TEST(IntraActivity, FlatBlockIsZero) {
  Frame f(32, 32);
  for (auto& v : f.yPlane()) v = 77;
  EXPECT_EQ(intraActivity(f, 0, 0), 0u);
}

TEST(IntraActivity, TexturedBlockIsPositive) {
  const Frame f = noiseFrame(32, 32, 5);
  EXPECT_GT(intraActivity(f, 1, 1), 1000u);
}

// Property: full search recovers a known translation (interior MBs, away
// from the clamped borders).
class SearchRecovery : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SearchRecovery, FindsKnownShift) {
  const auto [dx, dy] = GetParam();
  const Frame ref = noiseFrame(96, 96, 77);
  // cur(x) = ref(x + d)  =>  prediction from ref needs mv = +d.
  const Frame cur = translated(ref, dx, dy);
  SearchParams sp;
  sp.range = 6;
  sp.half_pel = false;
  const auto r = search(cur, ref, 2, 2, sp);
  EXPECT_EQ(r.mv.x, 2 * dx);
  EXPECT_EQ(r.mv.y, 2 * dy);
  EXPECT_EQ(r.sad, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shifts, SearchRecovery,
                         ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{0, 1},
                                           std::pair{-2, 3}, std::pair{4, -4}, std::pair{-5, -5},
                                           std::pair{6, 6}));

TEST(Search, ThreeStepFindsLargeShiftCheaply) {
  const Frame ref = noiseFrame(128, 128, 88);
  const Frame cur = translated(ref, 6, -6);
  SearchParams sp;
  sp.range = 8;
  sp.half_pel = false;
  sp.algo = SearchParams::Algo::ThreeStep;
  const auto r = search(cur, ref, 3, 3, sp);
  EXPECT_EQ(r.mv.x, 12);
  EXPECT_EQ(r.mv.y, -12);
}

TEST(Search, HalfPelRefinementNeverWorsens) {
  const auto frames = generateVideo(VideoGenParams{});
  ASSERT_GE(frames.size(), 2u);
  SearchParams full, half;
  full.half_pel = false;
  half.half_pel = true;
  for (int mb = 0; mb < 6; ++mb) {
    const auto rf = search(frames[1], frames[0], mb, 1, full);
    const auto rh = search(frames[1], frames[0], mb, 1, half);
    EXPECT_LE(rh.sad, rf.sad);
  }
}

TEST(PredictChroma, HalvesVector) {
  const Frame f = noiseFrame(32, 32, 9);
  ChromaMb a, b;
  // mv (4,0) half-pel -> chroma vector 2 half-pel -> 1 full chroma pel.
  predictChroma(f.cbPlane(), 16, 16, 4, 4, MotionVector{4, 0}, a);
  predictChroma(f.cbPlane(), 16, 16, 5, 4, MotionVector{0, 0}, b);
  EXPECT_EQ(a, b);
}

// Border oracle: a brute-force reference built from sampleHalfPel alone —
// per-pixel SAD, then the same candidate order as motion::search — must
// equal the edge-replicated block functions and search for every
// macroblock, including frames so small that the search window overhangs
// both edges.

std::uint32_t oracleSad(const Frame& cur, const Frame& ref, int mb_x, int mb_y, MotionVector mv) {
  std::uint32_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const int px = mb_x * 16 + x;
      const int py = mb_y * 16 + y;
      const int p = sampleHalfPel(ref.yPlane(), ref.width(), ref.height(), 2 * px + mv.x,
                                  2 * py + mv.y);
      sad += static_cast<std::uint32_t>(std::abs(cur.yAt(px, py) - p));
    }
  }
  return sad;
}

SearchResult oracleSearch(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                          const SearchParams& sp) {
  int candidates = 0;
  auto eval = [&](int mvx, int mvy) {
    ++candidates;
    const MotionVector mv{static_cast<std::int16_t>(mvx), static_cast<std::int16_t>(mvy)};
    return SearchResult{mv, oracleSad(cur, ref, mb_x, mb_y, mv)};
  };
  SearchResult best = eval(0, 0);
  if (sp.algo == SearchParams::Algo::FullSearch) {
    for (int dy = -sp.range; dy <= sp.range; ++dy) {
      for (int dx = -sp.range; dx <= sp.range; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const SearchResult c = eval(2 * dx, 2 * dy);
        if (c.sad < best.sad) best = c;
      }
    }
  } else {
    int step = 1;
    while (2 * step < sp.range) step *= 2;
    for (; step >= 1; step /= 2) {
      const MotionVector center = best.mv;
      SearchResult round_best = best;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int mvx = center.x + 2 * dx * step;
          const int mvy = center.y + 2 * dy * step;
          if (std::abs(mvx) > 2 * sp.range || std::abs(mvy) > 2 * sp.range) continue;
          const SearchResult c = eval(mvx, mvy);
          if (c.sad < round_best.sad) round_best = c;
        }
      }
      best = round_best;
    }
  }
  if (sp.half_pel) {
    const MotionVector center = best.mv;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const SearchResult c = eval(center.x + dx, center.y + dy);
        if (c.sad < best.sad) best = c;
      }
    }
  }
  best.candidates = candidates;
  return best;
}

/// Reference/current pairs: random noise (unique minima) and flat generated
/// content (SAD ties everywhere, so the candidate order decides).
std::vector<std::pair<Frame, Frame>> oracleClips(int w, int h) {
  VideoGenParams vp;
  vp.width = w;
  vp.height = h;
  vp.frames = 2;
  vp.detail = 0;
  vp.noise_level = 0;
  vp.motion_speed = 4;
  auto flat = generateVideo(vp);
  return {{noiseFrame(w, h, 41), noiseFrame(w, h, 42)}, {flat[0], flat[1]}};
}

class BorderOracle : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BorderOracle, SearchMatchesBruteForce) {
  const auto [w, h] = GetParam();
  for (const auto& [ref, cur] : oracleClips(w, h)) {
    for (const auto algo : {SearchParams::Algo::FullSearch, SearchParams::Algo::ThreeStep}) {
      for (const int range : {1, 4, 8}) {
        for (const bool half : {false, true}) {
          SearchParams sp;
          sp.algo = algo;
          sp.range = range;
          sp.half_pel = half;
          for (int mb_y = 0; mb_y < h / 16; ++mb_y) {
            for (int mb_x = 0; mb_x < w / 16; ++mb_x) {
              const SearchResult want = oracleSearch(cur, ref, mb_x, mb_y, sp);
              const SearchResult got = search(cur, ref, mb_x, mb_y, sp);
              SCOPED_TRACE(::testing::Message()
                           << "mb (" << mb_x << "," << mb_y << ") algo "
                           << static_cast<int>(algo) << " range " << range << " half " << half);
              ASSERT_EQ(got.mv, want.mv);
              ASSERT_EQ(got.sad, want.sad);
              ASSERT_EQ(got.candidates, want.candidates);
            }
          }
        }
      }
    }
  }
}

TEST_P(BorderOracle, BlockReadsMatchSampleHalfPel) {
  const auto [w, h] = GetParam();
  const auto clips = oracleClips(w, h);
  const Frame& ref = clips[0].first;
  const Frame& cur = clips[0].second;
  std::vector<int> comps;
  for (int c = -17; c <= 17; ++c) comps.push_back(c);
  for (const int far : {-71, -64, 64, 71}) comps.push_back(far);  // wholly outside
  for (int mb_y = 0; mb_y < h / 16; ++mb_y) {
    for (int mb_x = 0; mb_x < w / 16; ++mb_x) {
      for (const int mvy : comps) {
        for (const int mvx : comps) {
          const MotionVector mv{static_cast<std::int16_t>(mvx), static_cast<std::int16_t>(mvy)};
          SCOPED_TRACE(::testing::Message() << "mb (" << mb_x << "," << mb_y << ") mv (" << mvx
                                            << "," << mvy << ")");
          ASSERT_EQ(sadLuma(cur, ref, mb_x, mb_y, mv), oracleSad(cur, ref, mb_x, mb_y, mv));
          LumaMb luma;
          predictLuma(ref, mb_x * 16, mb_y * 16, mv, luma);
          ChromaMb cb;
          predictChroma(ref.cbPlane(), w / 2, h / 2, mb_x * 8, mb_y * 8, mv, cb);
          for (int y = 0; y < 16; ++y) {
            for (int x = 0; x < 16; ++x) {
              ASSERT_EQ(luma[static_cast<std::size_t>(y * 16 + x)],
                        sampleHalfPel(ref.yPlane(), w, h, 2 * (mb_x * 16 + x) + mvx,
                                      2 * (mb_y * 16 + y) + mvy));
            }
          }
          for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 8; ++x) {
              ASSERT_EQ(cb[static_cast<std::size_t>(y * 8 + x)],
                        sampleHalfPel(ref.cbPlane(), w / 2, h / 2, 2 * (mb_x * 8 + x) + mvx / 2,
                                      2 * (mb_y * 8 + y) + mvy / 2));
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Frames, BorderOracle,
                         ::testing::Values(std::pair{48, 32}, std::pair{16, 16}));

}  // namespace
