#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "eclipse/media/types.hpp"

namespace eclipse::media::motion {

/// 16x16 luma prediction samples.
using LumaMb = std::array<std::uint8_t, 256>;
/// 8x8 chroma prediction samples.
using ChromaMb = std::array<std::uint8_t, 64>;

/// Motion-search configuration. Vectors are found at full-pel resolution
/// within ±range and optionally refined to half-pel (MPEG-2 style).
struct SearchParams {
  int range = 8;
  bool half_pel = true;
  enum class Algo { FullSearch, ThreeStep } algo = Algo::FullSearch;
};

/// Samples one plane at a half-pel position with bilinear interpolation and
/// edge clamping. (x2, y2) are in half-pel units. This is the reference
/// definition; the block functions below produce the same samples.
[[nodiscard]] std::uint8_t sampleHalfPel(const std::vector<std::uint8_t>& plane, int w, int h,
                                         int x2, int y2);

/// Copies the rw x rh rectangle at (x0, y0) of a w x h plane (rows `stride`
/// apart) into `dst` (rows rw apart) with edge replication: every sample
/// coordinate is clamped into the plane, as in sampleHalfPel. The rectangle
/// may lie partly or wholly outside the plane.
void gatherClamped(const std::uint8_t* src, int stride, int w, int h, int x0, int y0, int rw,
                   int rh, std::uint8_t* dst);

/// Fetches the 16x16 luma prediction for the macroblock at pixel position
/// (px, py), displaced by `mv` (half-pel units).
void predictLuma(const Frame& ref, int px, int py, MotionVector mv, LumaMb& out);

/// Fetches an 8x8 chroma prediction; the luma vector is halved per MPEG-2.
void predictChroma(const std::vector<std::uint8_t>& plane, int w, int h, int px, int py,
                   MotionVector mv, ChromaMb& out);

/// Averages two predictions with rounding (bidirectional mode).
void average(const LumaMb& a, const LumaMb& b, LumaMb& out);
void average(const ChromaMb& a, const ChromaMb& b, ChromaMb& out);

/// Sum of absolute differences between the current frame's macroblock at
/// (mb_x, mb_y) and the reference displaced by `mv`.
[[nodiscard]] std::uint32_t sadLuma(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                                    MotionVector mv);

/// Result of a motion search.
struct SearchResult {
  MotionVector mv;
  std::uint32_t sad = 0;
  int candidates = 0;  ///< SADs evaluated to find it
};

/// Edge of the square reference window a ±range search reads: the 16x16
/// block, range + 1 pels of margin per side (full-pel range plus half-pel
/// refinement) and the interpolator's extra column and row.
[[nodiscard]] constexpr int searchWindowSize(int range) { return kMbSize + 2 * (range + 1) + 1; }

/// Runs the ±params.range search of the 16x16 block `cur` over `win`, the
/// searchWindowSize(range)-square reference window whose top-left sample
/// lies range + 1 pels above and left of the block. Candidate order: the
/// zero vector first (it wins SAD ties), then the full-pel raster or the
/// ThreeStep rounds, then the 8 half-pel neighbours of the full-pel winner.
[[nodiscard]] SearchResult searchWindow(const std::uint8_t* cur, int cur_stride,
                                        const std::uint8_t* win, int win_stride,
                                        const SearchParams& params);

/// The 16x16 prediction at vector `mv` (|mv| <= 2 * range + 1) from a
/// searchWindow window.
void predictFromWindow(const std::uint8_t* win, int win_stride, int range, MotionVector mv,
                       LumaMb& out);

/// Finds the best-matching vector for the macroblock at (mb_x, mb_y): one
/// edge-replicated window of `ref`, then searchWindow.
[[nodiscard]] SearchResult search(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                                  const SearchParams& params);

/// Mean absolute deviation of the macroblock from its own mean — the
/// classic intra/inter decision activity measure.
[[nodiscard]] std::uint32_t intraActivity(const Frame& cur, int mb_x, int mb_y);

}  // namespace eclipse::media::motion
