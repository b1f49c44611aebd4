#include "eclipse/media/motion.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "eclipse/media/kernels.hpp"

namespace eclipse::media::motion {

namespace {

int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

std::uint8_t fullPel(const std::vector<std::uint8_t>& plane, int w, int h, int x, int y) {
  x = clampi(x, 0, w - 1);
  y = clampi(y, 0, h - 1);
  return plane[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(x)];
}

/// Reference samples for a bw x bh block read at half-pel position (cx, cy):
/// the bw+fx x bh+fy full-pel rectangle the interpolator touches, read
/// straight from the plane when it lies inside, else edge-replicated into
/// `scratch` (at least (bw+1) * (bh+1) bytes).
struct RefBlock {
  const std::uint8_t* data;
  int stride;
  int fx, fy;
};

RefBlock refBlock(const std::vector<std::uint8_t>& plane, int w, int h, int bw, int bh, int cx,
                  int cy, std::uint8_t* scratch) {
  const int x0 = cx >> 1;  // floor division, matching sampleHalfPel's x2 >> 1
  const int y0 = cy >> 1;
  const int fx = cx & 1;
  const int fy = cy & 1;
  const int rw = bw + fx;
  const int rh = bh + fy;
  if (x0 >= 0 && y0 >= 0 && x0 + rw <= w && y0 + rh <= h) {
    return RefBlock{plane.data() + static_cast<std::ptrdiff_t>(y0) * w + x0, w, fx, fy};
  }
  gatherClamped(plane.data(), w, w, h, x0, y0, rw, rh, scratch);
  return RefBlock{scratch, rw, fx, fy};
}

/// Top-left sample of the 16x16 read at vector `mv` in a searchWindow
/// window. The window starts range + 1 pels before the block, so the
/// offset mv + 2(range + 1) is >= 1 for every vector the search emits and
/// >> 1 is a plain floor; its fraction bits equal mv's.
const std::uint8_t* windowAt(const std::uint8_t* win, int win_stride, int range, int mvx,
                             int mvy) {
  const int cx = mvx + 2 * (range + 1);
  const int cy = mvy + 2 * (range + 1);
  return win + static_cast<std::ptrdiff_t>(cy >> 1) * win_stride + (cx >> 1);
}

}  // namespace

std::uint8_t sampleHalfPel(const std::vector<std::uint8_t>& plane, int w, int h, int x2, int y2) {
  const int x = x2 >> 1;
  const int y = y2 >> 1;
  const bool hx = (x2 & 1) != 0;
  const bool hy = (y2 & 1) != 0;
  const int a = fullPel(plane, w, h, x, y);
  if (!hx && !hy) return static_cast<std::uint8_t>(a);
  if (hx && !hy) {
    const int b = fullPel(plane, w, h, x + 1, y);
    return static_cast<std::uint8_t>((a + b + 1) / 2);
  }
  if (!hx) {
    const int b = fullPel(plane, w, h, x, y + 1);
    return static_cast<std::uint8_t>((a + b + 1) / 2);
  }
  const int b = fullPel(plane, w, h, x + 1, y);
  const int c = fullPel(plane, w, h, x, y + 1);
  const int d = fullPel(plane, w, h, x + 1, y + 1);
  return static_cast<std::uint8_t>((a + b + c + d + 2) / 4);
}

void gatherClamped(const std::uint8_t* src, int stride, int w, int h, int x0, int y0, int rw,
                   int rh, std::uint8_t* dst) {
  // Every row splits the same way: `left` samples replicate column 0, then
  // `mid` in-plane samples are one memcpy, then `right` samples replicate
  // column w - 1. A rectangle inside the plane's columns is all `mid`.
  const int left = clampi(-x0, 0, rw);
  const int right = clampi(x0 + rw - w, 0, rw - left);
  const int mid = rw - left - right;
  for (int y = 0; y < rh; ++y, dst += rw) {
    const std::uint8_t* row =
        src + static_cast<std::ptrdiff_t>(clampi(y0 + y, 0, h - 1)) * stride;
    std::fill_n(dst, left, row[0]);
    if (mid > 0) std::memcpy(dst + left, row + x0 + left, static_cast<std::size_t>(mid));
    std::fill_n(dst + left + mid, right, row[w - 1]);
  }
}

void predictLuma(const Frame& ref, int px, int py, MotionVector mv, LumaMb& out) {
  std::uint8_t scratch[(kMbSize + 1) * (kMbSize + 1)];
  const RefBlock r = refBlock(ref.yPlane(), ref.width(), ref.height(), kMbSize, kMbSize,
                              2 * px + mv.x, 2 * py + mv.y, scratch);
  kernels::active().interp_16xh(out.data(), kMbSize, r.data, r.stride, kMbSize, r.fx, r.fy);
}

void predictChroma(const std::vector<std::uint8_t>& plane, int w, int h, int px, int py,
                   MotionVector mv, ChromaMb& out) {
  // MPEG-2: chroma vector = luma vector / 2 (rounding toward zero),
  // still in half-pel units of the chroma grid.
  std::uint8_t scratch[9 * 9];
  const RefBlock r = refBlock(plane, w, h, 8, 8, 2 * px + mv.x / 2, 2 * py + mv.y / 2, scratch);
  kernels::active().interp_8xh(out.data(), 8, r.data, r.stride, 8, r.fx, r.fy);
}

void average(const LumaMb& a, const LumaMb& b, LumaMb& out) {
  kernels::active().avg_u8(a.data(), b.data(), out.data(), out.size());
}

void average(const ChromaMb& a, const ChromaMb& b, ChromaMb& out) {
  kernels::active().avg_u8(a.data(), b.data(), out.data(), out.size());
}

std::uint32_t sadLuma(const Frame& cur, const Frame& ref, int mb_x, int mb_y, MotionVector mv) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  std::uint8_t scratch[(kMbSize + 1) * (kMbSize + 1)];
  const RefBlock r = refBlock(ref.yPlane(), ref.width(), ref.height(), kMbSize, kMbSize,
                              2 * px + mv.x, 2 * py + mv.y, scratch);
  return kernels::active().sad_16xh(
      cur.yPlane().data() + static_cast<std::ptrdiff_t>(py) * cur.width() + px, cur.width(),
      r.data, r.stride, kMbSize, r.fx, r.fy);
}

SearchResult searchWindow(const std::uint8_t* cur, int cur_stride, const std::uint8_t* win,
                          int win_stride, const SearchParams& params) {
  const auto& k = kernels::active();
  int candidates = 0;
  auto eval = [&](int mvx, int mvy) {
    ++candidates;
    return SearchResult{
        MotionVector{static_cast<std::int16_t>(mvx), static_cast<std::int16_t>(mvy)},
        k.sad_16xh(cur, cur_stride, windowAt(win, win_stride, params.range, mvx, mvy),
                   win_stride, kMbSize, mvx & 1, mvy & 1)};
  };

  SearchResult best = eval(0, 0);
  if (params.algo == SearchParams::Algo::FullSearch) {
    for (int dy = -params.range; dy <= params.range; ++dy) {
      for (int dx = -params.range; dx <= params.range; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const SearchResult c = eval(2 * dx, 2 * dy);
        if (c.sad < best.sad) best = c;
      }
    }
  } else {
    // Three-step (logarithmic) search at full-pel resolution.
    int step = 1;
    while (2 * step < params.range) step *= 2;
    while (step >= 1) {
      const MotionVector center = best.mv;
      SearchResult round_best = best;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int mvx = center.x + 2 * dx * step;
          const int mvy = center.y + 2 * dy * step;
          if (std::abs(mvx) > 2 * params.range || std::abs(mvy) > 2 * params.range) continue;
          const SearchResult c = eval(mvx, mvy);
          if (c.sad < round_best.sad) round_best = c;
        }
      }
      best = round_best;
      step /= 2;
    }
  }

  if (params.half_pel) {
    // All eight half-pel candidates are anchored on the full-pel winner;
    // `best` must not drift mid-iteration or the candidate set changes.
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

void predictFromWindow(const std::uint8_t* win, int win_stride, int range, MotionVector mv,
                       LumaMb& out) {
  kernels::active().interp_16xh(out.data(), kMbSize, windowAt(win, win_stride, range, mv.x, mv.y),
                                win_stride, kMbSize, mv.x & 1, mv.y & 1);
}

SearchResult search(const Frame& cur, const Frame& ref, int mb_x, int mb_y,
                    const SearchParams& params) {
  const int margin = params.range + 1;
  const int size = searchWindowSize(params.range);
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  std::vector<std::uint8_t> window(static_cast<std::size_t>(size) * static_cast<std::size_t>(size));
  gatherClamped(ref.yPlane().data(), ref.width(), ref.width(), ref.height(), px - margin,
                py - margin, size, size, window.data());
  return searchWindow(cur.yPlane().data() + static_cast<std::ptrdiff_t>(py) * cur.width() + px,
                      cur.width(), window.data(), size, params);
}

std::uint32_t intraActivity(const Frame& cur, int mb_x, int mb_y) {
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  const std::uint8_t* mb = cur.yPlane().data() +
                           static_cast<std::ptrdiff_t>(py) * cur.width() + px;
  // SAD against a constant row with ref_stride 0: vs zero it sums the
  // pixels, vs the mean it is exactly the activity sum.
  alignas(16) std::uint8_t row[kMbSize] = {};
  const std::uint32_t sum =
      kernels::active().sad_16xh(mb, cur.width(), row, 0, kMbSize, 0, 0);
  const std::uint32_t mean = sum / 256;
  std::fill(std::begin(row), std::end(row), static_cast<std::uint8_t>(mean));
  return kernels::active().sad_16xh(mb, cur.width(), row, 0, kMbSize, 0, 0);
}

}  // namespace eclipse::media::motion
