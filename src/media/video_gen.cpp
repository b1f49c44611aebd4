#include "eclipse/media/video_gen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "eclipse/media/kernels.hpp"

namespace eclipse::media {

namespace {

struct MovingObject {
  double x, y;      // top-left, luma pels
  double vx, vy;    // pels per frame
  int w, h;
  std::uint8_t luma;
  std::uint8_t cb;
  std::uint8_t cr;
};

std::uint8_t clampPel(int v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

/// Deterministic object set derived from the seed and scene number, so that
/// generateFrame(i) is reproducible without generating frames 0..i-1.
std::vector<MovingObject> makeObjects(const VideoGenParams& p, int scene) {
  sim::Prng rng(p.seed * 7919 + static_cast<std::uint64_t>(scene) * 104729 + 13);
  std::vector<MovingObject> objs;
  objs.reserve(static_cast<std::size_t>(p.object_count));
  for (int i = 0; i < p.object_count; ++i) {
    MovingObject o{};
    o.w = static_cast<int>(rng.range(p.width / 8, p.width / 3));
    o.h = static_cast<int>(rng.range(p.height / 8, p.height / 3));
    o.x = static_cast<double>(rng.range(0, p.width - o.w));
    o.y = static_cast<double>(rng.range(0, p.height - o.h));
    o.vx = static_cast<double>(rng.range(-p.motion_speed, p.motion_speed));
    o.vy = static_cast<double>(rng.range(-p.motion_speed, p.motion_speed));
    if (o.vx == 0 && o.vy == 0) o.vx = 1;
    o.luma = static_cast<std::uint8_t>(rng.range(40, 220));
    o.cb = static_cast<std::uint8_t>(rng.range(64, 192));
    o.cr = static_cast<std::uint8_t>(rng.range(64, 192));
    objs.push_back(o);
  }
  return objs;
}

}  // namespace

Frame generateFrame(const VideoGenParams& p, int index) {
  Frame f(p.width, p.height);
  const int scene = p.scene_cut_period > 0 ? index / p.scene_cut_period : 0;
  const int t = p.scene_cut_period > 0 ? index % p.scene_cut_period : index;
  const auto& k = kernels::active();

  // Background: diagonal gradient plus sinusoidal texture, translating with
  // time so P-frames see global motion. Both are separable, so the x terms
  // are computed once per column and the y terms once per row. Each pixel
  // evaluates (grad_x + grad_y) + sin_x * cos_y, the association of
  // 96 + a + b + 24 * sin * cos, so the result is bit-exact to evaluating
  // that per pixel (also under FMA contraction). Only the clamp-and-narrow
  // store is batched per row through the kernel table.
  sim::Prng noise_rng(p.seed * 31 + static_cast<std::uint64_t>(index) * 1000003 + 7);
  const int bg_shift = t * std::max(1, p.motion_speed / 2);
  auto& yp = f.yPlane();
  const std::size_t width = static_cast<std::size_t>(p.width);
  std::vector<double> grad_x(width), sin_x(width);
  for (int x = 0; x < p.width; ++x) {
    const int gx = x + bg_shift + scene * 37;
    grad_x[static_cast<std::size_t>(x)] = 96.0 + (gx * 48.0) / p.width;
    sin_x[static_cast<std::size_t>(x)] = 24.0 * std::sin(gx * 0.18 * p.detail);
  }
  std::vector<std::int32_t> row(width);
  for (int y = 0; y < p.height; ++y) {
    const int gy = y + scene * 23;
    const double grad_y = (gy * 32.0) / p.height;
    const double cos_y = std::cos(gy * 0.13 * p.detail);
    for (std::size_t x = 0; x < width; ++x) {
      double v = grad_x[x] + grad_y;
      if (p.detail > 0) v += sin_x[x] * cos_y;
      if (p.noise_level > 0) {
        v += (noise_rng.uniform() - 0.5) * 2.0 * p.noise_level;
      }
      row[x] = static_cast<std::int32_t>(std::lround(v));
    }
    k.clamp_store_row(row.data(), yp.data() + static_cast<std::size_t>(y) * width, width);
  }
  // Chroma background: slow gradients. Cb depends only on x and Cr only on
  // y, so each plane is one computed row (resp. one fill value) per frame.
  const int cw = p.width / 2;
  const int ch = p.height / 2;
  auto& cbp = f.cbPlane();
  auto& crp = f.crPlane();
  std::vector<std::int32_t> cb_row(static_cast<std::size_t>(cw));
  for (int x = 0; x < cw; ++x) {
    cb_row[static_cast<std::size_t>(x)] = 112 + (x + bg_shift / 2) * 24 / cw;
  }
  for (int y = 0; y < ch; ++y) {
    std::uint8_t* cb_dst = cbp.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(cw);
    k.clamp_store_row(cb_row.data(), cb_dst, static_cast<std::size_t>(cw));
    std::fill_n(crp.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(cw),
                static_cast<std::size_t>(cw), clampPel(136 - (y + scene * 11) * 24 / ch));
  }

  // Foreground objects translate linearly and bounce off frame edges.
  auto objs = makeObjects(p, scene);
  for (auto& o : objs) {
    double ox = o.x + o.vx * t;
    double oy = o.y + o.vy * t;
    // Reflect into [0, max] (triangle wave) so objects stay in frame.
    auto bounce = [](double v, double max) {
      if (max <= 0) return 0.0;
      const double period = 2.0 * max;
      double m = std::fmod(v, period);
      if (m < 0) m += period;
      return m <= max ? m : period - m;
    };
    ox = bounce(ox, static_cast<double>(p.width - o.w));
    oy = bounce(oy, static_cast<double>(p.height - o.h));
    const int ix = static_cast<int>(std::lround(ox));
    const int iy = static_cast<int>(std::lround(oy));
    const int x0 = std::max(0, ix);
    const int x1 = std::min(p.width, ix + o.w);  // exclusive
    if (x0 >= x1) continue;
    for (int y = std::max(0, iy); y < std::min(p.height, iy + o.h); ++y) {
      std::fill_n(yp.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(p.width) +
                      static_cast<std::size_t>(x0),
                  static_cast<std::size_t>(x1 - x0), o.luma);
      // Chroma covers columns x0/2 .. (x1-1)/2 inclusive on row y/2.
      const std::size_t c0 = static_cast<std::size_t>(y / 2) * static_cast<std::size_t>(cw) +
                             static_cast<std::size_t>(x0 / 2);
      const std::size_t cn = static_cast<std::size_t>((x1 - 1) / 2 - x0 / 2 + 1);
      std::fill_n(cbp.data() + c0, cn, o.cb);
      std::fill_n(crp.data() + c0, cn, o.cr);
    }
  }
  return f;
}

std::vector<Frame> generateVideo(const VideoGenParams& params) {
  std::vector<Frame> frames;
  frames.reserve(static_cast<std::size_t>(params.frames));
  for (int i = 0; i < params.frames; ++i) frames.push_back(generateFrame(params, i));
  return frames;
}

}  // namespace eclipse::media
