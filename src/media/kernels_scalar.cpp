#include <bit>
#include <cstdlib>

#include "kernels_impl.hpp"

namespace eclipse::media::kernels::detail {

namespace {

// Namespace-scope, init-on-load (satellite of PR 6): the table used to be a
// function-local static inside dct.cpp, which made every forward()/inverse()
// call pay the C++11 static-init guard check.
const DctK g_dct_k = computeDctK();

std::int16_t clamp16(std::int32_t v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return static_cast<std::int16_t>(v);
}

std::int16_t clampLevel(std::int32_t v) {
  if (v > 2047) return 2047;
  if (v < -2047) return -2047;
  return static_cast<std::int16_t>(v);
}

std::int16_t clampCoef(std::int32_t v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return static_cast<std::int16_t>(v);
}

std::uint8_t clampPel(int v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

/// In-bounds bilinear sample: p = src interpolated at (x + fx/2, y + fy/2).
int interpSample(const std::uint8_t* row0, const std::uint8_t* row1, int x, int fx, int fy) {
  const int a = row0[x];
  if (fx == 0 && fy == 0) return a;
  if (fx != 0 && fy == 0) return (a + row0[x + 1] + 1) / 2;
  if (fx == 0) return (a + row1[x] + 1) / 2;
  return (a + row0[x + 1] + row1[x] + row1[x + 1] + 2) / 4;
}

std::uint32_t sadWxH(int w, const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
                     int ref_stride, int h, int fx, int fy) {
  std::uint32_t sad = 0;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* c = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* r0 = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    const std::uint8_t* r1 = r0 + ref_stride;
    for (int x = 0; x < w; ++x) {
      sad += static_cast<std::uint32_t>(std::abs(c[x] - interpSample(r0, r1, x, fx, fy)));
    }
  }
  return sad;
}

void interpWxH(int w, std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
               int h, int fx, int fy) {
  for (int y = 0; y < h; ++y) {
    std::uint8_t* d = dst + static_cast<std::ptrdiff_t>(y) * dst_stride;
    const std::uint8_t* r0 = src + static_cast<std::ptrdiff_t>(y) * src_stride;
    const std::uint8_t* r1 = r0 + src_stride;
    for (int x = 0; x < w; ++x) {
      d[x] = static_cast<std::uint8_t>(interpSample(r0, r1, x, fx, fy));
    }
  }
}

// --------------------------------------------------------------------- VLC

struct VlcEntry {
  std::uint8_t kind = 0;  // 0 common pair, 1 EOB, 2 escape
  std::int8_t run = 0;
  std::int16_t level = 0;
};

/// Symbol class from the next 8 bits (MSB-aligned). Common pairs are
/// '0' run(2) level_minus1(2) sign(1) = 6 bits; EOB '10' and the escape
/// prefix '11' are 2 bits.
constexpr std::array<VlcEntry, 256> kVlcLut = [] {
  std::array<VlcEntry, 256> t{};
  for (int b = 0; b < 256; ++b) {
    auto& e = t[static_cast<std::size_t>(b)];
    if ((b & 0x80) == 0) {
      const int run = (b >> 5) & 3;
      const int mag = ((b >> 3) & 3) + 1;
      const int sign = (b >> 2) & 1;
      e.kind = 0;
      e.run = static_cast<std::int8_t>(run);
      e.level = static_cast<std::int16_t>(sign != 0 ? -mag : mag);
    } else if ((b & 0xC0) == 0x80) {
      e.kind = 1;
    } else {
      e.kind = 2;
    }
  }
  return t;
}();

/// Multi-bit Exp-Golomb decode. Caller guarantees at least 63 bits remain
/// (the longest possible code) so every peek window is in-stream and the
/// decode — including the throw semantics (consume 32 zero bits, then
/// throw) — matches BitReader::getUe exactly on arbitrary bit content.
std::uint32_t fastGetUe(BitReader& br) {
  const std::uint32_t w = br.peekBits(32);
  if (w == 0) {
    br.skipBits(32);
    throw BitstreamError("BitReader: malformed Exp-Golomb code");
  }
  const int zeros = std::countl_zero(w);
  br.skipBits(zeros + 1);
  std::uint32_t v = 1;
  if (zeros > 0) {
    v = (1u << zeros) | br.peekBits(zeros);
    br.skipBits(zeros);
  }
  return v - 1;
}

/// Verbatim bit-at-a-time VLD (the oracle, vlc.cpp's original getBlock).
void vlcGetBlockBitwise(BitReader& br, rle::RunLevels& out) {
  while (true) {
    if (br.getBit() == 0) {
      // common pair
      const std::uint32_t run = br.get(2);
      const std::uint32_t mag = br.get(2) + 1;
      const bool neg = br.getBit() != 0;
      out.push_back(rle::RunLevel{static_cast<std::uint8_t>(run),
                                  static_cast<std::int16_t>(neg ? -static_cast<int>(mag)
                                                                : static_cast<int>(mag))});
      continue;
    }
    if (br.getBit() == 0) return;  // "10": end of block
    // "11": escape
    const std::uint32_t run = br.getUe();
    const std::uint32_t mag = br.getUe() + 1;
    const bool neg = br.getBit() != 0;
    if (run > 63 || mag > 32767) throw BitstreamError("vlc: escape symbol out of range");
    out.push_back(rle::RunLevel{static_cast<std::uint8_t>(run),
                                static_cast<std::int16_t>(neg ? -static_cast<int>(mag)
                                                              : static_cast<int>(mag))});
  }
}

}  // namespace

void vlcGetBlockFast(BitReader& br, rle::RunLevels& out) {
  while (true) {
    // Fast path: one 8-bit peek classifies the symbol. The worst case on
    // ARBITRARY bits (corrupted streams reach this decoder through the
    // fault-injection tests) is an escape with two maximal Exp-Golomb
    // codes: 2 + 63 + 63 + 1 = 129 bits. With that many bits remaining
    // every peek window is fully in-stream, so the fast path is
    // bit-for-bit the oracle. Anything shorter decodes at symbol
    // granularity through the oracle so bit consumption on truncation
    // matches it exactly.
    if (br.bitsRemaining() >= 129) {
      const VlcEntry e = kVlcLut[br.peekBits(8)];
      if (e.kind == 0) {
        br.skipBits(6);
        out.push_back(rle::RunLevel{static_cast<std::uint8_t>(e.run), e.level});
        continue;
      }
      if (e.kind == 1) {
        br.skipBits(2);
        return;
      }
      br.skipBits(2);
      const std::uint32_t run = fastGetUe(br);
      const std::uint32_t mag = fastGetUe(br) + 1;
      const bool neg = br.getBit() != 0;
      if (run > 63 || mag > 32767) throw BitstreamError("vlc: escape symbol out of range");
      out.push_back(rle::RunLevel{static_cast<std::uint8_t>(run),
                                  static_cast<std::int16_t>(neg ? -static_cast<int>(mag)
                                                                : static_cast<int>(mag))});
      continue;
    }
    // Near end of stream: one symbol via the oracle, then retry the fast
    // path (EOB returns, throws propagate with oracle bit positions).
    if (br.getBit() == 0) {
      const std::uint32_t run = br.get(2);
      const std::uint32_t mag = br.get(2) + 1;
      const bool neg = br.getBit() != 0;
      out.push_back(rle::RunLevel{static_cast<std::uint8_t>(run),
                                  static_cast<std::int16_t>(neg ? -static_cast<int>(mag)
                                                                : static_cast<int>(mag))});
      continue;
    }
    if (br.getBit() == 0) return;
    const std::uint32_t run = br.getUe();
    const std::uint32_t mag = br.getUe() + 1;
    const bool neg = br.getBit() != 0;
    if (run > 63 || mag > 32767) throw BitstreamError("vlc: escape symbol out of range");
    out.push_back(rle::RunLevel{static_cast<std::uint8_t>(run),
                                static_cast<std::int16_t>(neg ? -static_cast<int>(mag)
                                                              : static_cast<int>(mag))});
  }
}

namespace {

// ------------------------------------------------------------ 8x8 DCT (oracle)

void scalarDctForward(const Block& in, Block& out) {
  const auto& k = g_dct_k.k;
  std::array<std::int32_t, 64> tmp{};
  // Rows: tmp[y][u] = sum_x in[y][x] * K[u][x]
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      std::int64_t acc = 0;
      for (int x = 0; x < 8; ++x) {
        acc += static_cast<std::int64_t>(in[static_cast<std::size_t>(y * 8 + x)]) *
               k[static_cast<std::size_t>(u)][static_cast<std::size_t>(x)];
      }
      tmp[static_cast<std::size_t>(y * 8 + u)] =
          static_cast<std::int32_t>((acc + kDctRound) >> kDctShift);
    }
  }
  // Columns: out[v][u] = sum_y tmp[y][u] * K[v][y]
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      std::int64_t acc = 0;
      for (int y = 0; y < 8; ++y) {
        acc += static_cast<std::int64_t>(tmp[static_cast<std::size_t>(y * 8 + u)]) *
               k[static_cast<std::size_t>(v)][static_cast<std::size_t>(y)];
      }
      out[static_cast<std::size_t>(v * 8 + u)] =
          clamp16(static_cast<std::int32_t>((acc + kDctRound) >> kDctShift));
    }
  }
}

void scalarDctInverse(const Block& in, Block& out) {
  const auto& k = g_dct_k.k;
  std::array<std::int32_t, 64> tmp{};
  // Rows: tmp[v][x] = sum_u in[v][u] * K[u][x]
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      std::int64_t acc = 0;
      for (int u = 0; u < 8; ++u) {
        acc += static_cast<std::int64_t>(in[static_cast<std::size_t>(v * 8 + u)]) *
               k[static_cast<std::size_t>(u)][static_cast<std::size_t>(x)];
      }
      tmp[static_cast<std::size_t>(v * 8 + x)] =
          static_cast<std::int32_t>((acc + kDctRound) >> kDctShift);
    }
  }
  // Columns: out[y][x] = sum_v tmp[v][x] * K[v][y]
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      std::int64_t acc = 0;
      for (int v = 0; v < 8; ++v) {
        acc += static_cast<std::int64_t>(tmp[static_cast<std::size_t>(v * 8 + x)]) *
               k[static_cast<std::size_t>(v)][static_cast<std::size_t>(y)];
      }
      out[static_cast<std::size_t>(y * 8 + x)] =
          clamp16(static_cast<std::int32_t>((acc + kDctRound) >> kDctShift));
    }
  }
}

// ------------------------------------------------------------------- quant

void scalarQuantize(const Block& coefs, Block& levels, int qscale, const quant::Matrix& m) {
  for (int i = 0; i < 64; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::int32_t step = qscale * m[idx];  // step/16 is the real step
    const std::int32_t c = coefs[idx] * 16;
    // Round half away from zero for symmetry around 0.
    const std::int32_t lv = c >= 0 ? (c + step / 2) / step : -((-c + step / 2) / step);
    levels[idx] = clampLevel(lv);
  }
}

void scalarDequantize(const Block& levels, Block& coefs, int qscale, const quant::Matrix& m) {
  for (int i = 0; i < 64; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::int32_t step = qscale * m[idx];
    const std::int32_t c = levels[idx] * step / 16;
    coefs[idx] = clampCoef(c);
  }
}

// -------------------------------------------------------------------- scan

void scalarToScan(const Block& raster, Block& scanned, scan::Order order) {
  const auto& t = order == scan::Order::Zigzag ? kZigzagTable : kAlternateTable;
  for (int i = 0; i < 64; ++i) {
    scanned[static_cast<std::size_t>(i)] =
        raster[static_cast<std::size_t>(t[static_cast<std::size_t>(i)])];
  }
}

void scalarFromScan(const Block& scanned, Block& raster, scan::Order order) {
  const auto& t = order == scan::Order::Zigzag ? kZigzagTable : kAlternateTable;
  for (int i = 0; i < 64; ++i) {
    raster[static_cast<std::size_t>(t[static_cast<std::size_t>(i)])] =
        scanned[static_cast<std::size_t>(i)];
  }
}

void scalarRleEncode(const Block& scanned, rle::RunLevels& out) {
  out.clear();
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int16_t v = scanned[static_cast<std::size_t>(i)];
    if (v == 0) {
      ++run;
    } else {
      out.push_back(rle::RunLevel{static_cast<std::uint8_t>(run), v});
      run = 0;
    }
  }
}

// ------------------------------------------------------------------ motion

std::uint32_t scalarSad16xH(const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
                            int ref_stride, int h, int fx, int fy) {
  return sadWxH(16, cur, cur_stride, ref, ref_stride, h, fx, fy);
}

void scalarInterp16xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                      int h, int fx, int fy) {
  interpWxH(16, dst, dst_stride, src, src_stride, h, fx, fy);
}

void scalarInterp8xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                     int h, int fx, int fy) {
  interpWxH(8, dst, dst_stride, src, src_stride, h, fx, fy);
}

void scalarAvgU8(const std::uint8_t* a, const std::uint8_t* b, std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((a[i] + b[i] + 1) / 2);
  }
}

void scalarAddRes8x8(std::uint8_t* dst, int dst_stride, const std::uint8_t* pred, int pred_stride,
                     const std::int16_t* res) {
  for (int y = 0; y < 8; ++y) {
    std::uint8_t* d = dst + static_cast<std::ptrdiff_t>(y) * dst_stride;
    const std::uint8_t* p = pred + static_cast<std::ptrdiff_t>(y) * pred_stride;
    const std::int16_t* r = res + y * 8;
    for (int x = 0; x < 8; ++x) d[x] = clampPel(p[x] + r[x]);
  }
}

void scalarDiff8x8(std::int16_t* res, const std::uint8_t* cur, int cur_stride,
                   const std::uint8_t* pred, int pred_stride) {
  for (int y = 0; y < 8; ++y) {
    std::int16_t* r = res + y * 8;
    const std::uint8_t* c = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* p = pred + static_cast<std::ptrdiff_t>(y) * pred_stride;
    for (int x = 0; x < 8; ++x) r[x] = static_cast<std::int16_t>(c[x] - p[x]);
  }
}

void scalarClampStoreRow(const std::int32_t* src, std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = clampPel(src[i]);
}

}  // namespace

const KernelTable& scalarTable() {
  static const KernelTable t = [] {
    KernelTable k;
    k.backend = Backend::Scalar;
    k.name = "scalar";
    k.dct_forward = scalarDctForward;
    k.dct_inverse = scalarDctInverse;
    k.quantize = scalarQuantize;
    k.dequantize = scalarDequantize;
    k.to_scan = scalarToScan;
    k.from_scan = scalarFromScan;
    k.rle_encode = scalarRleEncode;
    k.sad_16xh = scalarSad16xH;
    k.interp_16xh = scalarInterp16xH;
    k.interp_8xh = scalarInterp8xH;
    k.avg_u8 = scalarAvgU8;
    k.add_res_8x8 = scalarAddRes8x8;
    k.diff_8x8 = scalarDiff8x8;
    k.clamp_store_row = scalarClampStoreRow;
    k.vlc_get_block = vlcGetBlockBitwise;
    return k;
  }();
  return t;
}

}  // namespace eclipse::media::kernels::detail
