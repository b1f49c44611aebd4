// AVX2 backend for the media kernels. This TU is compiled with -mavx2 (see
// src/media/CMakeLists.txt); runtime gating happens in kernels.cpp via
// CPUID, so the rest of the binary never executes VEX-256 instructions on
// machines without them. Bit-identical to the scalar oracle (DESIGN.md §11).

#include "kernels_impl.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace eclipse::media::kernels::detail {

namespace {

// ----------------------------------------------------------------- tables

struct DctTabs {
  // Row-pass coefficient pairs for pmaddwd, one 256-bit row per x-pair:
  // fwd_pairs[p][2u+e] = K[u][2p+e] (u = output lane, e = pair element).
  alignas(32) std::int16_t fwd_pairs[4][16];
  // inv_pairs[p][2x+e] = K[2p+e][x] (x = output lane, summing over u).
  alignas(32) std::int16_t inv_pairs[4][16];
  // Column-pass broadcast factors: fwd out[v] uses colF[v][y] = K[v][y],
  // inverse out[y] uses colI[y][v] = K[v][y].
  alignas(32) std::int32_t colF[8][8];
  alignas(32) std::int32_t colI[8][8];

  DctTabs() {
    const DctK t = computeDctK();
    for (int p = 0; p < 4; ++p) {
      for (int l = 0; l < 8; ++l) {
        fwd_pairs[p][2 * l] = static_cast<std::int16_t>(
            t.k[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * p)]);
        fwd_pairs[p][2 * l + 1] = static_cast<std::int16_t>(
            t.k[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * p + 1)]);
        inv_pairs[p][2 * l] = static_cast<std::int16_t>(
            t.k[static_cast<std::size_t>(2 * p)][static_cast<std::size_t>(l)]);
        inv_pairs[p][2 * l + 1] = static_cast<std::int16_t>(
            t.k[static_cast<std::size_t>(2 * p + 1)][static_cast<std::size_t>(l)]);
      }
    }
    for (int r = 0; r < 8; ++r) {
      for (int c = 0; c < 8; ++c) {
        colF[r][c] = t.k[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
        colI[r][c] = t.k[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)];
      }
    }
  }
};

const DctTabs g_dct;

/// pshufb masks applying a fixed 64-element int16 permutation in 32-byte
/// chunks: out chunk j ORs, for every input chunk k, shuffles of the
/// chunk itself (mA, same-lane bytes) and its lane-swapped copy (mB,
/// cross-lane bytes). 0x80 bytes contribute zero.
struct ScanMasks {
  alignas(32) std::uint8_t mA[4][4][32];
  alignas(32) std::uint8_t mB[4][4][32];
};

constexpr ScanMasks buildMasks(const std::array<int, 64>& perm) {
  ScanMasks m{};
  for (int j = 0; j < 4; ++j) {
    for (int k = 0; k < 4; ++k) {
      for (int b = 0; b < 32; ++b) {
        m.mA[j][k][b] = 0x80;
        m.mB[j][k][b] = 0x80;
      }
    }
  }
  for (int i = 0; i < 64; ++i) {
    const int e = perm[static_cast<std::size_t>(i)];
    for (int half = 0; half < 2; ++half) {
      const int db_abs = 2 * i + half;
      const int sb_abs = 2 * e + half;
      const int j = db_abs / 32, db = db_abs % 32, dl = db / 16;
      const int k = sb_abs / 32, sb = sb_abs % 32, sl = sb / 16, so = sb % 16;
      if (sl == dl) {
        m.mA[j][k][db] = static_cast<std::uint8_t>(so);
      } else {
        m.mB[j][k][db] = static_cast<std::uint8_t>(so);
      }
    }
  }
  return m;
}

constexpr ScanMasks kZigzagFwd = buildMasks(scanPerm(kZigzagTable, false));
constexpr ScanMasks kZigzagInv = buildMasks(scanPerm(kZigzagTable, true));
constexpr ScanMasks kAltFwd = buildMasks(scanPerm(kAlternateTable, false));
constexpr ScanMasks kAltInv = buildMasks(scanPerm(kAlternateTable, true));

// ---------------------------------------------------------------- helpers

inline __m256i load256(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

inline __m256i broadcastPair(const std::int16_t* r) {
  const std::uint32_t bits = static_cast<std::uint16_t>(r[0]) |
                             (static_cast<std::uint32_t>(static_cast<std::uint16_t>(r[1])) << 16);
  return _mm256_set1_epi32(static_cast<int>(bits));
}

inline void dctRowPass(const std::int16_t* in_row, const std::int16_t pairs[4][16],
                       std::int32_t* tmp_row) {
  __m256i acc = _mm256_set1_epi32(kDctRound);
  for (int p = 0; p < 4; ++p) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(broadcastPair(in_row + 2 * p),
                               _mm256_load_si256(reinterpret_cast<const __m256i*>(pairs[p]))));
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp_row), _mm256_srai_epi32(acc, kDctShift));
}

inline __m256i dctColAcc(const std::int32_t* tmp, const std::int32_t* factors) {
  __m256i acc = _mm256_set1_epi32(kDctRound);
  for (int t = 0; t < 8; ++t) {
    acc = _mm256_add_epi32(
        acc, _mm256_mullo_epi32(_mm256_load_si256(reinterpret_cast<const __m256i*>(tmp + t * 8)),
                                _mm256_set1_epi32(factors[t])));
  }
  return _mm256_srai_epi32(acc, kDctShift);
}

inline void dctColStorePair(const std::int32_t* tmp, const std::int32_t* f0,
                            const std::int32_t* f1, std::int16_t* out_rows) {
  const __m256i r0 = dctColAcc(tmp, f0);
  const __m256i r1 = dctColAcc(tmp, f1);
  // packs_epi32 saturation == clamp16; fix the lane interleave so the two
  // output rows land contiguously.
  const __m256i p = _mm256_permute4x64_epi64(_mm256_packs_epi32(r0, r1), _MM_SHUFFLE(3, 1, 2, 0));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_rows), p);
}

void avx2DctForward(const Block& in, Block& out) {
  alignas(32) std::int32_t tmp[64];
  for (int y = 0; y < 8; ++y) {
    dctRowPass(&in[static_cast<std::size_t>(y * 8)], g_dct.fwd_pairs, tmp + y * 8);
  }
  for (int v = 0; v < 8; v += 2) {
    dctColStorePair(tmp, g_dct.colF[v], g_dct.colF[v + 1], &out[static_cast<std::size_t>(v * 8)]);
  }
}

void avx2DctInverse(const Block& in, Block& out) {
  alignas(32) std::int32_t tmp[64];
  for (int v = 0; v < 8; ++v) {
    dctRowPass(&in[static_cast<std::size_t>(v * 8)], g_dct.inv_pairs, tmp + v * 8);
  }
  for (int y = 0; y < 8; y += 2) {
    dctColStorePair(tmp, g_dct.colI[y], g_dct.colI[y + 1], &out[static_cast<std::size_t>(y * 8)]);
  }
}

// ------------------------------------------------------------------- quant

void avx2Quantize(const Block& coefs, Block& levels, int qscale, const quant::Matrix& m) {
  const __m256i qs = _mm256_set1_epi32(qscale);
  const __m256i lv_max = _mm256_set1_epi32(2047);
  const __m256i lv_min = _mm256_set1_epi32(-2047);
  for (int i = 0; i < 64; i += 8) {
    const __m256i c32 = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&coefs[static_cast<std::size_t>(i)])));
    const __m256i step = _mm256_mullo_epi32(
        _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&m[static_cast<std::size_t>(i)]))),
        qs);
    const __m256i sign = _mm256_srai_epi32(c32, 31);
    const __m256i absc = _mm256_sub_epi32(_mm256_xor_si256(c32, sign), sign);
    // n = |coef|*16 + step/2; exact n/step via double division. For
    // 0 <= n < 2^20 and 0 < step < 2^13 a quotient is either exactly
    // representable or at least 2^-13 away from an integer, while the
    // rounding error is below 2^-32, so truncation equals integer division.
    const __m256i n = _mm256_add_epi32(_mm256_slli_epi32(absc, 4), _mm256_srli_epi32(step, 1));
    const __m128i q_lo = _mm256_cvttpd_epi32(
        _mm256_div_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(n)),
                      _mm256_cvtepi32_pd(_mm256_castsi256_si128(step))));
    const __m128i q_hi = _mm256_cvttpd_epi32(
        _mm256_div_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(n, 1)),
                      _mm256_cvtepi32_pd(_mm256_extracti128_si256(step, 1))));
    __m256i q = _mm256_set_m128i(q_hi, q_lo);
    q = _mm256_sub_epi32(_mm256_xor_si256(q, sign), sign);
    q = _mm256_max_epi32(_mm256_min_epi32(q, lv_max), lv_min);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&levels[static_cast<std::size_t>(i)]),
                     _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1)));
  }
}

void avx2Dequantize(const Block& levels, Block& coefs, int qscale, const quant::Matrix& m) {
  const __m256i qs = _mm256_set1_epi32(qscale);
  const __m256i fifteen = _mm256_set1_epi32(15);
  for (int i = 0; i < 64; i += 8) {
    const __m256i l32 = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&levels[static_cast<std::size_t>(i)])));
    const __m256i step = _mm256_mullo_epi32(
        _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&m[static_cast<std::size_t>(i)]))),
        qs);
    const __m256i prod = _mm256_mullo_epi32(l32, step);
    const __m256i sign = _mm256_srai_epi32(prod, 31);
    const __m256i c =
        _mm256_srai_epi32(_mm256_add_epi32(prod, _mm256_and_si256(sign, fifteen)), 4);
    // packs_epi32 saturation == clampCoef.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&coefs[static_cast<std::size_t>(i)]),
                     _mm_packs_epi32(_mm256_castsi256_si128(c), _mm256_extracti128_si256(c, 1)));
  }
}

// -------------------------------------------------------------------- scan

inline void shuffle64(const std::int16_t* src, std::int16_t* dst, const ScanMasks& M) {
  __m256i in[4], sw[4];
  for (int k = 0; k < 4; ++k) {
    in[k] = load256(src + 16 * k);
    sw[k] = _mm256_permute2x128_si256(in[k], in[k], 0x01);
  }
  for (int j = 0; j < 4; ++j) {
    __m256i r = _mm256_setzero_si256();
    for (int k = 0; k < 4; ++k) {
      r = _mm256_or_si256(
          r, _mm256_shuffle_epi8(in[k],
                                 _mm256_load_si256(reinterpret_cast<const __m256i*>(M.mA[j][k]))));
      r = _mm256_or_si256(
          r, _mm256_shuffle_epi8(sw[k],
                                 _mm256_load_si256(reinterpret_cast<const __m256i*>(M.mB[j][k]))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16 * j), r);
  }
}

void avx2ToScan(const Block& raster, Block& scanned, scan::Order order) {
  shuffle64(raster.data(), scanned.data(),
            order == scan::Order::Zigzag ? kZigzagFwd : kAltFwd);
}

void avx2FromScan(const Block& scanned, Block& raster, scan::Order order) {
  shuffle64(scanned.data(), raster.data(),
            order == scan::Order::Zigzag ? kZigzagInv : kAltInv);
}

// --------------------------------------------------------------------- rle

void avx2RleEncode(const Block& scanned, rle::RunLevels& out) {
  out.clear();
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t nonzero = 0;
  for (int i = 0; i < 64; i += 32) {
    const __m256i z0 =
        _mm256_cmpeq_epi16(load256(&scanned[static_cast<std::size_t>(i)]), zero);
    const __m256i z1 =
        _mm256_cmpeq_epi16(load256(&scanned[static_cast<std::size_t>(i + 16)]), zero);
    const __m256i packed =
        _mm256_permute4x64_epi64(_mm256_packs_epi16(z0, z1), _MM_SHUFFLE(3, 1, 2, 0));
    const auto zb = static_cast<std::uint32_t>(_mm256_movemask_epi8(packed));
    nonzero |= static_cast<std::uint64_t>(~zb) << i;
  }
  int prev = -1;
  while (nonzero != 0) {
    const int pos = std::countr_zero(nonzero);
    nonzero &= nonzero - 1;
    out.push_back(rle::RunLevel{static_cast<std::uint8_t>(pos - prev - 1),
                                scanned[static_cast<std::size_t>(pos)]});
    prev = pos;
  }
}

// ------------------------------------------------- 128-bit motion and pixels
// 16-byte rows and 8x8 tiles fill an SSE register exactly, so these stay
// 128-bit: the odd-height tails of the 16xH kernels, the 8-wide chroma
// interpolation, residual add/diff and the generator's clamped row store.

inline __m128i loadu8(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// 16-wide half-pel prediction row; the 4-tap case widens to u16 because
/// pavgb-of-pavgb is NOT bit-exact for (a+b+c+d+2)/4.
inline __m128i predRow16(const std::uint8_t* r0, int ref_stride, int fx, int fy) {
  const std::uint8_t* r1 = r0 + ref_stride;
  if (fx == 0 && fy == 0) return loadu8(r0);
  if (fx != 0 && fy == 0) return _mm_avg_epu8(loadu8(r0), loadu8(r0 + 1));
  if (fx == 0) return _mm_avg_epu8(loadu8(r0), loadu8(r1));
  const __m128i zero = _mm_setzero_si128();
  const __m128i two = _mm_set1_epi16(2);
  const __m128i a = loadu8(r0);
  const __m128i b = loadu8(r0 + 1);
  const __m128i c = loadu8(r1);
  const __m128i d = loadu8(r1 + 1);
  __m128i lo = _mm_add_epi16(_mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
                             _mm_add_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(d, zero)));
  __m128i hi = _mm_add_epi16(_mm_add_epi16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero)),
                             _mm_add_epi16(_mm_unpackhi_epi8(c, zero), _mm_unpackhi_epi8(d, zero)));
  lo = _mm_srli_epi16(_mm_add_epi16(lo, two), 2);
  hi = _mm_srli_epi16(_mm_add_epi16(hi, two), 2);
  return _mm_packus_epi16(lo, hi);
}

/// 8-wide variant (chroma); loads stay within [0, 8+fx) x rows touched.
inline __m128i predRow8(const std::uint8_t* r0, int ref_stride, int fx, int fy) {
  const std::uint8_t* r1 = r0 + ref_stride;
  if (fx == 0 && fy == 0) return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0));
  if (fx != 0 && fy == 0) {
    return _mm_avg_epu8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0)),
                        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + 1)));
  }
  if (fx == 0) {
    return _mm_avg_epu8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0)),
                        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1)));
  }
  const __m128i zero = _mm_setzero_si128();
  const __m128i two = _mm_set1_epi16(2);
  const __m128i a = _mm_unpacklo_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0)), zero);
  const __m128i b = _mm_unpacklo_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + 1)), zero);
  const __m128i c = _mm_unpacklo_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1)), zero);
  const __m128i d = _mm_unpacklo_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1 + 1)), zero);
  __m128i sum = _mm_add_epi16(_mm_add_epi16(a, b), _mm_add_epi16(c, d));
  sum = _mm_srli_epi16(_mm_add_epi16(sum, two), 2);
  return _mm_packus_epi16(sum, sum);
}

std::uint32_t xmmSad16xH(const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
                         int ref_stride, int h, int fx, int fy) {
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < h; ++y) {
    const __m128i c = loadu8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    const __m128i p = predRow16(ref + static_cast<std::ptrdiff_t>(y) * ref_stride, ref_stride, fx, fy);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(c, p));
  }
  acc = _mm_add_epi64(acc, _mm_srli_si128(acc, 8));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc));
}

void xmmInterp16xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                   int h, int fx, int fy) {
  for (int y = 0; y < h; ++y) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y) * dst_stride),
                     predRow16(src + static_cast<std::ptrdiff_t>(y) * src_stride, src_stride, fx, fy));
  }
}

void xmmInterp8xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                  int h, int fx, int fy) {
  for (int y = 0; y < h; ++y) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y) * dst_stride),
                     predRow8(src + static_cast<std::ptrdiff_t>(y) * src_stride, src_stride, fx, fy));
  }
}

void xmmAddRes8x8(std::uint8_t* dst, int dst_stride, const std::uint8_t* pred, int pred_stride,
                  const std::int16_t* res) {
  const __m128i zero = _mm_setzero_si128();
  for (int y = 0; y < 8; ++y) {
    const __m128i p = _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(pred + static_cast<std::ptrdiff_t>(y) * pred_stride)), zero);
    const __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(res + y * 8));
    // adds_epi16 saturation keeps overflows on the correct side of the
    // [0,255] clamp that packus applies (clampPel equivalence).
    const __m128i s = _mm_adds_epi16(p, r);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y) * dst_stride),
                     _mm_packus_epi16(s, s));
  }
}

void xmmDiff8x8(std::int16_t* res, const std::uint8_t* cur, int cur_stride,
                const std::uint8_t* pred, int pred_stride) {
  const __m128i zero = _mm_setzero_si128();
  for (int y = 0; y < 8; ++y) {
    const __m128i c = _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cur + static_cast<std::ptrdiff_t>(y) * cur_stride)), zero);
    const __m128i p = _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(pred + static_cast<std::ptrdiff_t>(y) * pred_stride)), zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(res + y * 8), _mm_sub_epi16(c, p));
  }
}

void xmmClampStoreRow(const std::int32_t* src, std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 4));
    const __m128i v16 = _mm_packs_epi32(a, b);
    const __m128i v8 = _mm_packus_epi16(v16, v16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), v8);
  }
  for (; i < n; ++i) {
    const std::int32_t v = src[i];
    dst[i] = static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
  }
}

// ------------------------------------------------------------------ motion

/// Two consecutive 16-byte rows in one 256-bit register.
inline __m256i load2rows(const std::uint8_t* r, int stride) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(r))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + stride)), 1);
}

/// Half-pel prediction for rows y and y+1 (r0 points at row y).
inline __m256i predRows16x2(const std::uint8_t* r0, int stride, int fx, int fy) {
  if (fx == 0 && fy == 0) return load2rows(r0, stride);
  if (fx != 0 && fy == 0) return _mm256_avg_epu8(load2rows(r0, stride), load2rows(r0 + 1, stride));
  if (fx == 0) return _mm256_avg_epu8(load2rows(r0, stride), load2rows(r0 + stride, stride));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i two = _mm256_set1_epi16(2);
  const __m256i a = load2rows(r0, stride);
  const __m256i b = load2rows(r0 + 1, stride);
  const __m256i c = load2rows(r0 + stride, stride);
  const __m256i d = load2rows(r0 + stride + 1, stride);
  __m256i lo = _mm256_add_epi16(
      _mm256_add_epi16(_mm256_unpacklo_epi8(a, zero), _mm256_unpacklo_epi8(b, zero)),
      _mm256_add_epi16(_mm256_unpacklo_epi8(c, zero), _mm256_unpacklo_epi8(d, zero)));
  __m256i hi = _mm256_add_epi16(
      _mm256_add_epi16(_mm256_unpackhi_epi8(a, zero), _mm256_unpackhi_epi8(b, zero)),
      _mm256_add_epi16(_mm256_unpackhi_epi8(c, zero), _mm256_unpackhi_epi8(d, zero)));
  lo = _mm256_srli_epi16(_mm256_add_epi16(lo, two), 2);
  hi = _mm256_srli_epi16(_mm256_add_epi16(hi, two), 2);
  // unpack/pack operate per lane, so byte positions survive the round trip.
  return _mm256_packus_epi16(lo, hi);
}

std::uint32_t avx2Sad16xH(const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
                          int ref_stride, int h, int fx, int fy) {
  __m256i acc = _mm256_setzero_si256();
  int y = 0;
  for (; y + 2 <= h; y += 2) {
    const __m256i c = load2rows(cur + static_cast<std::ptrdiff_t>(y) * cur_stride, cur_stride);
    const __m256i p = predRows16x2(ref + static_cast<std::ptrdiff_t>(y) * ref_stride, ref_stride, fx, fy);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, p));
  }
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi64(s, _mm_srli_si128(s, 8));
  std::uint32_t sad = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  if (y < h) {  // odd h tail
    sad += xmmSad16xH(cur + static_cast<std::ptrdiff_t>(y) * cur_stride, cur_stride,
                      ref + static_cast<std::ptrdiff_t>(y) * ref_stride, ref_stride, h - y, fx, fy);
  }
  return sad;
}

void avx2Interp16xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                    int h, int fx, int fy) {
  int y = 0;
  for (; y + 2 <= h; y += 2) {
    const __m256i p = predRows16x2(src + static_cast<std::ptrdiff_t>(y) * src_stride, src_stride, fx, fy);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y) * dst_stride),
                     _mm256_castsi256_si128(p));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y + 1) * dst_stride),
        _mm256_extracti128_si256(p, 1));
  }
  if (y < h) {
    xmmInterp16xH(dst + static_cast<std::ptrdiff_t>(y) * dst_stride, dst_stride,
                  src + static_cast<std::ptrdiff_t>(y) * src_stride, src_stride, h - y, fx, fy);
  }
}

void avx2AvgU8(const std::uint8_t* a, const std::uint8_t* b, std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_avg_epu8(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<std::uint8_t>((a[i] + b[i] + 1) / 2);
}

}  // namespace

const KernelTable* avx2Table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.backend = Backend::Avx2;
    k.name = "avx2";
    k.dct_forward = avx2DctForward;
    k.dct_inverse = avx2DctInverse;
    k.quantize = avx2Quantize;
    k.dequantize = avx2Dequantize;
    k.to_scan = avx2ToScan;
    k.from_scan = avx2FromScan;
    k.rle_encode = avx2RleEncode;
    k.sad_16xh = avx2Sad16xH;
    k.interp_16xh = avx2Interp16xH;
    k.interp_8xh = xmmInterp8xH;
    k.avg_u8 = avx2AvgU8;
    k.add_res_8x8 = xmmAddRes8x8;
    k.diff_8x8 = xmmDiff8x8;
    k.clamp_store_row = xmmClampStoreRow;
    k.vlc_get_block = vlcGetBlockFast;
    return k;
  }();
  return &t;
}

}  // namespace eclipse::media::kernels::detail

#else  // AVX2 not compiled in

namespace eclipse::media::kernels::detail {
const KernelTable* avx2Table() { return nullptr; }
}  // namespace eclipse::media::kernels::detail

#endif
