// SSE2 backend for the media kernels. x86-64 makes SSE2 architectural, so
// this TU needs no special compile flags; runtime gating happens in
// kernels.cpp. Every kernel is bit-identical to the scalar oracle — see
// DESIGN.md §11 for the per-kernel arguments (accumulator width proofs,
// exact-division trick, saturation-as-clamp equivalences).

#include "kernels_impl.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <bit>

namespace eclipse::media::kernels::detail {

namespace {

// ----------------------------------------------------------------- tables

struct DctTabs {
  // Row-pass coefficient pairs for pmaddwd, [x-pair][lane]:
  // fwd_pairs[p][2u+e] = K[u][2p+e] (u = output lane, e = pair element).
  alignas(16) std::int16_t fwd_pairs[4][16];
  // inv_pairs[p][2x+e] = K[2p+e][x] (x = output lane, summing over u).
  alignas(16) std::int16_t inv_pairs[4][16];
  // Column-pass broadcast factors: fwd out[v] uses colF[v][y] = K[v][y],
  // inverse out[y] uses colI[y][v] = K[v][y].
  alignas(16) std::int32_t colF[8][8];
  alignas(16) std::int32_t colI[8][8];

  DctTabs() {
    const DctK t = computeDctK();
    for (int p = 0; p < 4; ++p) {
      for (int l = 0; l < 8; ++l) {
        fwd_pairs[p][2 * l] = static_cast<std::int16_t>(t.k[static_cast<std::size_t>(l)]
                                                           [static_cast<std::size_t>(2 * p)]);
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

// ---------------------------------------------------------------- helpers

/// Low 32 bits of a 32x32 multiply (pmulld is SSE4.1; emulate with two
/// pmuludq — the low half of the product is sign-agnostic).
inline __m128i mullo32(__m128i a, __m128i b) {
  const __m128i even = _mm_mul_epu32(a, b);
  const __m128i odd = _mm_mul_epu32(_mm_srli_si128(a, 4), _mm_srli_si128(b, 4));
  return _mm_unpacklo_epi32(_mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
                            _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
}

/// Broadcasts the int16 pair (r[0], r[1]) into every 32-bit lane, matching
/// the pmaddwd operand layout.
inline __m128i broadcastPair(const std::int16_t* r) {
  const std::uint32_t bits = static_cast<std::uint16_t>(r[0]) |
                             (static_cast<std::uint32_t>(static_cast<std::uint16_t>(r[1])) << 16);
  return _mm_set1_epi32(static_cast<int>(bits));
}

/// One row of the row pass: 8 outputs = (pair-MAC + kDctRound) >> kDctShift.
inline void dctRowPass(const std::int16_t* in_row, const std::int16_t pairs[4][16],
                       std::int32_t* tmp_row) {
  const __m128i round = _mm_set1_epi32(kDctRound);
  __m128i acc0 = round;
  __m128i acc1 = round;
  for (int p = 0; p < 4; ++p) {
    const __m128i pr = broadcastPair(in_row + 2 * p);
    acc0 = _mm_add_epi32(acc0,
                         _mm_madd_epi16(pr, _mm_load_si128(reinterpret_cast<const __m128i*>(
                                                 &pairs[p][0]))));
    acc1 = _mm_add_epi32(acc1,
                         _mm_madd_epi16(pr, _mm_load_si128(reinterpret_cast<const __m128i*>(
                                                 &pairs[p][8]))));
  }
  _mm_store_si128(reinterpret_cast<__m128i*>(tmp_row), _mm_srai_epi32(acc0, kDctShift));
  _mm_store_si128(reinterpret_cast<__m128i*>(tmp_row + 4), _mm_srai_epi32(acc1, kDctShift));
}

/// One output row of the column pass: broadcast-factor MACs over the tmp
/// rows, then (acc + kDctRound) >> kDctShift and clamp16 via packs_epi32
/// (signed saturation IS clamp16).
inline void dctColPass(const std::int32_t* tmp, const std::int32_t* factors,
                       std::int16_t* out_row) {
  const __m128i round = _mm_set1_epi32(kDctRound);
  __m128i acc0 = round;
  __m128i acc1 = round;
  for (int t = 0; t < 8; ++t) {
    const __m128i f = _mm_set1_epi32(factors[t]);
    const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(tmp + t * 8));
    const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(tmp + t * 8 + 4));
    acc0 = _mm_add_epi32(acc0, mullo32(lo, f));
    acc1 = _mm_add_epi32(acc1, mullo32(hi, f));
  }
  acc0 = _mm_srai_epi32(acc0, kDctShift);
  acc1 = _mm_srai_epi32(acc1, kDctShift);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out_row), _mm_packs_epi32(acc0, acc1));
}

}  // namespace

void sse2DctForward(const Block& in, Block& out) {
  alignas(16) std::int32_t tmp[64];
  for (int y = 0; y < 8; ++y) dctRowPass(&in[static_cast<std::size_t>(y * 8)], g_dct.fwd_pairs, tmp + y * 8);
  for (int v = 0; v < 8; ++v) dctColPass(tmp, g_dct.colF[v], &out[static_cast<std::size_t>(v * 8)]);
}

void sse2DctInverse(const Block& in, Block& out) {
  alignas(16) std::int32_t tmp[64];
  for (int v = 0; v < 8; ++v) dctRowPass(&in[static_cast<std::size_t>(v * 8)], g_dct.inv_pairs, tmp + v * 8);
  for (int y = 0; y < 8; ++y) dctColPass(tmp, g_dct.colI[y], &out[static_cast<std::size_t>(y * 8)]);
}

// ------------------------------------------------------------------- quant

namespace {

/// Exact n/step for 0 <= n < 2^20, 0 < step < 2^13 via double division:
/// quotients are either exactly representable or at least 2^-13 away from
/// an integer while the rounding error is below 2^-32, so truncation equals
/// integer division.
inline __m128i div4(__m128i n, __m128i step) {
  const __m128d n_lo = _mm_cvtepi32_pd(n);
  const __m128d n_hi = _mm_cvtepi32_pd(_mm_srli_si128(n, 8));
  const __m128d s_lo = _mm_cvtepi32_pd(step);
  const __m128d s_hi = _mm_cvtepi32_pd(_mm_srli_si128(step, 8));
  const __m128i q_lo = _mm_cvttpd_epi32(_mm_div_pd(n_lo, s_lo));
  const __m128i q_hi = _mm_cvttpd_epi32(_mm_div_pd(n_hi, s_hi));
  return _mm_unpacklo_epi64(q_lo, q_hi);
}

}  // namespace

void sse2Quantize(const Block& coefs, Block& levels, int qscale, const quant::Matrix& m) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i qs = _mm_set1_epi16(static_cast<short>(qscale));
  const __m128i lv_max = _mm_set1_epi16(2047);
  const __m128i lv_min = _mm_set1_epi16(-2047);
  for (int i = 0; i < 64; i += 8) {
    const __m128i c16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&coefs[static_cast<std::size_t>(i)]));
    const __m128i m8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&m[static_cast<std::size_t>(i)]));
    const __m128i step16 = _mm_mullo_epi16(_mm_unpacklo_epi8(m8, zero), qs);  // <= 7905

    const __m128i csign = _mm_cmpgt_epi16(zero, c16);
    __m128i q[2];
    for (int half = 0; half < 2; ++half) {
      const __m128i c32 = half == 0 ? _mm_unpacklo_epi16(c16, csign) : _mm_unpackhi_epi16(c16, csign);
      const __m128i s32 = half == 0 ? _mm_unpacklo_epi16(step16, zero) : _mm_unpackhi_epi16(step16, zero);
      const __m128i sign = _mm_srai_epi32(c32, 31);
      const __m128i absc = _mm_sub_epi32(_mm_xor_si128(c32, sign), sign);
      // n = |coef|*16 + step/2; lv = sign * (n / step)
      const __m128i n = _mm_add_epi32(_mm_slli_epi32(absc, 4), _mm_srli_epi32(s32, 1));
      const __m128i qq = div4(n, s32);
      q[half] = _mm_sub_epi32(_mm_xor_si128(qq, sign), sign);
    }
    // packs saturates to +-32767/-32768 first; the tighter +-2047 clamp
    // below makes the chain equal to clampLevel on the exact quotient.
    __m128i lv = _mm_packs_epi32(q[0], q[1]);
    lv = _mm_min_epi16(lv, lv_max);
    lv = _mm_max_epi16(lv, lv_min);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&levels[static_cast<std::size_t>(i)]), lv);
  }
}

void sse2Dequantize(const Block& levels, Block& coefs, int qscale, const quant::Matrix& m) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i qs = _mm_set1_epi16(static_cast<short>(qscale));
  const __m128i fifteen = _mm_set1_epi32(15);
  for (int i = 0; i < 64; i += 8) {
    const __m128i l16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&levels[static_cast<std::size_t>(i)]));
    const __m128i m8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&m[static_cast<std::size_t>(i)]));
    const __m128i step16 = _mm_mullo_epi16(_mm_unpacklo_epi8(m8, zero), qs);
    const __m128i lsign = _mm_cmpgt_epi16(zero, l16);
    __m128i c[2];
    for (int half = 0; half < 2; ++half) {
      const __m128i l32 = half == 0 ? _mm_unpacklo_epi16(l16, lsign) : _mm_unpackhi_epi16(l16, lsign);
      const __m128i s32 = half == 0 ? _mm_unpacklo_epi16(step16, zero) : _mm_unpackhi_epi16(step16, zero);
      const __m128i prod = mullo32(l32, s32);  // |prod| < 2^28, exact
      // Truncate-toward-zero /16: add 15 to negatives, then >> 4.
      const __m128i sign = _mm_srai_epi32(prod, 31);
      c[half] = _mm_srai_epi32(_mm_add_epi32(prod, _mm_and_si128(sign, fifteen)), 4);
    }
    // packs_epi32 saturation == clampCoef.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&coefs[static_cast<std::size_t>(i)]),
                     _mm_packs_epi32(c[0], c[1]));
  }
}

// -------------------------------------------------------------------- rle

void sse2RleEncode(const Block& scanned, rle::RunLevels& out) {
  out.clear();
  const __m128i zero = _mm_setzero_si128();
  std::uint64_t nonzero = 0;
  for (int i = 0; i < 64; i += 8) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&scanned[static_cast<std::size_t>(i)]));
    const __m128i z = _mm_cmpeq_epi16(v, zero);
    const int zb = _mm_movemask_epi8(_mm_packs_epi16(z, z)) & 0xFF;
    nonzero |= static_cast<std::uint64_t>(~zb & 0xFF) << i;
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

// ------------------------------------------------------------------ motion

namespace {

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

}  // namespace

std::uint32_t sse2Sad16xH(const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
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

void sse2Interp16xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                    int h, int fx, int fy) {
  for (int y = 0; y < h; ++y) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y) * dst_stride),
                     predRow16(src + static_cast<std::ptrdiff_t>(y) * src_stride, src_stride, fx, fy));
  }
}

void sse2Interp8xH(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                   int h, int fx, int fy) {
  for (int y = 0; y < h; ++y) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + static_cast<std::ptrdiff_t>(y) * dst_stride),
                     predRow8(src + static_cast<std::ptrdiff_t>(y) * src_stride, src_stride, fx, fy));
  }
}

void sse2AvgU8(const std::uint8_t* a, const std::uint8_t* b, std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_avg_epu8(loadu8(a + i), loadu8(b + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<std::uint8_t>((a[i] + b[i] + 1) / 2);
}

void sse2AddRes8x8(std::uint8_t* dst, int dst_stride, const std::uint8_t* pred, int pred_stride,
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

void sse2Diff8x8(std::int16_t* res, const std::uint8_t* cur, int cur_stride,
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

void sse2ClampStoreRow(const std::int32_t* src, std::uint8_t* dst, std::size_t n) {
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

const KernelTable* sse2Table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.backend = Backend::Sse2;
    k.name = "sse2";
    k.dct_forward = sse2DctForward;
    k.dct_inverse = sse2DctInverse;
    k.quantize = sse2Quantize;
    k.dequantize = sse2Dequantize;
    k.to_scan = scalarToScan;  // no pshufb in SSE2; scan stays scalar
    k.from_scan = scalarFromScan;
    k.rle_encode = sse2RleEncode;
    k.sad_16xh = sse2Sad16xH;
    k.interp_16xh = sse2Interp16xH;
    k.interp_8xh = sse2Interp8xH;
    k.avg_u8 = sse2AvgU8;
    k.add_res_8x8 = sse2AddRes8x8;
    k.diff_8x8 = sse2Diff8x8;
    k.clamp_store_row = sse2ClampStoreRow;
    k.vlc_get_block = vlcGetBlockFast;
    return k;
  }();
  return &t;
}

}  // namespace eclipse::media::kernels::detail

#else  // non-x86: backend not compiled in

namespace eclipse::media::kernels::detail {
const KernelTable* sse2Table() { return nullptr; }
}  // namespace eclipse::media::kernels::detail

#endif
