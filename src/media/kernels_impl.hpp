#pragma once

// Internal header shared by the media kernel backends (not installed).
// Holds the per-backend table accessors, the fixed-point DCT constants,
// the scan tables (constexpr so SIMD shuffle masks can be built from them
// at compile time) and the table-driven VLD the AVX2 table borrows.

#include <array>
#include <cmath>
#include <cstdint>

#include "eclipse/media/kernels.hpp"

namespace eclipse::media::kernels::detail {

// ------------------------------------------------------------------ tables

inline constexpr int kDctShift = 13;  // fixed-point fraction bits
inline constexpr std::int32_t kDctRound = 1 << (kDctShift - 1);

/// K[u][x] = round( (alpha(u)/2) * cos((2x+1) u pi / 16) * 2^kDctShift ) —
/// the exact table the scalar DCT has always used (dct.cpp since PR 1).
struct DctK {
  std::array<std::array<std::int32_t, 8>, 8> k{};
};

inline DctK computeDctK() {
  DctK t;
  for (int u = 0; u < 8; ++u) {
    const double alpha = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
    for (int x = 0; x < 8; ++x) {
      const double c = (alpha / 2.0) * std::cos((2.0 * x + 1.0) * u * M_PI / 16.0);
      t.k[static_cast<std::size_t>(u)][static_cast<std::size_t>(x)] =
          static_cast<std::int32_t>(std::lround(c * (1 << kDctShift)));
    }
  }
  return t;
}

// ISO/IEC 13818-2 Figure 7-2: zigzag scanning order.
inline constexpr std::array<int, 64> kZigzagTable = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// ISO/IEC 13818-2 Figure 7-3: alternate scanning order.
inline constexpr std::array<int, 64> kAlternateTable = {
    0,  8,  16, 24, 1,  9,  2,  10, 17, 25, 32, 40, 48, 56, 57, 49,
    41, 33, 26, 18, 3,  11, 4,  12, 19, 27, 34, 42, 50, 58, 35, 43,
    51, 59, 20, 28, 5,  13, 6,  14, 21, 29, 36, 44, 52, 60, 37, 45,
    53, 61, 22, 30, 7,  15, 23, 31, 38, 46, 54, 62, 39, 47, 55, 63};

/// Destination-indexed permutation over the 64 int16 elements:
/// dest[i] = src[perm[i]]. `toScan` uses the table directly; `fromScan`
/// scatters, which as a gather is the inverse permutation.
inline constexpr std::array<int, 64> scanPerm(const std::array<int, 64>& t, bool inverse) {
  std::array<int, 64> perm{};
  for (int i = 0; i < 64; ++i) {
    if (!inverse) {
      perm[static_cast<std::size_t>(i)] = t[static_cast<std::size_t>(i)];
    } else {
      perm[static_cast<std::size_t>(t[static_cast<std::size_t>(i)])] = i;
    }
  }
  return perm;
}

// ------------------------------------------------------- backend accessors

/// Accessors use function-local statics so cross-TU dynamic-init order
/// cannot hand out a half-built table. A null return means "not compiled
/// for this architecture"; runtime CPU support is checked separately in
/// kernels.cpp.
[[nodiscard]] const KernelTable& scalarTable();
[[nodiscard]] const KernelTable* avx2Table();

/// Table-driven multi-bit VLD (kernels_scalar.cpp): classifies symbols from
/// an 8-bit peek and decodes Exp-Golomb escapes from a 32-bit peek. Falls
/// back to the bitwise oracle near the end of the stream so the number of bits
/// consumed on every path — including throws — matches the oracle exactly
/// (fault recovery resumes parsing from the same BitReader position).
void vlcGetBlockFast(BitReader& br, rle::RunLevels& out);

}  // namespace eclipse::media::kernels::detail
