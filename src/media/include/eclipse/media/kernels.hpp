#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/quant.hpp"
#include "eclipse/media/rle.hpp"
#include "eclipse/media/scan.hpp"
#include "eclipse/media/types.hpp"

namespace eclipse::media::kernels {

/// Backends for the media substrate. `Scalar` is the original C++ code
/// kept verbatim — the oracle `Avx2`, the one vector backend, must match
/// bit for bit (DESIGN.md §11); a host without AVX2 runs `Scalar`.
/// Backends only change host wall time; the simulated cost charged by the
/// shells is backend-invariant because the timing model consumes
/// functional outputs (symbol/pair/block counts), never host time.
enum class Backend : int { Scalar = 0, Avx2 = 1 };

inline constexpr int kBackendCount = 2;

/// One entry per vectorized kernel. Raw-pointer signatures carry explicit
/// strides so the same SAD/interp primitives serve motion.cpp (frame
/// planes), mc.cpp (fetched windows) and codec.cpp (MbPixels arrays).
struct KernelTable {
  Backend backend = Backend::Scalar;
  const char* name = "scalar";

  // 8x8 fixed-point DCT-II, bit-identical kShift/kRound arithmetic.
  void (*dct_forward)(const Block& in, Block& out) = nullptr;
  void (*dct_inverse)(const Block& in, Block& out) = nullptr;

  // Quantizer (qscale already validated by the public wrapper).
  void (*quantize)(const Block& coefs, Block& levels, int qscale,
                   const quant::Matrix& m) = nullptr;
  void (*dequantize)(const Block& levels, Block& coefs, int qscale,
                     const quant::Matrix& m) = nullptr;

  // Coefficient scan reorder for the two built-in orders.
  void (*to_scan)(const Block& raster, Block& scanned, scan::Order order) = nullptr;
  void (*from_scan)(const Block& scanned, Block& raster, scan::Order order) = nullptr;

  // Run-length encode of a scanned block (clears `out` first).
  void (*rle_encode)(const Block& scanned, rle::RunLevels& out) = nullptr;

  // 16-wide SAD / half-pel interpolation over rows that are fully inside
  // the buffer (motion.cpp replicates frame edges with gatherClamped first).
  // fx/fy are the half-pel fraction bits; reads touch [0, 15+fx] x [0, h-1+fy].
  std::uint32_t (*sad_16xh)(const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
                            int ref_stride, int h, int fx, int fy) = nullptr;
  void (*interp_16xh)(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                      int h, int fx, int fy) = nullptr;
  void (*interp_8xh)(std::uint8_t* dst, int dst_stride, const std::uint8_t* src, int src_stride,
                     int h, int fx, int fy) = nullptr;

  // out[i] = (a[i] + b[i] + 1) / 2 (bidirectional average).
  void (*avg_u8)(const std::uint8_t* a, const std::uint8_t* b, std::uint8_t* out,
                 std::size_t n) = nullptr;

  // Residual math on 8x8 tiles of pixel arrays.
  void (*add_res_8x8)(std::uint8_t* dst, int dst_stride, const std::uint8_t* pred,
                      int pred_stride, const std::int16_t* res) = nullptr;
  void (*diff_8x8)(std::int16_t* res, const std::uint8_t* cur, int cur_stride,
                   const std::uint8_t* pred, int pred_stride) = nullptr;

  // dst[i] = clamp(src[i], 0, 255) — row stores for the video generator.
  void (*clamp_store_row)(const std::int32_t* src, std::uint8_t* dst, std::size_t n) = nullptr;

  // Decodes one block's run/level pairs up to and including EOB
  // (vlc::getBlock semantics, including exception behaviour and the exact
  // number of bits consumed on the throw path).
  void (*vlc_get_block)(BitReader& br, rle::RunLevels& out) = nullptr;
};

namespace detail {
extern const KernelTable* g_active;
}

/// The currently selected backend's kernel table. One pointer load — safe
/// and cheap to call per block.
[[nodiscard]] inline const KernelTable& active() noexcept { return *detail::g_active; }

/// Currently selected backend.
[[nodiscard]] Backend backend() noexcept;

/// Human-readable backend name ("scalar", "avx2").
[[nodiscard]] const char* backendName(Backend b) noexcept;

/// True when the backend is compiled in AND supported by this CPU.
[[nodiscard]] bool available(Backend b) noexcept;

/// All backends usable on this machine (always contains Scalar).
[[nodiscard]] std::vector<Backend> availableBackends();

/// Programmatic override; throws std::invalid_argument if `b` is not
/// available on this machine.
void setBackend(Backend b);

/// Parses "scalar" | "avx2" (case-sensitive); throws
/// std::invalid_argument on anything else.
[[nodiscard]] Backend parseBackendName(const std::string& name);

/// Re-applies the startup selection policy: ECLIPSE_SIMD if set and
/// available (unknown/unavailable values warn to stderr and are ignored),
/// otherwise the best available backend.
void resetBackendFromEnv();

}  // namespace eclipse::media::kernels
