#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "eclipse/media/motion.hpp"
#include "eclipse/media/rle.hpp"
#include "eclipse/media/types.hpp"

namespace eclipse::media {

/// Byte-buffer writer for inter-stage packets.
///
/// The decoder/encoder stages exchange *data packets* over Eclipse streams
/// (Section 4.2: "coprocessors operate on logical units of data ...
/// encapsulated in a data packet"). Packets are byte-serialised so the same
/// representation flows through the functional KPN FIFOs and the simulated
/// on-chip stream buffers.
///
/// Multi-byte fields (`u16`, `i16`, `u32`) are copied in host byte order.
/// Media packets never leave the process — they live only in KPN FIFOs and
/// simulated stream buffers, written and read by the same host — so no
/// byte order is fixed, and bulk copies of int16 arrays produce the same
/// bytes as per-field writes.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void i16(std::int16_t v) { raw(&v, sizeof v); }
  void bytes(std::span<const std::uint8_t> v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }

  /// Resets for reuse, keeping the allocation (hot-path serialisation).
  void clear() { buf_.clear(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Reader matching ByteWriter. Throws std::runtime_error on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::int16_t i16() { return take<std::int16_t>(); }
  void bytes(std::span<std::uint8_t> out) {
    check(out.size());
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
  }

  [[nodiscard]] bool atEnd() const { return pos_ >= data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T take() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void check(std::size_t n) const {
    if (pos_ + n > data_.size()) throw std::runtime_error("ByteReader: packet underrun");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Tags framing every packet on an inter-stage stream.
enum class PacketTag : std::uint8_t {
  Seq = 1,    // sequence header: once per stream
  Pic = 2,    // picture header: once per coded picture
  Mb = 3,     // one macroblock payload (layout depends on the stream kind)
  Eos = 4,    // end of stream
  Resync = 5, // in-band resync marker: discard stage state, realign at the
              // next picture boundary (fault-recovery protocol, DESIGN §9)
};

/// Sequence-level parameters, carried in the elementary stream and in the
/// first packet of every inter-stage stream.
struct SeqHeader {
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::uint8_t gop_n = 9;
  std::uint8_t gop_m = 3;
  std::uint8_t qscale = 8;
  std::uint16_t frame_count = 0;
  std::uint8_t scan_order = 0;        // 0 zigzag, 1 alternate
  std::uint8_t use_intra_matrix = 1;  // weighting matrix for intra blocks
  bool operator==(const SeqHeader&) const = default;
};

/// Picture-level parameters (coded order).
struct PicHeader {
  FrameType type = FrameType::I;
  std::uint16_t temporal_ref = 0;  // display-order index
  std::uint8_t qscale = 8;
  bool operator==(const PicHeader&) const = default;
};

/// VLD → RLSQ payload: run/level pairs for each coded block of one MB.
/// `intra` selects the quantiser matrix downstream; `qscale` is the
/// effective (per-picture) quantiser scale, so rate-controlled streams
/// dequantise correctly without consulting picture state.
struct MbCoefs {
  std::uint8_t cbp = 0;
  std::uint8_t intra = 0;
  std::uint8_t qscale = 8;
  std::array<std::vector<rle::RunLevel>, kBlocksPerMacroblock> blocks;
};

/// RLSQ → DCT and DCT → MC payload: dense blocks (uncoded blocks zero).
/// `intra` rides along so the encoder-side quantiser can pick its matrix.
struct MbBlocks {
  std::uint8_t cbp = 0;
  std::uint8_t intra = 0;
  std::array<Block, kBlocksPerMacroblock> blocks{};
};

/// MC → output payload: reconstructed 4:2:0 macroblock pixels (384 bytes).
struct MbPixels {
  motion::LumaMb y{};
  motion::ChromaMb cb{};
  motion::ChromaMb cr{};
  bool operator==(const MbPixels&) const = default;
};

// --- serialisation -------------------------------------------------------

void put(ByteWriter& w, const SeqHeader& v);
void put(ByteWriter& w, const PicHeader& v);
void put(ByteWriter& w, const MbHeader& v);
void put(ByteWriter& w, const MbCoefs& v);
void put(ByteWriter& w, const MbBlocks& v);
void put(ByteWriter& w, const MbPixels& v);

void get(ByteReader& r, SeqHeader& v);
void get(ByteReader& r, PicHeader& v);
void get(ByteReader& r, MbHeader& v);
void get(ByteReader& r, MbCoefs& v);
void get(ByteReader& r, MbBlocks& v);
void get(ByteReader& r, MbPixels& v);

/// Serialised sizes of the fixed-size packets (for buffer dimensioning).
inline constexpr std::size_t kMbPixelsBytes = 384;
inline constexpr std::size_t kMbBlocksBytes = 2 + 6 * 64 * 2;

/// Convenience: serialises a tagged packet into a fresh byte vector.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> packPacket(PacketTag tag, const T& payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(tag));
  put(w, payload);
  return w.take();
}

/// Serialises a tagged packet into a reusable writer (cleared first) and
/// returns a view of the bytes — the allocation-free variant of packPacket
/// for hot paths. The span is valid until the writer is next touched.
template <typename T>
[[nodiscard]] std::span<const std::uint8_t> packPacketInto(ByteWriter& w, PacketTag tag,
                                                           const T& payload) {
  w.clear();
  w.u8(static_cast<std::uint8_t>(tag));
  put(w, payload);
  return w.data();
}

/// Serialises a bare tag (Eos).
[[nodiscard]] inline std::vector<std::uint8_t> packTag(PacketTag tag) {
  return {static_cast<std::uint8_t>(tag)};
}

}  // namespace eclipse::media
