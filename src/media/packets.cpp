#include "eclipse/media/packets.hpp"

#include "eclipse/media/bitstream.hpp"

namespace eclipse::media {

void put(ByteWriter& w, const SeqHeader& v) {
  w.u16(v.width);
  w.u16(v.height);
  w.u8(v.gop_n);
  w.u8(v.gop_m);
  w.u8(v.qscale);
  w.u16(v.frame_count);
  w.u8(v.scan_order);
  w.u8(v.use_intra_matrix);
}

void get(ByteReader& r, SeqHeader& v) {
  v.width = r.u16();
  v.height = r.u16();
  v.gop_n = r.u8();
  v.gop_m = r.u8();
  v.qscale = r.u8();
  v.frame_count = r.u16();
  v.scan_order = r.u8();
  v.use_intra_matrix = r.u8();
}

void put(ByteWriter& w, const PicHeader& v) {
  w.u8(static_cast<std::uint8_t>(v.type));
  w.u16(v.temporal_ref);
  w.u8(v.qscale);
}

void get(ByteReader& r, PicHeader& v) {
  v.type = static_cast<FrameType>(r.u8());
  v.temporal_ref = r.u16();
  v.qscale = r.u8();
}

void put(ByteWriter& w, const MbHeader& v) {
  w.u16(v.mb_x);
  w.u16(v.mb_y);
  w.u8(static_cast<std::uint8_t>(v.mode));
  w.i16(v.mv_fwd.x);
  w.i16(v.mv_fwd.y);
  w.i16(v.mv_bwd.x);
  w.i16(v.mv_bwd.y);
  w.u8(v.cbp);
  w.u8(v.qscale);
}

void get(ByteReader& r, MbHeader& v) {
  v.mb_x = r.u16();
  v.mb_y = r.u16();
  v.mode = static_cast<MbMode>(r.u8());
  v.mv_fwd.x = r.i16();
  v.mv_fwd.y = r.i16();
  v.mv_bwd.x = r.i16();
  v.mv_bwd.y = r.i16();
  v.cbp = r.u8();
  v.qscale = r.u8();
}

void put(ByteWriter& w, const MbCoefs& v) {
  w.u8(v.cbp);
  w.u8(v.intra);
  w.u8(v.qscale);
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    if ((v.cbp & (1u << b)) == 0) continue;
    const auto& pairs = v.blocks[static_cast<std::size_t>(b)];
    w.u16(static_cast<std::uint16_t>(pairs.size()));
    for (const auto& p : pairs) {
      w.u8(p.run);
      w.i16(p.level);
    }
  }
}

void get(ByteReader& r, MbCoefs& v) {
  v.cbp = r.u8();
  v.intra = r.u8();
  v.qscale = r.u8();
  for (int b = 0; b < kBlocksPerMacroblock; ++b) {
    auto& pairs = v.blocks[static_cast<std::size_t>(b)];
    pairs.clear();
    if ((v.cbp & (1u << b)) == 0) continue;
    const std::uint16_t n = r.u16();
    if (n > rle::RunLevels::kCapacity) {
      throw BitstreamError("MbCoefs: more than 64 run/level pairs in a block");
    }
    for (std::uint16_t i = 0; i < n; ++i) {
      rle::RunLevel p;
      p.run = r.u8();
      p.level = r.i16();
      pairs.push_back(p);
    }
  }
}

// The 6x64 coefficients are contiguous int16 in host byte order, exactly
// the bytes 384 ByteWriter::i16 calls would write, so they move as one copy.
static_assert(sizeof(MbBlocks::blocks) == kMbBlocksBytes - 2);

void put(ByteWriter& w, const MbBlocks& v) {
  w.u8(v.cbp);
  w.u8(v.intra);
  w.bytes({reinterpret_cast<const std::uint8_t*>(v.blocks.data()), sizeof v.blocks});
}

void get(ByteReader& r, MbBlocks& v) {
  v.cbp = r.u8();
  v.intra = r.u8();
  r.bytes({reinterpret_cast<std::uint8_t*>(v.blocks.data()), sizeof v.blocks});
}

void put(ByteWriter& w, const MbPixels& v) {
  w.bytes(v.y);
  w.bytes(v.cb);
  w.bytes(v.cr);
}

void get(ByteReader& r, MbPixels& v) {
  r.bytes(v.y);
  r.bytes(v.cb);
  r.bytes(v.cr);
}

}  // namespace eclipse::media
