#include "eclipse/app/kpn_media.hpp"

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/packets.hpp"

namespace eclipse::app {

namespace {

using media::PacketTag;

/// Length-framed packet transport over KPN byte FIFOs — the same wire
/// format as coproc::packet_io, with Kahn blocking semantics.
sim::Task<void> kpnWrite(kpn::ByteFifo& fifo, std::span<const std::uint8_t> packet) {
  const auto len = static_cast<std::uint32_t>(packet.size());
  std::uint8_t hdr[4];
  std::memcpy(hdr, &len, sizeof len);
  co_await fifo.write(hdr);
  co_await fifo.write(packet);
}

/// Returns the packet (tag + payload) or nullopt at end of stream.
sim::Task<std::optional<std::vector<std::uint8_t>>> kpnRead(kpn::ByteFifo& fifo) {
  std::uint8_t hdr[4];
  if (!co_await fifo.readAll(hdr)) co_return std::nullopt;
  std::uint32_t len = 0;
  std::memcpy(&len, hdr, sizeof len);
  std::vector<std::uint8_t> pkt(len);
  if (!co_await fifo.readAll(pkt)) throw std::runtime_error("kpn packet truncated");
  co_return pkt;
}

PacketTag tagOf(const std::vector<std::uint8_t>& pkt) { return static_cast<PacketTag>(pkt.at(0)); }

/// Reads `fifo` until its producer closes it. A task that ends on one
/// input's Eos drains its other inputs this way, so every producer's last
/// write completes and every edge ends empty.
sim::Task<void> drain(kpn::ByteFifo& fifo) {
  while (const auto pkt = co_await kpnRead(fifo)) {
  }
}

std::span<const std::uint8_t> payload(const std::vector<std::uint8_t>& pkt) {
  return std::span<const std::uint8_t>(pkt).subspan(1);
}

}  // namespace

KpnDecoder::KpnDecoder(std::vector<std::uint8_t> bitstream, std::size_t fifo_bytes) {
  // --- VLD: parse the elementary stream into coef + header packets ---
  const int vld = graph_.addTask("vld", [bits = std::move(bitstream)](kpn::TaskContext& ctx)
          -> sim::Task<void> {
    media::BitReader br(bits);
    const media::SeqHeader seq = media::stages::parseSeqHeader(br);
    const auto seq_pkt = media::packPacket(PacketTag::Seq, seq);
    co_await kpnWrite(ctx.out(0), seq_pkt);
    co_await kpnWrite(ctx.out(1), seq_pkt);
    const int mb_count = (seq.width / media::kMbSize) * (seq.height / media::kMbSize);
    const int mb_w = seq.width / media::kMbSize;
    for (int pic = 0; pic < seq.frame_count; ++pic) {
      const media::PicHeader ph = media::stages::parsePicHeader(br);
      const auto pic_pkt = media::packPacket(PacketTag::Pic, ph);
      co_await kpnWrite(ctx.out(0), pic_pkt);
      co_await kpnWrite(ctx.out(1), pic_pkt);
      for (int mb = 0; mb < mb_count; ++mb) {
        auto parsed = media::stages::parseMb(br, ph.type, static_cast<std::uint16_t>(mb % mb_w),
                                             static_cast<std::uint16_t>(mb / mb_w), ph.qscale);
        co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, parsed.coefs));
        co_await kpnWrite(ctx.out(1), media::packPacket(PacketTag::Mb, parsed.header));
      }
    }
    const auto eos = media::packTag(PacketTag::Eos);
    co_await kpnWrite(ctx.out(0), eos);
    co_await kpnWrite(ctx.out(1), eos);
  });

  // --- RLSQ: run-length decode + inverse scan + dequantise ---
  const int rlsq = graph_.addTask("rlsq", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    media::SeqHeader seq;
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      if (tagOf(*pkt) == PacketTag::Mb) {
        media::MbCoefs coefs;
        media::ByteReader r(payload(*pkt));
        media::get(r, coefs);
        media::MbBlocks out;
        media::stages::rlsqDecode(coefs, coefs.intra != 0, seq, out);
        out.intra = coefs.intra;
        co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, out));
        continue;
      }
      if (tagOf(*pkt) == PacketTag::Seq) {
        media::ByteReader r(payload(*pkt));
        media::get(r, seq);
      }
      co_await kpnWrite(ctx.out(0), *pkt);
      if (tagOf(*pkt) == PacketTag::Eos) co_return;
    }
  });

  // --- inverse DCT ---
  const int idct = graph_.addTask("idct", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      if (tagOf(*pkt) == PacketTag::Mb) {
        media::MbBlocks in, out;
        media::ByteReader r(payload(*pkt));
        media::get(r, in);
        media::stages::idctMb(in, out);
        co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, out));
        continue;
      }
      co_await kpnWrite(ctx.out(0), *pkt);
      if (tagOf(*pkt) == PacketTag::Eos) co_return;
    }
  });

  // --- MC: prediction + reconstruction (references kept as local frames,
  // the functional analogue of the off-chip frame store) ---
  const int mc = graph_.addTask("mc", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    media::SeqHeader seq;
    media::PicHeader pic;
    media::Frame refs[3];
    int slot_prev = -1, slot_last = -1, write_slot = -1;
    bool prev_pic_ref = false;
    int mb_index = 0;
    while (auto hdr_pkt = co_await kpnRead(ctx.in(0))) {
      const auto tag = tagOf(*hdr_pkt);
      if (tag == PacketTag::Eos) {
        co_await drain(ctx.in(1));
        co_await kpnWrite(ctx.out(0), *hdr_pkt);
        co_return;
      }
      auto res_pkt = co_await kpnRead(ctx.in(1));
      if (!res_pkt || tagOf(*res_pkt) != tag) {
        throw std::runtime_error("kpn mc: streams out of step");
      }
      switch (tag) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*hdr_pkt));
          media::get(r, seq);
          for (auto& f : refs) f = media::Frame(seq.width, seq.height);
          co_await kpnWrite(ctx.out(0), *hdr_pkt);
          break;
        }
        case PacketTag::Pic: {
          media::ByteReader r(payload(*hdr_pkt));
          media::get(r, pic);
          if (prev_pic_ref) {
            slot_prev = slot_last;
            slot_last = write_slot;
          }
          const bool is_ref = pic.type != media::FrameType::B;
          if (is_ref) {
            for (int s = 0; s < 3; ++s) {
              if (s != slot_prev && s != slot_last) {
                write_slot = s;
                break;
              }
            }
          }
          prev_pic_ref = is_ref;
          mb_index = 0;
          co_await kpnWrite(ctx.out(0), *hdr_pkt);
          break;
        }
        case PacketTag::Mb: {
          media::MbHeader h;
          media::MbBlocks residual;
          media::ByteReader rh(payload(*hdr_pkt));
          media::get(rh, h);
          media::ByteReader rr(payload(*res_pkt));
          media::get(rr, residual);
          const media::Frame* fwd =
              pic.type == media::FrameType::B
                  ? (slot_prev >= 0 ? &refs[slot_prev] : nullptr)
                  : (slot_last >= 0 ? &refs[slot_last] : nullptr);
          const media::Frame* bwd = slot_last >= 0 ? &refs[slot_last] : nullptr;
          media::MbPixels pred, recon;
          media::stages::predictMb(h, fwd, bwd, pred);
          media::stages::addResidualMb(pred, residual, recon);
          if (pic.type != media::FrameType::B) {
            media::stages::placeMb(refs[write_slot], h.mb_x, h.mb_y, recon);
          }
          co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, recon));
          ++mb_index;
          break;
        }
        default:
          throw std::runtime_error("kpn mc: unexpected tag");
      }
    }
  });

  // --- sink: assemble display frames ---
  const int sink = graph_.addTask("sink", [this](kpn::TaskContext& ctx) -> sim::Task<void> {
    media::SeqHeader seq;
    media::PicHeader pic;
    std::map<int, media::Frame> by_display;
    int mb_index = 0;
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      switch (tagOf(*pkt)) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*pkt));
          media::get(r, seq);
          break;
        }
        case PacketTag::Pic: {
          media::ByteReader r(payload(*pkt));
          media::get(r, pic);
          by_display.emplace(pic.temporal_ref, media::Frame(seq.width, seq.height));
          mb_index = 0;
          break;
        }
        case PacketTag::Mb: {
          media::MbPixels px;
          media::ByteReader r(payload(*pkt));
          media::get(r, px);
          const int mb_w = seq.width / media::kMbSize;
          media::stages::placeMb(by_display.at(pic.temporal_ref), mb_index % mb_w,
                                 mb_index / mb_w, px);
          ++mb_index;
          break;
        }
        case PacketTag::Resync:
          break;  // never emitted by the functional pipeline; tolerated
        case PacketTag::Eos: {
          for (auto& [idx, f] : by_display) result_.push_back(std::move(f));
          co_return;
        }
      }
    }
  });

  e_coef_ = graph_.connect(vld, 0, rlsq, 0, fifo_bytes);
  e_hdr_ = graph_.connect(vld, 1, mc, 0, fifo_bytes);
  e_blocks_ = graph_.connect(rlsq, 0, idct, 0, fifo_bytes);
  e_res_ = graph_.connect(idct, 0, mc, 1, fifo_bytes);
  e_pix_ = graph_.connect(mc, 0, sink, 0, fifo_bytes);
}

std::vector<media::Frame> KpnDecoder::run() {
  graph_.run();
  return std::move(result_);
}

// ---------------------------------------------------------------------
// KPN encoder
// ---------------------------------------------------------------------

/// Shared reference frame store (the functional stand-in for the off-chip
/// store both MC/ME tasks point at). Slot rotation state is tracked
/// independently by each task from the Pic packets it sees, exactly like
/// the McCoproc task kinds.
struct KpnEncoder::RefStore {
  std::array<media::Frame, 3> slots;
};

namespace {

/// Slot rotation mirroring McCoproc::onPicHeader.
struct SlotTracker {
  int prev = -1;
  int last = -1;
  int write = -1;
  bool prev_pic_was_ref = false;

  void onPic(const media::PicHeader& ph) {
    if (prev_pic_was_ref) {
      prev = last;
      last = write;
    }
    const bool is_ref = ph.type != media::FrameType::B;
    if (is_ref) {
      for (int s = 0; s < 3; ++s) {
        if (s != prev && s != last) {
          write = s;
          break;
        }
      }
    }
    prev_pic_was_ref = is_ref;
  }

  [[nodiscard]] const media::Frame* fwdRef(const KpnEncoder::RefStore& store,
                                           media::FrameType type) const {
    const int s = type == media::FrameType::B ? prev : last;
    return s >= 0 ? &store.slots[static_cast<std::size_t>(s)] : nullptr;
  }
  [[nodiscard]] const media::Frame* bwdRef(const KpnEncoder::RefStore& store) const {
    return last >= 0 ? &store.slots[static_cast<std::size_t>(last)] : nullptr;
  }
};

}  // namespace

KpnEncoder::KpnEncoder(std::vector<media::Frame> frames, const media::CodecParams& params,
                       std::size_t fifo_bytes) {
  if (frames.empty()) throw std::invalid_argument("KpnEncoder: no frames");
  auto store = std::make_shared<RefStore>();
  const media::SeqHeader seq = params.toSeqHeader(static_cast<int>(frames.size()));
  const int mb_w = params.width / media::kMbSize;
  const int mb_h = params.height / media::kMbSize;
  const int mb_count = mb_w * mb_h;

  // --- source: coded-order reordering, gated by frame-done tokens ---
  const int src = graph_.addTask(
      "src", [frames = std::move(frames), params, seq, mb_count, mb_w](kpn::TaskContext& ctx)
              -> sim::Task<void> {
        const auto order = media::codedOrder(static_cast<int>(frames.size()), params.gop);
        co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Seq, seq));
        int refs_emitted = 0;
        int tokens = 0;
        for (const auto& cp : order) {
          if (cp.type != media::FrameType::I) {
            while (tokens < refs_emitted) {
              auto tok = co_await kpnRead(ctx.in(0));
              if (!tok) throw std::runtime_error("kpn src: token stream ended early");
              ++tokens;
            }
          }
          media::PicHeader ph;
          ph.type = cp.type;
          ph.temporal_ref = static_cast<std::uint16_t>(cp.display_idx);
          ph.qscale = seq.qscale;
          co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Pic, ph));
          for (int m = 0; m < mb_count; ++m) {
            media::MbPixels px;
            media::stages::extractMb(frames[static_cast<std::size_t>(cp.display_idx)], m % mb_w,
                                     m / mb_w, px);
            co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, px));
          }
          if (cp.type != media::FrameType::B) ++refs_emitted;
        }
        co_await kpnWrite(ctx.out(0), media::packTag(PacketTag::Eos));
        co_await drain(ctx.in(0));  // the tokens no frame waited for
      });

  // --- motion estimation ---
  const int me = graph_.addTask("me", [store, params, mb_w](kpn::TaskContext& ctx)
          -> sim::Task<void> {
    media::SeqHeader sh;
    media::PicHeader pic;
    SlotTracker slots;
    media::Frame scratch;
    int mb_index = 0;
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      switch (tagOf(*pkt)) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*pkt));
          media::get(r, sh);
          scratch = media::Frame(sh.width, sh.height);
          for (auto& s : store->slots) s = media::Frame(sh.width, sh.height);
          co_await kpnWrite(ctx.out(0), *pkt);
          co_await kpnWrite(ctx.out(1), *pkt);
          co_await kpnWrite(ctx.out(2), *pkt);
          break;
        }
        case PacketTag::Pic: {
          media::ByteReader r(payload(*pkt));
          media::get(r, pic);
          slots.onPic(pic);
          mb_index = 0;
          co_await kpnWrite(ctx.out(0), *pkt);
          co_await kpnWrite(ctx.out(1), *pkt);
          if (pic.type != media::FrameType::B) co_await kpnWrite(ctx.out(2), *pkt);
          break;
        }
        case PacketTag::Mb: {
          media::MbPixels cur;
          media::ByteReader r(payload(*pkt));
          media::get(r, cur);
          const int mb_x = mb_index % mb_w;
          const int mb_y = mb_index / mb_w;
          media::stages::placeMb(scratch, mb_x, mb_y, cur);
          const media::Frame* fwd = slots.fwdRef(*store, pic.type);
          const media::Frame* bwd = slots.bwdRef(*store);
          media::MbHeader h = media::stages::decideMbMode(scratch, mb_x, mb_y, pic.type, fwd,
                                                          bwd, params.search, sh.qscale);
          media::MbPixels pred;
          media::stages::predictMb(h, fwd, bwd, pred);
          media::MbBlocks residual;
          media::stages::residualMb(cur, pred, residual);
          residual.intra = h.mode == media::MbMode::Intra ? 1 : 0;
          co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, residual));
          const auto hdr_pkt = media::packPacket(PacketTag::Mb, h);
          co_await kpnWrite(ctx.out(1), hdr_pkt);
          if (pic.type != media::FrameType::B) co_await kpnWrite(ctx.out(2), hdr_pkt);
          ++mb_index;
          break;
        }
        case PacketTag::Resync:
          break;  // never emitted by the functional pipeline; tolerated
        case PacketTag::Eos: {
          co_await kpnWrite(ctx.out(0), *pkt);
          co_await kpnWrite(ctx.out(1), *pkt);
          co_await kpnWrite(ctx.out(2), *pkt);
          co_return;
        }
      }
    }
  });

  // --- forward DCT ---
  const int fdct = graph_.addTask("fdct", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      if (tagOf(*pkt) == PacketTag::Mb) {
        media::MbBlocks in, out;
        media::ByteReader r(payload(*pkt));
        media::get(r, in);
        media::stages::fdctMb(in, out);
        co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, out));
        continue;
      }
      co_await kpnWrite(ctx.out(0), *pkt);
      if (tagOf(*pkt) == PacketTag::Eos) co_return;
    }
  });

  // --- quantise + scan + RLE, with the recon-loop side stream ---
  const int qrle = graph_.addTask("qrle", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    media::SeqHeader sh;
    media::PicHeader cur_pic;
    bool pic_is_ref = false;
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      switch (tagOf(*pkt)) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*pkt));
          media::get(r, sh);
          co_await kpnWrite(ctx.out(0), *pkt);
          co_await kpnWrite(ctx.out(1), *pkt);
          break;
        }
        case PacketTag::Pic: {
          media::ByteReader r(payload(*pkt));
          media::get(r, cur_pic);
          pic_is_ref = cur_pic.type != media::FrameType::B;
          co_await kpnWrite(ctx.out(0), *pkt);
          if (pic_is_ref) co_await kpnWrite(ctx.out(1), *pkt);
          break;
        }
        case PacketTag::Mb: {
          media::MbBlocks in;
          media::ByteReader r(payload(*pkt));
          media::get(r, in);
          media::MbCoefs out;
          media::stages::rlsqEncode(in, in.intra != 0, sh,
                                    cur_pic.qscale != 0 ? cur_pic.qscale : sh.qscale, out);
          const auto out_pkt = media::packPacket(PacketTag::Mb, out);
          co_await kpnWrite(ctx.out(0), out_pkt);
          if (pic_is_ref) co_await kpnWrite(ctx.out(1), out_pkt);
          break;
        }
        case PacketTag::Resync:
          break;  // never emitted by the functional pipeline; tolerated
        case PacketTag::Eos: {
          co_await kpnWrite(ctx.out(0), *pkt);
          co_await kpnWrite(ctx.out(1), *pkt);
          co_return;
        }
      }
    }
  });

  // --- dequantise (decode direction of RLSQ) ---
  const int deq = graph_.addTask("deq", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    media::SeqHeader sh;
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      switch (tagOf(*pkt)) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*pkt));
          media::get(r, sh);
          co_await kpnWrite(ctx.out(0), *pkt);
          break;
        }
        case PacketTag::Mb: {
          media::MbCoefs coefs;
          media::ByteReader r(payload(*pkt));
          media::get(r, coefs);
          media::MbBlocks out;
          media::stages::rlsqDecode(coefs, coefs.intra != 0, sh, out);
          out.intra = coefs.intra;
          co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, out));
          break;
        }
        default:
          co_await kpnWrite(ctx.out(0), *pkt);
          if (tagOf(*pkt) == PacketTag::Eos) co_return;
      }
    }
  });

  // --- inverse DCT of the reconstruction loop ---
  const int idct = graph_.addTask("idct", [](kpn::TaskContext& ctx) -> sim::Task<void> {
    while (auto pkt = co_await kpnRead(ctx.in(0))) {
      if (tagOf(*pkt) == PacketTag::Mb) {
        media::MbBlocks in, out;
        media::ByteReader r(payload(*pkt));
        media::get(r, in);
        media::stages::idctMb(in, out);
        co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Mb, out));
        continue;
      }
      co_await kpnWrite(ctx.out(0), *pkt);
      if (tagOf(*pkt) == PacketTag::Eos) co_return;
    }
  });

  // --- reconstruction: rebuild reference frames, emit frame-done tokens ---
  const int recon = graph_.addTask("recon", [store, mb_count](kpn::TaskContext& ctx)
          -> sim::Task<void> {
    media::SeqHeader sh;
    media::PicHeader pic;
    SlotTracker slots;
    int mb_index = 0;
    while (auto res_pkt = co_await kpnRead(ctx.in(0))) {
      const auto tag = tagOf(*res_pkt);
      if (tag == PacketTag::Eos) {
        co_await drain(ctx.in(1));
        co_await kpnWrite(ctx.out(0), *res_pkt);
        co_return;
      }
      auto hdr_pkt = co_await kpnRead(ctx.in(1));
      if (!hdr_pkt || tagOf(*hdr_pkt) != tag) {
        throw std::runtime_error("kpn recon: streams out of step");
      }
      switch (tag) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*res_pkt));
          media::get(r, sh);
          break;
        }
        case PacketTag::Pic: {
          media::ByteReader r(payload(*res_pkt));
          media::get(r, pic);
          slots.onPic(pic);
          mb_index = 0;
          break;
        }
        case PacketTag::Mb: {
          media::MbBlocks residual;
          media::ByteReader rr(payload(*res_pkt));
          media::get(rr, residual);
          media::MbHeader h;
          media::ByteReader rh(payload(*hdr_pkt));
          media::get(rh, h);
          const media::Frame* fwd = slots.fwdRef(*store, pic.type);
          const media::Frame* bwd = slots.bwdRef(*store);
          media::MbPixels pred, out;
          media::stages::predictMb(h, fwd, bwd, pred);
          media::stages::addResidualMb(pred, residual, out);
          media::stages::placeMb(store->slots[static_cast<std::size_t>(slots.write)], h.mb_x,
                                 h.mb_y, out);
          if (++mb_index >= mb_count) {
            co_await kpnWrite(ctx.out(0), media::packPacket(PacketTag::Pic, pic));  // token
          }
          break;
        }
        default:
          throw std::runtime_error("kpn recon: unexpected tag");
      }
    }
  });

  // --- variable-length encoder: pairs headers with coefficients ---
  const int vle = graph_.addTask("vle", [this](kpn::TaskContext& ctx) -> sim::Task<void> {
    media::BitWriter bw;
    media::SeqHeader sh;
    while (auto hdr_pkt = co_await kpnRead(ctx.in(0))) {
      const auto tag = tagOf(*hdr_pkt);
      auto coef_pkt = co_await kpnRead(ctx.in(1));
      if (!coef_pkt || tagOf(*coef_pkt) != tag) {
        throw std::runtime_error("kpn vle: streams out of step");
      }
      switch (tag) {
        case PacketTag::Seq: {
          media::ByteReader r(payload(*hdr_pkt));
          media::get(r, sh);
          media::stages::writeSeqHeader(bw, sh);
          break;
        }
        case PacketTag::Pic: {
          media::PicHeader ph;
          media::ByteReader r(payload(*hdr_pkt));
          media::get(r, ph);
          media::stages::writePicHeader(bw, ph);
          break;
        }
        case PacketTag::Mb: {
          media::MbHeader h;
          media::ByteReader rh(payload(*hdr_pkt));
          media::get(rh, h);
          media::MbCoefs coefs;
          media::ByteReader rc(payload(*coef_pkt));
          media::get(rc, coefs);
          h.cbp = coefs.cbp;
          media::stages::writeMb(bw, h, coefs);
          break;
        }
        case PacketTag::Resync:
          break;  // never emitted by the functional pipeline; tolerated
        case PacketTag::Eos: {
          result_ = bw.finish();
          co_return;
        }
      }
    }
  });

  graph_.connect(src, 0, me, 0, fifo_bytes);
  graph_.connect(me, 0, fdct, 0, fifo_bytes);
  graph_.connect(me, 1, vle, 0, fifo_bytes);
  graph_.connect(me, 2, recon, 1, fifo_bytes);
  graph_.connect(fdct, 0, qrle, 0, fifo_bytes);
  graph_.connect(qrle, 0, vle, 1, fifo_bytes);
  graph_.connect(qrle, 1, deq, 0, fifo_bytes);
  graph_.connect(deq, 0, idct, 0, fifo_bytes);
  graph_.connect(idct, 0, recon, 0, fifo_bytes);
  graph_.connect(recon, 0, src, 0, fifo_bytes);  // frame-done tokens
}

std::vector<std::uint8_t> KpnEncoder::run() {
  graph_.run();
  return std::move(result_);
}

}  // namespace eclipse::app
