#include "eclipse/coproc/soft_tasks.hpp"

#include <algorithm>
#include <stdexcept>

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"

namespace eclipse::coproc {

EncoderSource::EncoderSource(SoftCpu& cpu, std::vector<media::Frame> frames,
                             const media::CodecParams& params)
    : cpu_(cpu), frames_(std::move(frames)), params_(params) {
  if (frames_.empty()) throw std::invalid_argument("EncoderSource: no frames");
  seq_ = params_.toSeqHeader(static_cast<int>(frames_.size()));
  order_ = media::codedOrder(static_cast<int>(frames_.size()), params_.gop);
  mb_count_ = (params_.width / media::kMbSize) * (params_.height / media::kMbSize);
}

sim::Task<void> EncoderSource::step(sim::TaskId task, std::uint32_t /*info*/) {
  auto& sh = cpu_.shell();
  switch (phase_) {
    case Phase::Seq: {
      if (!co_await sh.getSpace(task, kOut, withCtl(kMaxPixelsFrame))) co_return;
      co_await packet_io::write(sh, task, kOut,
                                media::packPacketInto(writer_, media::PacketTag::Seq, seq_));
      phase_ = Phase::PicStart;
      break;
    }
    case Phase::PicStart: {
      const auto& cp = order_[pic_idx_];
      if (cp.type != media::FrameType::I) {
        // All previously emitted reference pictures must be reconstructed
        // before a dependent picture enters motion estimation.
        while (tokens_received_ < refs_emitted_) {
          const packet_io::Packet tok = co_await packet_io::tryReadView(sh, task, kInToken);
          if (tok.status == packet_io::ReadStatus::Blocked) {
            co_return;  // abort; retry when the token arrives
          }
          if (packet_io::tagOf(tok.bytes) != media::PacketTag::Pic) {
            throw std::runtime_error("EncoderSource: unexpected token packet");
          }
          ++tokens_received_;
        }
      }
      if (!co_await sh.getSpace(task, kOut, withCtl(kMaxPixelsFrame))) co_return;
      media::PicHeader ph;
      ph.type = cp.type;
      ph.temporal_ref = static_cast<std::uint16_t>(cp.display_idx);
      ph.qscale = seq_.qscale;
      co_await packet_io::write(sh, task, kOut,
                                media::packPacketInto(writer_, media::PacketTag::Pic, ph));
      mb_index_ = 0;
      phase_ = Phase::Mb;
      break;
    }
    case Phase::Mb: {
      if (!co_await sh.getSpace(task, kOut, withCtl(kMaxPixelsFrame))) co_return;
      const auto& cp = order_[pic_idx_];
      const media::Frame& f = frames_[static_cast<std::size_t>(cp.display_idx)];
      const int mb_w = params_.width / media::kMbSize;
      media::MbPixels px;
      media::stages::extractMb(f, mb_index_ % mb_w, mb_index_ / mb_w, px);
      co_await packet_io::write(sh, task, kOut,
                                media::packPacketInto(writer_, media::PacketTag::Mb, px));
      if (++mb_index_ >= mb_count_) {
        if (cp.type != media::FrameType::B) ++refs_emitted_;
        if (++pic_idx_ >= order_.size()) {
          phase_ = Phase::Eos;
        } else {
          phase_ = Phase::PicStart;
        }
      }
      break;
    }
    case Phase::Eos: {
      if (!co_await sh.getSpace(task, kOut, withCtl(kMaxPixelsFrame))) co_return;
      co_await packet_io::write(sh, task, kOut, media::packTag(media::PacketTag::Eos));
      phase_ = Phase::Done;
      cpu_.finish(task);
      break;
    }
    case Phase::Done:
      cpu_.finish(task);
      break;
  }
}

sim::Task<void> VleTask::step(sim::TaskId task, std::uint32_t /*info*/) {
  auto& sh = cpu_.shell();
  const std::uint32_t out_reserve = withCtl(packet_io::frameBytes(1 + kChunkBytes));

  // Drain pending output first: one chunk per step keeps steps short.
  if (pending_.size() >= kChunkBytes || (eos_seen_ && !pending_.empty())) {
    if (!co_await sh.getSpace(task, kOut, out_reserve)) co_return;
    const std::size_t n = std::min(pending_.size(), kChunkBytes);
    writer_.clear();
    writer_.u8(static_cast<std::uint8_t>(media::PacketTag::Mb));
    writer_.bytes(std::span<const std::uint8_t>(pending_.data(), n));
    co_await packet_io::write(sh, task, kOut, writer_.data());
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(n));
    co_return;
  }
  if (eos_seen_) {
    if (!co_await sh.getSpace(task, kOut, out_reserve)) co_return;
    co_await packet_io::write(sh, task, kOut, media::packTag(media::PacketTag::Eos));
    cpu_.finish(task);
    co_return;
  }

  // Peeked views: valid until the PutSpaces at the end of the step.
  const packet_io::Packet hdr = co_await packet_io::tryPeekView(sh, task, kInHdr);
  if (hdr.status == packet_io::ReadStatus::Blocked) co_return;
  const packet_io::Packet coef = co_await packet_io::tryPeekView(sh, task, kInCoef);
  if (coef.status == packet_io::ReadStatus::Blocked) co_return;
  if (packet_io::tagOf(hdr.bytes) != packet_io::tagOf(coef.bytes)) {
    throw std::runtime_error("VleTask: header/coefficient streams out of step");
  }

  switch (packet_io::tagOf(hdr.bytes)) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(hdr.bytes));
      media::get(r, seq_);
      media::stages::writeSeqHeader(bw_, seq_);
      co_await cpu_.simulator().delay(8 * cycles_per_symbol_);
      break;
    }
    case media::PacketTag::Pic: {
      media::PicHeader ph;
      media::ByteReader r(packet_io::payloadOf(hdr.bytes));
      media::get(r, ph);
      media::stages::writePicHeader(bw_, ph);
      co_await cpu_.simulator().delay(3 * cycles_per_symbol_);
      break;
    }
    case media::PacketTag::Mb: {
      media::MbHeader h;
      media::MbCoefs coefs;
      {
        media::ByteReader rh(packet_io::payloadOf(hdr.bytes));
        media::get(rh, h);
        media::ByteReader rc(packet_io::payloadOf(coef.bytes));
        media::get(rc, coefs);
      }
      h.cbp = coefs.cbp;  // the coded block pattern is known after quantisation
      media::stages::writeMb(bw_, h, coefs);
      std::uint64_t symbols = 4;
      for (const auto& b : coefs.blocks) symbols += b.size() + 1;
      co_await cpu_.simulator().delay(symbols * cycles_per_symbol_);
      break;
    }
    case media::PacketTag::Resync:
      break;  // marker is meaningless inside an elementary bitstream
    case media::PacketTag::Eos: {
      // Byte-align and queue the final bytes for draining.
      auto tail = bw_.finish();
      pending_.insert(pending_.end(), tail.begin(), tail.end());
      eos_seen_ = true;
      break;
    }
  }

  auto chunk = bw_.drainFullBytes();
  bits_ += chunk.size() * 8;
  pending_.insert(pending_.end(), chunk.begin(), chunk.end());

  co_await sh.putSpace(task, kInHdr, hdr.frame_bytes);
  co_await sh.putSpace(task, kInCoef, coef.frame_bytes);
}

}  // namespace eclipse::coproc
