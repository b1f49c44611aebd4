#include "eclipse/coproc/sinks.hpp"

#include <stdexcept>
#include <string>

#include "eclipse/coproc/packet_io.hpp"

namespace eclipse::coproc {

bool Sink::pending() const {
  if (done_) return false;
  for (std::uint32_t i = 0; i < shell_.tasks().capacity(); ++i) {
    if (shell_.tasks().row(static_cast<sim::TaskId>(i)).valid) return true;
  }
  return false;
}

void Sink::finish(sim::TaskId task) {
  done_ = true;
  finishTask(task);
  sim_.stop();
}

std::vector<media::Frame> FrameSink::framesInDisplayOrder() const {
  std::vector<media::Frame> out;
  out.reserve(frames_.size());
  for (const auto& [idx, f] : frames_) out.push_back(f);
  return out;
}

void FrameSink::rearm() {
  if (!done_) {
    throw std::logic_error("FrameSink::rearm: sink has not finished the current segment");
  }
  std::vector<media::Frame> seg;
  seg.reserve(frames_.size());
  for (auto& [idx, f] : frames_) seg.push_back(std::move(f));
  segments_.push_back(std::move(seg));
  frames_.clear();
  seq_ = media::SeqHeader{};
  pic_ = media::PicHeader{};
  mb_index_ = 0;
  pic_open_ = false;
  done_ = false;
}

const std::vector<media::Frame>& FrameSink::segmentFrames(std::size_t i) const {
  if (i >= segments_.size()) {
    throw std::out_of_range("FrameSink::segmentFrames: only " +
                            std::to_string(segments_.size()) + " segment(s) archived");
  }
  return segments_[i];
}

sim::Task<void> FrameSink::step(sim::TaskId task, std::uint32_t /*task_info*/) {
  // Zero-copy consumption: the packet view is parsed in place before the
  // step's next suspension point, so no owning copy is needed.
  const packet_io::Packet p = co_await packet_io::tryReadView(shell_, task, kIn);
  if (p.status == packet_io::ReadStatus::Blocked) co_return;
  const auto pkt = p.bytes;
  switch (packet_io::tagOf(pkt)) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(pkt));
      media::get(r, seq_);
      break;
    }
    case media::PacketTag::Pic: {
      media::ByteReader r(packet_io::payloadOf(pkt));
      media::get(r, pic_);
      frames_.emplace(pic_.temporal_ref, media::Frame(seq_.width, seq_.height));
      mb_index_ = 0;
      pic_open_ = true;
      break;
    }
    case media::PacketTag::Mb: {
      media::MbPixels px;
      media::ByteReader r(packet_io::payloadOf(pkt));
      media::get(r, px);
      const int mb_w = seq_.width / media::kMbSize;
      auto it = frames_.find(pic_.temporal_ref);
      if (it == frames_.end()) throw std::runtime_error("FrameSink: MB before picture header");
      media::stages::placeMb(it->second, mb_index_ % mb_w, mb_index_ / mb_w, px);
      ++mb_index_;
      ++mbs_;
      const int mb_count = (seq_.width / media::kMbSize) * (seq_.height / media::kMbSize);
      if (mb_index_ >= mb_count) pic_open_ = false;  // frame fully assembled
      break;
    }
    case media::PacketTag::Resync: {
      // Recovery: everything before the marker belongs to the abandoned
      // picture. Drop the half-assembled frame (never display a frame with
      // stale/corrupt regions) and count it.
      if (pic_open_) {
        frames_.erase(pic_.temporal_ref);
        ++frames_dropped_;
        pic_open_ = false;
      }
      mb_index_ = 0;
      break;
    }
    case media::PacketTag::Eos:
      finish(task);
      break;
  }
}

sim::Task<void> ByteSink::step(sim::TaskId task, std::uint32_t /*task_info*/) {
  const packet_io::Packet p = co_await packet_io::tryReadView(shell_, task, kIn);
  if (p.status == packet_io::ReadStatus::Blocked) co_return;
  const auto pkt = p.bytes;
  switch (packet_io::tagOf(pkt)) {
    case media::PacketTag::Mb: {
      const auto payload = packet_io::payloadOf(pkt);
      bytes_.insert(bytes_.end(), payload.begin(), payload.end());
      break;
    }
    case media::PacketTag::Resync:
      break;  // marker only delimits; the byte stream itself is unframed
    case media::PacketTag::Eos:
      finish(task);
      break;
    default:
      throw std::runtime_error("ByteSink: unexpected packet tag");
  }
}

}  // namespace eclipse::coproc
