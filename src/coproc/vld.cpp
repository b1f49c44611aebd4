#include "eclipse/coproc/vld.hpp"

#include <algorithm>
#include <stdexcept>

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"

namespace eclipse::coproc {

void VldCoproc::configureTask(sim::TaskId task, const VldTaskConfig& cfg) {
  TaskState st;
  st.cfg = cfg;
  // The bit reader decodes straight out of the (stable) off-chip storage
  // image — the compressed stream is read-only while the task runs. The
  // timing of off-chip fetches is modelled separately in ensureFetched
  // (DESIGN.md: function/timing split).
  st.reader = std::make_unique<media::BitReader>(
      dram_.storage().view().subspan(cfg.bitstream_addr, cfg.bitstream_bytes));
  states_[task] = std::move(st);
}

sim::Task<void> VldCoproc::ensureFetched(TaskState& st) {
  const std::uint64_t needed_bytes = (st.reader->bitPosition() + 7) / 8;
  while (st.fetched_bytes < needed_bytes) {
    const std::uint32_t chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        params_.fetch_chunk, st.cfg.bitstream_bytes - st.fetched_bytes));
    // Timing-only burst: the bytes are already visible via the reader span.
    co_await dram_.touchRead(chunk);
    st.fetched_bytes += chunk;
  }
}

void VldCoproc::requestResync(sim::TaskId task) {
  auto it = states_.find(task);
  if (it == states_.end()) throw std::logic_error("VldCoproc::requestResync: unknown task");
  it->second.resync_pending = true;
}

void VldCoproc::requestAbort(sim::TaskId task) {
  auto it = states_.find(task);
  if (it == states_.end()) throw std::logic_error("VldCoproc::requestAbort: unknown task");
  it->second.abort_pending = true;
}

sim::Task<void> VldCoproc::step(sim::TaskId task, std::uint32_t /*task_info*/) {
  auto it = states_.find(task);
  if (it == states_.end()) throw std::logic_error("VldCoproc: unconfigured task scheduled");
  TaskState& st = it->second;

  // Both output streams must accept this step's packets before anything is
  // consumed from the bit-stream; otherwise abandon the step (the shell
  // recorded the denial, so the scheduler will not re-pick the task until
  // space arrives).
  if (!co_await shell_.getSpace(task, kOutCoef, withCtl(kMaxCoefsFrame))) co_return;
  if (!co_await shell_.getSpace(task, kOutHdr, withCtl(kMaxHeaderFrame))) co_return;

  // Recovery requests (CPU-issued, DESIGN §9) take effect between syntax
  // units, once output space for the markers is granted.
  if (st.abort_pending) {
    st.abort_pending = false;
    st.resync_pending = false;
    if (st.phase != Phase::Done) {
      const auto pkt = media::packTag(media::PacketTag::Eos);
      co_await packet_io::write(shell_, task, kOutCoef, pkt);
      co_await packet_io::write(shell_, task, kOutHdr, pkt);
      st.phase = Phase::Done;
    }
    finishTask(task);
    co_return;
  }
  if (st.resync_pending) {
    st.resync_pending = false;
    if (st.phase == Phase::PicHeader || st.phase == Phase::Macroblock) {
      // Tell every downstream stage to drop in-flight state, then discard
      // the rest of the current picture and hunt for the next I-frame.
      const auto pkt = media::packTag(media::PacketTag::Resync);
      co_await packet_io::write(shell_, task, kOutCoef, pkt);
      co_await packet_io::write(shell_, task, kOutHdr, pkt);
      st.skipping = true;
    }
  }

  switch (st.phase) {
    case Phase::SeqHeader: {
      st.seq = media::stages::parseSeqHeader(*st.reader);
      st.mb_count = (st.seq.width / media::kMbSize) * (st.seq.height / media::kMbSize);
      co_await ensureFetched(st);
      co_await sim_.delay(8 * params_.cycles_per_symbol);
      symbols_ += 8;
      const auto pkt = media::packPacketInto(writer_, media::PacketTag::Seq, st.seq);
      co_await packet_io::write(shell_, task, kOutCoef, pkt);
      co_await packet_io::write(shell_, task, kOutHdr, pkt);
      st.phase = Phase::PicHeader;
      break;
    }
    case Phase::PicHeader: {
      st.pic = media::stages::parsePicHeader(*st.reader);
      co_await ensureFetched(st);
      co_await sim_.delay(3 * params_.cycles_per_symbol);
      symbols_ += 3;
      if (st.skipping) {
        if (st.pic.type == media::FrameType::I) {
          st.skipping = false;  // realigned: decode this picture normally
        } else {
          // Still hunting for an I-frame: parse (to keep the bit position
          // honest) but emit nothing — this coded picture is dropped.
          ++pics_skipped_;
          st.mb_index = 0;
          st.phase = Phase::Macroblock;
          break;
        }
      }
      const auto pkt = media::packPacketInto(writer_, media::PacketTag::Pic, st.pic);
      co_await packet_io::write(shell_, task, kOutCoef, pkt);
      co_await packet_io::write(shell_, task, kOutHdr, pkt);
      st.mb_index = 0;
      st.phase = Phase::Macroblock;
      break;
    }
    case Phase::Macroblock: {
      const int mb_w = st.seq.width / media::kMbSize;
      const auto mb_x = static_cast<std::uint16_t>(st.mb_index % mb_w);
      const auto mb_y = static_cast<std::uint16_t>(st.mb_index / mb_w);
      auto parsed = media::stages::parseMb(*st.reader, st.pic.type, mb_x, mb_y, st.pic.qscale);
      co_await ensureFetched(st);
      co_await sim_.delay(static_cast<sim::Cycle>(parsed.symbols) * params_.cycles_per_symbol);
      symbols_ += static_cast<std::uint64_t>(parsed.symbols);
      if (!st.skipping) {
        co_await packet_io::write(
            shell_, task, kOutCoef,
            media::packPacketInto(writer_, media::PacketTag::Mb, parsed.coefs));
        co_await packet_io::write(
            shell_, task, kOutHdr,
            media::packPacketInto(writer_, media::PacketTag::Mb, parsed.header));
      }
      if (++st.mb_index >= st.mb_count) {
        st.phase = ++st.pics_done >= st.seq.frame_count ? Phase::EndOfStream : Phase::PicHeader;
      }
      break;
    }
    case Phase::EndOfStream: {
      const auto pkt = media::packTag(media::PacketTag::Eos);
      co_await packet_io::write(shell_, task, kOutCoef, pkt);
      co_await packet_io::write(shell_, task, kOutHdr, pkt);
      st.phase = Phase::Done;
      finishTask(task);
      break;
    }
    case Phase::Done:
      finishTask(task);
      break;
  }
}

}  // namespace eclipse::coproc
