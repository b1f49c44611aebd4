#include "eclipse/coproc/mc.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"
#include "eclipse/media/kernels.hpp"
#include "eclipse/media/motion.hpp"

namespace eclipse::coproc {

namespace {

struct PlaneGeom {
  sim::Addr offset;  // from slot base
  int stride;
  int width;
  int height;
};

PlaneGeom planeGeom(const media::SeqHeader& sh, int plane) {
  const int w = sh.width;
  const int h = sh.height;
  if (plane == 0) return PlaneGeom{0, w, w, h};
  const sim::Addr luma = static_cast<sim::Addr>(w) * h;
  const sim::Addr chroma = static_cast<sim::Addr>(w / 2) * (h / 2);
  if (plane == 1) return PlaneGeom{luma, w / 2, w / 2, h / 2};
  return PlaneGeom{luma + chroma, w / 2, w / 2, h / 2};
}

int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

}  // namespace

void McCoproc::configureTask(sim::TaskId task, const McTaskConfig& cfg) {
  TaskState st;
  st.cfg = cfg;
  states_[task] = std::move(st);
}

sim::Addr McCoproc::slotBase(const TaskState& st, std::int32_t slot) const {
  if (slot < 0) throw std::logic_error("McCoproc: prediction from a missing reference slot");
  return st.cfg.frame_store_base +
         static_cast<sim::Addr>(slot) * frameSlotBytes(st.seq);
}

sim::Task<void> McCoproc::fetchRegion(TaskState& st, std::int32_t slot, int plane, int x0, int y0,
                                      int w, int h, std::vector<std::uint8_t>& out) {
  const PlaneGeom g = planeGeom(st.seq, plane);
  const sim::Addr base = slotBase(st, slot) + g.offset;
  out.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));

  // Timing: one 2D burst over the system bus of the region size.
  co_await dram_.touchRead(out.size());

  // Function: clamp-extended gather (replicated frame edges, exactly like
  // motion::sampleHalfPel's full-pel clamping). The row index is always
  // clamped; a row whose columns lie inside the plane is one memcpy, and
  // only a region straddling a column edge clamps per sample.
  const std::uint8_t* plane_base = dram_.storage().view().data() + base;
  const bool cols_inside = x0 >= 0 && x0 + w <= g.width;
  std::uint8_t* dst = out.data();
  for (int y = 0; y < h; ++y, dst += w) {
    const int sy = clampi(y0 + y, 0, g.height - 1);
    const std::uint8_t* row =
        plane_base + static_cast<sim::Addr>(sy) * static_cast<sim::Addr>(g.stride);
    if (cols_inside) {
      std::memcpy(dst, row + x0, static_cast<std::size_t>(w));
    } else {
      for (int x = 0; x < w; ++x) dst[x] = row[clampi(x0 + x, 0, g.width - 1)];
    }
  }
}

sim::Task<void> McCoproc::writeReconMb(TaskState& st, std::int32_t slot, int mb_x, int mb_y,
                                       const media::MbPixels& px) {
  const sim::Addr base = slotBase(st, slot);
  const PlaneGeom gy = planeGeom(st.seq, 0);
  const PlaneGeom gcb = planeGeom(st.seq, 1);
  const PlaneGeom gcr = planeGeom(st.seq, 2);
  auto storage = dram_.storage().view();

  // Function: scatter the rows into the frame slot.
  for (int y = 0; y < media::kMbSize; ++y) {
    const sim::Addr row = base + gy.offset +
                          static_cast<sim::Addr>(mb_y * media::kMbSize + y) * static_cast<sim::Addr>(gy.stride) +
                          static_cast<sim::Addr>(mb_x * media::kMbSize);
    std::copy_n(px.y.begin() + y * media::kMbSize, media::kMbSize,
                storage.begin() + static_cast<std::ptrdiff_t>(row));
  }
  for (int y = 0; y < 8; ++y) {
    const sim::Addr row_cb = base + gcb.offset +
                             static_cast<sim::Addr>(mb_y * 8 + y) * static_cast<sim::Addr>(gcb.stride) +
                             static_cast<sim::Addr>(mb_x * 8);
    const sim::Addr row_cr = base + gcr.offset +
                             static_cast<sim::Addr>(mb_y * 8 + y) * static_cast<sim::Addr>(gcr.stride) +
                             static_cast<sim::Addr>(mb_x * 8);
    std::copy_n(px.cb.begin() + y * 8, 8, storage.begin() + static_cast<std::ptrdiff_t>(row_cb));
    std::copy_n(px.cr.begin() + y * 8, 8, storage.begin() + static_cast<std::ptrdiff_t>(row_cr));
  }

  // Timing: three posted write bursts (Y, Cb, Cr). Writes go through a
  // write buffer, so the coprocessor stalls only for bus occupancy, not
  // for the off-chip access latency (reads cannot be posted).
  co_await dram_.bus().transfer(256);
  co_await dram_.bus().transfer(64);
  co_await dram_.bus().transfer(64);
}

sim::Task<void> McCoproc::predictTimed(TaskState& st, const media::MbHeader& h,
                                       media::MbPixels& pred) {
  if (h.mode == media::MbMode::Intra) {
    pred.y.fill(128);
    pred.cb.fill(128);
    pred.cr.fill(128);
    co_return;
  }

  const int px = h.mb_x * media::kMbSize;
  const int py = h.mb_y * media::kMbSize;

  auto fetchOne = [&](std::int32_t slot, media::MotionVector mv,
                      media::MbPixels& out) -> sim::Task<void> {
    ++predictions_;
    // Luma 17x17 region at the floor of the half-pel coordinate.
    const int cx = 2 * px + mv.x;
    const int cy = 2 * py + mv.y;
    const int x0 = cx >> 1, fx = cx & 1;
    const int y0 = cy >> 1, fy = cy & 1;
    co_await fetchRegion(st, slot, 0, x0, y0, 17, 17, region_);
    // The fetched region is clamp-extended, so the whole 16x16 read is
    // in-bounds — straight into the vector interpolator.
    media::kernels::active().interp_16xh(out.y.data(), media::kMbSize, region_.data(), 17,
                                         media::kMbSize, fx, fy);
    // Chroma: the luma vector halved (truncation toward zero, MPEG-2).
    const int cvx = mv.x / 2;
    const int cvy = mv.y / 2;
    const int pcx = px / 2, pcy = py / 2;
    const int ccx = 2 * pcx + cvx, ccy = 2 * pcy + cvy;
    const int cx0 = ccx >> 1, cfx = ccx & 1;
    const int cy0 = ccy >> 1, cfy = ccy & 1;
    co_await fetchRegion(st, slot, 1, cx0, cy0, 9, 9, rcb_);
    co_await fetchRegion(st, slot, 2, cx0, cy0, 9, 9, rcr_);
    media::kernels::active().interp_8xh(out.cb.data(), 8, rcb_.data(), 9, 8, cfx, cfy);
    media::kernels::active().interp_8xh(out.cr.data(), 8, rcr_.data(), 9, 8, cfx, cfy);
  };

  // Reference slot selection mirrors the decoder: P pictures predict from
  // the most recent reference; B pictures use (prev, last) as (fwd, bwd).
  const std::int32_t fwd_slot =
      st.pic.type == media::FrameType::B ? st.refs.prev : st.refs.last;
  const std::int32_t bwd_slot = st.refs.last;

  switch (h.mode) {
    case media::MbMode::Forward:
      co_await fetchOne(fwd_slot, h.mv_fwd, pred);
      break;
    case media::MbMode::Backward:
      co_await fetchOne(bwd_slot, h.mv_bwd, pred);
      break;
    case media::MbMode::Bidirectional: {
      media::MbPixels a, b;
      co_await fetchOne(fwd_slot, h.mv_fwd, a);
      co_await fetchOne(bwd_slot, h.mv_bwd, b);
      media::motion::average(a.y, b.y, pred.y);
      media::motion::average(a.cb, b.cb, pred.cb);
      media::motion::average(a.cr, b.cr, pred.cr);
      break;
    }
    case media::MbMode::Intra:
      break;  // handled above
  }
}

sim::Task<void> McCoproc::decideMode(TaskState& st, const media::MbPixels& cur,
                                     media::MbHeader& h) {
  if (st.pic.type == media::FrameType::I) {
    h.mode = media::MbMode::Intra;
    co_return;
  }
  ++searches_;

  const int R = params_.search_range;
  const int S = 2 * R + 19;  // window edge: covers full search + half-pel refine
  const int px = h.mb_x * media::kMbSize;
  const int py = h.mb_y * media::kMbSize;
  const int wx0 = px - (R + 1);
  const int wy0 = py - (R + 1);

  // Half-pel candidate offset into a fetched window: every candidate the
  // search emits has mv + 2(R+1) >= 1, so >>1 is a plain floor and the
  // 16x16(+fraction) read stays inside the S x S window.
  auto winAt = [&](const std::vector<std::uint8_t>& win, int mvx, int mvy) {
    const int cx = mvx + 2 * (R + 1);
    const int cy = mvy + 2 * (R + 1);
    return win.data() + static_cast<std::ptrdiff_t>(cy >> 1) * S + (cx >> 1);
  };

  // SAD of a half-pel candidate against a fetched window.
  auto sadHalf = [&](const std::vector<std::uint8_t>& win, int mvx, int mvy) {
    return media::kernels::active().sad_16xh(cur.y.data(), media::kMbSize, winAt(win, mvx, mvy),
                                             S, media::kMbSize, (mvx + 2 * (R + 1)) & 1,
                                             (mvy + 2 * (R + 1)) & 1);
  };

  // Full-pel exhaustive search plus half-pel refinement in one window.
  struct Best {
    media::MotionVector mv;
    std::uint32_t sad = std::numeric_limits<std::uint32_t>::max();
  };
  int candidates = 0;
  auto searchWindow = [&](const std::vector<std::uint8_t>& win) {
    // The zero vector is evaluated first so that it wins SAD ties — the
    // same preference order as motion::search (keeps the window search
    // bit-identical with the functional encoder's full search).
    Best best{media::MotionVector{0, 0}, sadHalf(win, 0, 0)};
    ++candidates;
    for (int dy = -R; dy <= R; ++dy) {
      for (int dx = -R; dx <= R; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const std::uint32_t sad = sadHalf(win, 2 * dx, 2 * dy);
        ++candidates;
        if (sad < best.sad) {
          best = Best{media::MotionVector{static_cast<std::int16_t>(2 * dx),
                                          static_cast<std::int16_t>(2 * dy)},
                      sad};
        }
      }
    }
    if (params_.half_pel) {
      Best refined = best;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int mvx = best.mv.x + dx;
          const int mvy = best.mv.y + dy;
          const std::uint32_t sad = sadHalf(win, mvx, mvy);
          ++candidates;
          if (sad < refined.sad) {
            refined = Best{media::MotionVector{static_cast<std::int16_t>(mvx),
                                               static_cast<std::int16_t>(mvy)},
                           sad};
          }
        }
      }
      best = refined;
    }
    return best;
  };

  const std::int32_t fwd_slot =
      st.pic.type == media::FrameType::B ? st.refs.prev : st.refs.last;
  co_await fetchRegion(st, fwd_slot, 0, wx0, wy0, S, S, win_f_);
  const Best best_f = searchWindow(win_f_);

  Best best_b;
  std::uint32_t sad_bidi = std::numeric_limits<std::uint32_t>::max();
  if (st.pic.type == media::FrameType::B) {
    co_await fetchRegion(st, st.refs.last, 0, wx0, wy0, S, S, win_b_);
    best_b = searchWindow(win_b_);
    // Bidirectional: average of the two best predictions. Interpolate both
    // into scratch macroblocks, average, then a full-pel SAD.
    const auto& k = media::kernels::active();
    alignas(16) std::uint8_t pf[256], pb[256], avg[256];
    k.interp_16xh(pf, media::kMbSize, winAt(win_f_, best_f.mv.x, best_f.mv.y), S, media::kMbSize,
                  (best_f.mv.x + 2 * (R + 1)) & 1, (best_f.mv.y + 2 * (R + 1)) & 1);
    k.interp_16xh(pb, media::kMbSize, winAt(win_b_, best_b.mv.x, best_b.mv.y), S, media::kMbSize,
                  (best_b.mv.x + 2 * (R + 1)) & 1, (best_b.mv.y + 2 * (R + 1)) & 1);
    k.avg_u8(pf, pb, avg, 256);
    sad_bidi = k.sad_16xh(cur.y.data(), media::kMbSize, avg, media::kMbSize, media::kMbSize, 0, 0);
    ++candidates;
  }

  co_await sim_.delay(static_cast<sim::Cycle>(candidates) * params_.cycles_per_candidate);

  // Intra activity of the current macroblock (mean absolute deviation).
  // SAD against a constant row with ref_stride 0: vs zero it sums the
  // pixels, vs the mean it is exactly the activity sum.
  alignas(16) std::uint8_t mrow[media::kMbSize] = {};
  const std::uint32_t sum =
      media::kernels::active().sad_16xh(cur.y.data(), media::kMbSize, mrow, 0, media::kMbSize, 0, 0);
  const std::uint32_t mean = sum / 256;
  std::fill(std::begin(mrow), std::end(mrow), static_cast<std::uint8_t>(mean));
  const std::uint32_t activity =
      media::kernels::active().sad_16xh(cur.y.data(), media::kMbSize, mrow, 0, media::kMbSize, 0, 0);

  std::uint32_t best_sad = best_f.sad;
  media::MbMode mode = media::MbMode::Forward;
  if (st.pic.type == media::FrameType::B) {
    if (best_b.sad < best_sad) {
      best_sad = best_b.sad;
      mode = media::MbMode::Backward;
    }
    if (sad_bidi < best_sad) {
      best_sad = sad_bidi;
      mode = media::MbMode::Bidirectional;
    }
  }
  if (best_sad > activity) {
    h.mode = media::MbMode::Intra;
    co_return;
  }
  h.mode = mode;
  if (mode == media::MbMode::Forward || mode == media::MbMode::Bidirectional) h.mv_fwd = best_f.mv;
  if (mode == media::MbMode::Backward || mode == media::MbMode::Bidirectional) h.mv_bwd = best_b.mv;
}

void McCoproc::onPicHeader(TaskState& st, const media::PicHeader& ph) {
  if (st.prev_pic_was_ref) st.refs.rotate(st.write_slot);
  st.pic = ph;
  const bool is_ref = ph.type != media::FrameType::B;
  if (is_ref) st.write_slot = st.refs.pickFree(st.cfg.frame_store_slots);
  st.prev_pic_was_ref = is_ref;
  st.mb_index = 0;
}

sim::Task<void> McCoproc::step(sim::TaskId task, std::uint32_t /*task_info*/) {
  auto it = states_.find(task);
  if (it == states_.end()) throw std::logic_error("McCoproc: unconfigured task scheduled");
  TaskState& st = it->second;
  switch (st.cfg.kind) {
    case McTaskKind::DecodeRecon: co_await stepDecodeRecon(task, st); break;
    case McTaskKind::MotionEst: co_await stepMotionEst(task, st); break;
    case McTaskKind::EncodeRecon: co_await stepEncodeRecon(task, st); break;
  }
}

sim::Task<void> McCoproc::stepDecodeRecon(sim::TaskId task, TaskState& st) {
  if (!co_await shell_.getSpace(task, kOutPix, withCtl(kMaxPixelsFrame))) co_return;
  // Peeked views stay valid until the PutSpace at the end of the step, so
  // pass-through writes can stream straight out of the input FIFO.
  const packet_io::Packet hdr = co_await packet_io::tryPeekView(shell_, task, kInHdr);
  if (hdr.status == packet_io::ReadStatus::Blocked) co_return;
  const packet_io::Packet res = co_await packet_io::tryPeekView(shell_, task, kInRes);
  if (res.status == packet_io::ReadStatus::Blocked) co_return;
  // Resync realignment (recovery, DESIGN §9): after an upstream fault the
  // two input streams can be out of step — one already carries the Resync
  // marker while the other still holds stale pre-fault packets. Drain the
  // lagging stream one packet per step until both markers pair up, then
  // forward a single marker downstream and reset picture state.
  const auto tag_hdr = packet_io::tagOf(hdr.bytes);
  const auto tag_res = packet_io::tagOf(res.bytes);
  if (tag_hdr == media::PacketTag::Resync || tag_res == media::PacketTag::Resync) {
    if (tag_hdr == tag_res) {
      st.mb_index = 0;
      co_await packet_io::write(shell_, task, kOutPix, hdr.bytes, /*wait=*/false);
      co_await shell_.putSpace(task, kInHdr, hdr.frame_bytes);
      co_await shell_.putSpace(task, kInRes, res.frame_bytes);
    } else if (tag_hdr == media::PacketTag::Resync) {
      co_await shell_.putSpace(task, kInRes, res.frame_bytes);
    } else {
      co_await shell_.putSpace(task, kInHdr, hdr.frame_bytes);
    }
    co_return;
  }
  if (tag_hdr != tag_res) {
    throw std::runtime_error("McCoproc: header/residual streams out of step");
  }

  switch (tag_hdr) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(hdr.bytes));
      media::get(r, st.seq);
      st.have_seq = true;
      st.mb_count = (st.seq.width / media::kMbSize) * (st.seq.height / media::kMbSize);
      co_await packet_io::write(shell_, task, kOutPix, hdr.bytes, /*wait=*/false);
      break;
    }
    case media::PacketTag::Pic: {
      media::PicHeader ph;
      media::ByteReader r(packet_io::payloadOf(hdr.bytes));
      media::get(r, ph);
      onPicHeader(st, ph);
      pic_events_.push_back(PicEvent{task, ph, sim_.now()});
      co_await packet_io::write(shell_, task, kOutPix, hdr.bytes, /*wait=*/false);
      break;
    }
    case media::PacketTag::Mb: {
      media::MbHeader h;
      media::MbBlocks residual;
      {
        media::ByteReader rh(packet_io::payloadOf(hdr.bytes));
        media::get(rh, h);
        media::ByteReader rr(packet_io::payloadOf(res.bytes));
        media::get(rr, residual);
      }
      media::MbPixels pred, recon;
      co_await predictTimed(st, h, pred);
      media::stages::addResidualMb(pred, residual, recon);
      co_await sim_.delay(static_cast<sim::Cycle>(media::kBlocksPerMacroblock) *
                          params_.cycles_per_block_add);
      if (st.pic.type != media::FrameType::B) {
        co_await writeReconMb(st, st.write_slot, h.mb_x, h.mb_y, recon);
      }
      co_await packet_io::write(shell_, task, kOutPix,
                                media::packPacketInto(writer_, media::PacketTag::Mb, recon),
                                /*wait=*/false);
      ++st.mb_index;
      break;
    }
    case media::PacketTag::Eos: {
      co_await packet_io::write(shell_, task, kOutPix, hdr.bytes, /*wait=*/false);
      finishTask(task);
      break;
    }
    case media::PacketTag::Resync:
      break;  // handled before the switch
  }

  co_await shell_.putSpace(task, kInHdr, hdr.frame_bytes);
  co_await shell_.putSpace(task, kInRes, res.frame_bytes);
}

sim::Task<void> McCoproc::stepMotionEst(sim::TaskId task, TaskState& st) {
  if (!co_await shell_.getSpace(task, kOutRes, withCtl(kMaxBlocksFrame))) co_return;
  if (!co_await shell_.getSpace(task, kOutHdrVle, withCtl(kMaxHeaderFrame))) co_return;
  if (!co_await shell_.getSpace(task, kOutHdrRec, withCtl(kMaxHeaderFrame))) co_return;

  const packet_io::Packet in = co_await packet_io::tryPeekView(shell_, task, kInCur);
  if (in.status == packet_io::ReadStatus::Blocked) co_return;

  switch (packet_io::tagOf(in.bytes)) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(in.bytes));
      media::get(r, st.seq);
      st.have_seq = true;
      st.mb_count = (st.seq.width / media::kMbSize) * (st.seq.height / media::kMbSize);
      co_await packet_io::write(shell_, task, kOutRes, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrVle, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrRec, in.bytes, /*wait=*/false);
      break;
    }
    case media::PacketTag::Pic: {
      media::PicHeader ph;
      media::ByteReader r(packet_io::payloadOf(in.bytes));
      media::get(r, ph);
      onPicHeader(st, ph);
      co_await packet_io::write(shell_, task, kOutRes, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrVle, in.bytes, /*wait=*/false);
      if (ph.type != media::FrameType::B) {
        // Only reference pictures travel down the reconstruction loop.
        co_await packet_io::write(shell_, task, kOutHdrRec, in.bytes, /*wait=*/false);
      }
      break;
    }
    case media::PacketTag::Mb: {
      media::MbPixels cur;
      media::ByteReader r(packet_io::payloadOf(in.bytes));
      media::get(r, cur);
      const int mb_x = st.mb_index % (st.seq.width / media::kMbSize);
      const int mb_y = st.mb_index / (st.seq.width / media::kMbSize);

      media::MbHeader h;
      h.mb_x = static_cast<std::uint16_t>(mb_x);
      h.mb_y = static_cast<std::uint16_t>(mb_y);
      h.qscale = st.seq.qscale;
      co_await decideMode(st, cur, h);

      media::MbPixels pred;
      co_await predictTimed(st, h, pred);
      media::MbBlocks residual;
      media::stages::residualMb(cur, pred, residual);
      residual.intra = h.mode == media::MbMode::Intra ? 1 : 0;
      co_await sim_.delay(static_cast<sim::Cycle>(media::kBlocksPerMacroblock) *
                          params_.cycles_per_block_add);

      co_await packet_io::write(shell_, task, kOutRes,
                                media::packPacketInto(writer_, media::PacketTag::Mb, residual),
                                /*wait=*/false);
      // The header re-pack reuses the writer only after the residual write
      // completed; the span then stays valid for both header writes.
      const auto hdr_pkt = media::packPacketInto(writer_, media::PacketTag::Mb, h);
      co_await packet_io::write(shell_, task, kOutHdrVle, hdr_pkt, /*wait=*/false);
      if (st.pic.type != media::FrameType::B) {
        co_await packet_io::write(shell_, task, kOutHdrRec, hdr_pkt, /*wait=*/false);
      }
      ++st.mb_index;
      break;
    }
    case media::PacketTag::Resync: {
      // Propagate the marker on every output so the whole encode pipeline
      // realigns; picture state restarts at the next Pic header.
      st.mb_index = 0;
      co_await packet_io::write(shell_, task, kOutRes, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrVle, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrRec, in.bytes, /*wait=*/false);
      break;
    }
    case media::PacketTag::Eos: {
      co_await packet_io::write(shell_, task, kOutRes, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrVle, in.bytes, /*wait=*/false);
      co_await packet_io::write(shell_, task, kOutHdrRec, in.bytes, /*wait=*/false);
      finishTask(task);
      break;
    }
  }

  co_await shell_.putSpace(task, kInCur, in.frame_bytes);
}

sim::Task<void> McCoproc::stepEncodeRecon(sim::TaskId task, TaskState& st) {
  if (!co_await shell_.getSpace(task, kOutToken, withCtl(kMaxCtlFrame))) co_return;
  const packet_io::Packet hdr = co_await packet_io::tryPeekView(shell_, task, kInHdr);
  if (hdr.status == packet_io::ReadStatus::Blocked) co_return;
  const packet_io::Packet res = co_await packet_io::tryPeekView(shell_, task, kInRes);
  if (res.status == packet_io::ReadStatus::Blocked) co_return;
  // Same Resync realignment as the decode reconstruction path: drain the
  // lagging input until the markers pair, then consume both silently (the
  // token output carries only Pic / Eos).
  const auto tag_hdr = packet_io::tagOf(hdr.bytes);
  const auto tag_res = packet_io::tagOf(res.bytes);
  if (tag_hdr == media::PacketTag::Resync || tag_res == media::PacketTag::Resync) {
    if (tag_hdr == tag_res) {
      st.mb_index = 0;
      co_await shell_.putSpace(task, kInHdr, hdr.frame_bytes);
      co_await shell_.putSpace(task, kInRes, res.frame_bytes);
    } else if (tag_hdr == media::PacketTag::Resync) {
      co_await shell_.putSpace(task, kInRes, res.frame_bytes);
    } else {
      co_await shell_.putSpace(task, kInHdr, hdr.frame_bytes);
    }
    co_return;
  }
  if (tag_hdr != tag_res) {
    throw std::runtime_error("McCoproc: encode-recon streams out of step");
  }

  switch (tag_hdr) {
    case media::PacketTag::Seq: {
      media::ByteReader r(packet_io::payloadOf(hdr.bytes));
      media::get(r, st.seq);
      st.have_seq = true;
      st.mb_count = (st.seq.width / media::kMbSize) * (st.seq.height / media::kMbSize);
      break;
    }
    case media::PacketTag::Pic: {
      media::PicHeader ph;
      media::ByteReader r(packet_io::payloadOf(hdr.bytes));
      media::get(r, ph);
      onPicHeader(st, ph);
      break;
    }
    case media::PacketTag::Mb: {
      media::MbHeader h;
      media::MbBlocks residual;
      {
        media::ByteReader rh(packet_io::payloadOf(hdr.bytes));
        media::get(rh, h);
        media::ByteReader rr(packet_io::payloadOf(res.bytes));
        media::get(rr, residual);
      }
      media::MbPixels pred, recon;
      co_await predictTimed(st, h, pred);
      media::stages::addResidualMb(pred, residual, recon);
      co_await sim_.delay(static_cast<sim::Cycle>(media::kBlocksPerMacroblock) *
                          params_.cycles_per_block_add);
      co_await writeReconMb(st, st.write_slot, h.mb_x, h.mb_y, recon);
      if (++st.mb_index >= st.mb_count) {
        // Frame-done token: unblocks the source for dependent pictures.
        co_await packet_io::write(shell_, task, kOutToken,
                                  media::packPacketInto(writer_, media::PacketTag::Pic, st.pic),
                                  /*wait=*/false);
      }
      break;
    }
    case media::PacketTag::Eos: {
      co_await packet_io::write(shell_, task, kOutToken, hdr.bytes, /*wait=*/false);
      finishTask(task);
      break;
    }
    case media::PacketTag::Resync:
      break;  // handled before the switch
  }

  co_await shell_.putSpace(task, kInHdr, hdr.frame_bytes);
  co_await shell_.putSpace(task, kInRes, res.frame_bytes);
}

}  // namespace eclipse::coproc
