#include "eclipse/app/decode_app.hpp"

#include <stdexcept>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/codec.hpp"

namespace eclipse::app {

GraphSpec DecodeApp::modeSpec(const std::string& name, const DecodeAppConfig& cfg) const {
  GraphSpec g(name);
  g.task({.name = "vld",
          .shell = "vld",
          .budget_cycles = cfg.budget_cycles,
          .enabled = cfg.vld_enabled,
          .source = true, .software = {}})
      .task({.name = "rlsq", .shell = "rlsq", .budget_cycles = cfg.budget_cycles, .software = {}})
      .task({.name = "idct", .shell = "dct", .budget_cycles = cfg.budget_cycles, .software = {}})
      .task({.name = "mc", .shell = "mc", .budget_cycles = cfg.budget_cycles, .software = {}})
      .task({.name = "sink",
             .shell = sink_->shell().name(),
             .budget_cycles = cfg.budget_cycles,
             .software = {}});
  // Stream FIFOs in on-chip SRAM (Figure 3).
  g.stream("coef", "vld", coproc::VldCoproc::kOutCoef, "rlsq", coproc::RlsqCoproc::kIn,
           cfg.coef_buffer)
      .stream("hdr", "vld", coproc::VldCoproc::kOutHdr, "mc", coproc::McCoproc::kInHdr,
              cfg.hdr_buffer)
      .stream("blocks", "rlsq", coproc::RlsqCoproc::kOut, "idct", coproc::DctCoproc::kIn,
              cfg.blocks_buffer)
      .stream("res", "idct", coproc::DctCoproc::kOut, "mc", coproc::McCoproc::kInRes,
              cfg.res_buffer)
      .stream("pix", "mc", coproc::McCoproc::kOutPix, "sink", coproc::FrameSink::kIn,
              cfg.pix_buffer);
  return g;
}

std::function<void(AppHandle&)> DecodeApp::stageBitstream(std::vector<std::uint8_t> bitstream) {
  // Peek at the sequence header to size the off-chip frame store; a
  // malformed stream throws here, before any transition starts.
  media::BitReader br(bitstream);
  const media::SeqHeader sh = media::stages::parseSeqHeader(br);
  const std::size_t store_bytes =
      static_cast<std::size_t>(coproc::McCoproc::frameSlotBytes(sh)) * 3;

  return [this, bitstream = std::move(bitstream), store_bytes](AppHandle& h) {
    // Off-chip resources: the compressed stream and a 3-slot frame store.
    const sim::Addr bs_addr = inst_.allocDram(bitstream.size());
    inst_.dram().storage().write(bs_addr, bitstream);
    const sim::Addr store = inst_.allocDram(store_bytes);
    h.adoptDram(bs_addr, bitstream.size());
    h.adoptDram(store, store_bytes);

    coproc::VldTaskConfig vc;
    vc.bitstream_addr = bs_addr;
    vc.bitstream_bytes = static_cast<std::uint32_t>(bitstream.size());
    inst_.vld().configureTask(h.taskId("vld"), vc);

    coproc::McTaskConfig mcc;
    mcc.kind = coproc::McTaskKind::DecodeRecon;
    mcc.frame_store_base = store;
    mcc.frame_store_slots = 3;
    inst_.mc().configureTask(h.taskId("mc"), mcc);
  };
}

DecodeApp::DecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> bitstream,
                     const DecodeAppConfig& cfg)
    : DecodeApp(inst, std::move(bitstream), std::vector<Mode>{{"decode", cfg}}) {}

DecodeApp::DecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> bitstream,
                     std::vector<Mode> modes)
    : inst_(inst) {
  if (modes.empty()) throw GraphSpecError("DecodeApp: empty mode list");
  const auto stage = stageBitstream(std::move(bitstream));
  inst.addSink<coproc::FrameSink>([&](coproc::FrameSink& sink) {
    sink_ = &sink;
    for (const Mode& m : modes) modes_.mode(modeSpec(m.first, m.second));
    modes_.validate(inst);
    handle_ = AppHandle::configure(inst, modes_.at(modes.front().first), stage);
  });
}

TransitionStats DecodeApp::switchMode(std::string_view mode_name) {
  return handle_.switchTo(modes_.at(mode_name));
}

TransitionStats DecodeApp::switchSegment(std::string_view mode_name,
                                         std::vector<std::uint8_t> bitstream) {
  if (!sink_->done()) {
    throw std::logic_error("DecodeApp::switchSegment: current segment not finished");
  }
  TransitionStats st = handle_.switchTo(modes_.at(mode_name), stageBitstream(std::move(bitstream)));
  // Admitted: the sink takes the next segment. Every task parked itself at
  // the previous segment's Eos (self-disable on finishTask); the enable
  // refresh below restarts the pipeline on the new bitstream. Count the
  // writes into the transition's cost.
  sink_->rearm();
  const std::uint64_t w0 = inst_.piBus().writeCount();
  handle_.resume();
  st.mmio_writes += inst_.piBus().writeCount() - w0;
  return st;
}

void DecodeApp::recoverFrom(const TaskFault& f) {
  ++recoveries_;
  if (f.task == "vld") {
    // The source itself is unparseable: emit Eos downstream so the clip
    // terminates cleanly with whatever was decoded.
    inst_.vld().requestAbort(vldTask());
    handle_.clearFault("vld", /*reenable=*/true);
    return;
  }
  // A downstream stage choked (typically on a corrupted packet it
  // already consumed). Send Resync markers from the VLD, put the
  // stateless stages into discard-until-marker mode, and re-enable the
  // faulted task; the VLD parses forward to the next I-frame.
  inst_.vld().requestResync(vldTask());
  inst_.rlsq().requestDiscard(rlsqTask());
  inst_.dct().requestDiscard(dctTask());
  handle_.clearFault(f.task, /*reenable=*/true);
}

void DecodeApp::enableRecovery() {
  handle_.onFault([this](const TaskFault& f) { recoverFrom(f); });
}

void DecodeApp::enableDegradedFallback(std::string degraded_mode) {
  static_cast<void>(modes_.at(degraded_mode));  // throws std::out_of_range on an unknown mode
  degraded_mode_ = std::move(degraded_mode);
  handle_.onFault([this](const TaskFault& f) {
    recoverFrom(f);
    // First contained fault drops the clip into the degraded mode: a
    // field-only transition (same topology, reduced budgets), so it runs
    // to completion inside this callback without advancing the simulation.
    if (!degraded_ && handle_.currentMode() != degraded_mode_) {
      degraded_ = true;
      handle_.switchTo(modes_.at(degraded_mode_));
    }
  });
}

std::uint64_t DecodeApp::framesDropped() const { return sink_->framesDropped(); }

std::size_t DecodeApp::segmentsCompleted() const { return sink_->segmentsCompleted(); }

std::vector<media::Frame> DecodeApp::segmentFrames(std::size_t i) const {
  return sink_->segmentFrames(i);
}

bool DecodeApp::done() const { return sink_->done(); }

std::vector<media::Frame> DecodeApp::frames() const { return sink_->framesInDisplayOrder(); }

std::uint64_t DecodeApp::macroblocksDecoded() const { return sink_->macroblocksReceived(); }

}  // namespace eclipse::app
