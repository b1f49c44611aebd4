#include "eclipse/app/decode_app.hpp"

#include <stdexcept>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/codec.hpp"

namespace eclipse::app {

namespace {

EclipseInstance::StreamHandle toStreamHandle(const AppStream& s) {
  return EclipseInstance::StreamHandle{s.producer_shell, s.producer_row, s.consumer_shell,
                                       s.consumer_row,   s.buffer_base,  s.spec.buffer_bytes};
}

}  // namespace

GraphSpec DecodeApp::spec(const DecodeAppConfig& cfg, const std::string& sink_shell,
                          const std::string& name) {
  GraphSpec g(name);
  g.task({.name = "vld",
          .shell = "vld",
          .budget_cycles = cfg.budget_cycles,
          .enabled = cfg.vld_enabled,
          .source = true, .software = {}})
      .task({.name = "rlsq", .shell = "rlsq", .budget_cycles = cfg.budget_cycles, .software = {}})
      .task({.name = "idct", .shell = "dct", .budget_cycles = cfg.budget_cycles, .software = {}})
      .task({.name = "mc", .shell = "mc", .budget_cycles = cfg.budget_cycles, .software = {}})
      .task({.name = "sink", .shell = sink_shell, .budget_cycles = cfg.budget_cycles, .software = {}});
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

ModeSet DecodeApp::modeSet(const std::vector<Mode>& modes, const std::string& sink_shell) {
  ModeSet set("decode-modes");
  for (const Mode& m : modes) set.mode(spec(m.second, sink_shell, m.first));
  return set;
}

std::function<void(AppHandle&)> DecodeApp::stageBitstream(std::vector<std::uint8_t> bitstream) {
  // Peek at the sequence header to size the off-chip frame store.
  media::BitReader br(bitstream);
  const media::SeqHeader sh = media::stages::parseSeqHeader(br);

  // Off-chip resources: the compressed stream and a 3-slot frame store.
  const sim::Addr bs_addr = inst_.allocDram(bitstream.size());
  inst_.dram().storage().write(bs_addr, bitstream);
  const std::size_t bs_bytes = bitstream.size();
  const std::size_t store_bytes =
      static_cast<std::size_t>(coproc::McCoproc::frameSlotBytes(sh)) * 3;
  const sim::Addr store = inst_.allocDram(store_bytes);

  return [this, bs_addr, bs_bytes, store, store_bytes](AppHandle& h) {
    coproc::VldTaskConfig vc;
    vc.bitstream_addr = bs_addr;
    vc.bitstream_bytes = static_cast<std::uint32_t>(bs_bytes);
    inst_.vld().configureTask(h.taskId("vld"), vc);

    coproc::McTaskConfig mcc;
    mcc.kind = coproc::McTaskKind::DecodeRecon;
    mcc.frame_store_base = store;
    mcc.frame_store_slots = 3;
    inst_.mc().configureTask(h.taskId("mc"), mcc);

    h.adoptDram(bs_addr, bs_bytes);
    h.adoptDram(store, store_bytes);
  };
}

void DecodeApp::cacheHandles() {
  t_vld_ = handle_.taskId("vld");
  t_rlsq_ = handle_.taskId("rlsq");
  t_dct_ = handle_.taskId("idct");
  t_mc_ = handle_.taskId("mc");
  s_coef_ = toStreamHandle(handle_.stream("coef"));
  s_hdr_ = toStreamHandle(handle_.stream("hdr"));
  s_blocks_ = toStreamHandle(handle_.stream("blocks"));
  s_res_ = toStreamHandle(handle_.stream("res"));
  s_pix_ = toStreamHandle(handle_.stream("pix"));
}

DecodeApp::DecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> bitstream,
                     const DecodeAppConfig& cfg)
    : DecodeApp(inst, std::move(bitstream), std::vector<Mode>{{"decode", cfg}}) {}

DecodeApp::DecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> bitstream,
                     std::vector<Mode> modes)
    : inst_(inst) {
  if (modes.empty()) throw GraphSpecError("DecodeApp: empty mode list");
  auto on_done = inst.registerApp();
  sink_ = &inst.createFrameSink(std::move(on_done));
  modes_ = modeSet(modes, sink_->shell().name());
  modes_.validate(inst);

  Configurator configurator(inst);
  handle_ = configurator.apply(modes_.at(modes.front().first),
                               stageBitstream(std::move(bitstream)));
  handle_.addCleanup([this] {
    if (!sink_->done()) inst_.deregisterApp();
  });
  cacheHandles();
}

TransitionStats DecodeApp::switchMode(std::string_view mode_name) {
  TransitionStats st = handle_.switchMode(modes_, mode_name);
  cacheHandles();
  return st;
}

TransitionStats DecodeApp::switchSegment(std::string_view mode_name,
                                         std::vector<std::uint8_t> bitstream) {
  if (!sink_->done()) {
    throw std::logic_error("DecodeApp::switchSegment: current segment not finished");
  }
  sink_->rearm(inst_.registerApp());
  TransitionStats st = handle_.switchTo(modes_.at(mode_name), stageBitstream(std::move(bitstream)));
  // Every task parked itself at the previous segment's Eos (self-disable on
  // finishTask); the enable refresh below restarts the pipeline on the new
  // bitstream. Count the writes into the transition's cost.
  const std::uint64_t w0 = inst_.piBus().writeCount();
  handle_.resume();
  st.mmio_writes += inst_.piBus().writeCount() - w0;
  cacheHandles();
  return st;
}

void DecodeApp::recoverFrom(const TaskFault& f) {
  ++recoveries_;
  if (f.task == "vld") {
    // The source itself is unparseable: emit Eos downstream so the clip
    // terminates cleanly with whatever was decoded.
    inst_.vld().requestAbort(t_vld_);
    handle_.clearFault("vld", /*reenable=*/true);
    return;
  }
  // A downstream stage choked (typically on a corrupted packet it
  // already consumed). Send Resync markers from the VLD, put the
  // stateless stages into discard-until-marker mode, and re-enable the
  // faulted task; the VLD parses forward to the next I-frame.
  inst_.vld().requestResync(t_vld_);
  inst_.rlsq().requestDiscard(t_rlsq_);
  inst_.dct().requestDiscard(t_dct_);
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
      handle_.switchMode(modes_, degraded_mode_);
      cacheHandles();
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
