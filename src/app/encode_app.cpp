#include "eclipse/app/encode_app.hpp"

namespace eclipse::app {

GraphSpec EncodeApp::modeSpec(const std::string& name, const EncodeAppConfig& cfg) const {
  GraphSpec g(name);
  const std::uint32_t b = cfg.budget_cycles;
  g.task({.name = "src",
          .shell = "dsp-cpu",
          .budget_cycles = b,
          .source = true,
          .software = [this](sim::TaskId t, std::uint32_t info) { return source_->step(t, info); }})
      .task({.name = "vle",
             .shell = "dsp-cpu",
             .budget_cycles = b,
             .software = [this](sim::TaskId t, std::uint32_t info) { return vle_->step(t, info); }})
      .task({.name = "me", .shell = "mc", .budget_cycles = b, .software = {}})
      .task({.name = "recon", .shell = "mc", .budget_cycles = b, .software = {}})
      .task({.name = "fdct", .shell = "dct", .budget_cycles = b,
             .task_info = coproc::kDctInfoForward, .software = {}})
      .task({.name = "idct", .shell = "dct", .budget_cycles = b, .software = {}})
      .task({.name = "qrle", .shell = "rlsq", .budget_cycles = b,
             .task_info = coproc::kRlsqInfoEncode, .software = {}})
      .task({.name = "deq", .shell = "rlsq", .budget_cycles = b, .software = {}})
      .task({.name = "sink", .shell = sink_->shell().name(), .budget_cycles = b, .software = {}});

  // Forward path.
  g.stream("cur", "src", coproc::EncoderSource::kOut, "me", coproc::McCoproc::kInCur,
           cfg.cur_buffer)
      .stream("res", "me", coproc::McCoproc::kOutRes, "fdct", coproc::DctCoproc::kIn,
              cfg.res_buffer)
      .stream("hdr", "me", coproc::McCoproc::kOutHdrVle, "vle", coproc::VleTask::kInHdr,
              cfg.hdr_buffer)
      .stream("qin", "fdct", coproc::DctCoproc::kOut, "qrle", coproc::RlsqCoproc::kIn,
              cfg.res_buffer)
      .stream("coef", "qrle", coproc::RlsqCoproc::kOut, "vle", coproc::VleTask::kInCoef,
              cfg.coef_buffer)
      .stream("chunks", "vle", coproc::VleTask::kOut, "sink", coproc::ByteSink::kIn,
              cfg.chunk_buffer);

  // Embedded-decoder reconstruction loop.
  g.stream("hdr-rec", "me", coproc::McCoproc::kOutHdrRec, "recon", coproc::McCoproc::kInHdr,
           cfg.hdr_buffer)
      .stream("coef-rec", "qrle", coproc::RlsqCoproc::kOutRecon, "deq", coproc::RlsqCoproc::kIn,
              cfg.coef_buffer)
      .stream("res-rec", "deq", coproc::RlsqCoproc::kOut, "idct", coproc::DctCoproc::kIn,
              cfg.res_buffer)
      .stream("pix-rec", "idct", coproc::DctCoproc::kOut, "recon", coproc::McCoproc::kInRes,
              cfg.res_buffer)
      .stream("tokens", "recon", coproc::McCoproc::kOutToken, "src",
              coproc::EncoderSource::kInToken, cfg.token_buffer);
  return g;
}

EncodeApp::EncodeApp(EclipseInstance& inst, std::vector<media::Frame> frames,
                     const media::CodecParams& params, const EncodeAppConfig& cfg)
    : EncodeApp(inst, std::move(frames), params, std::vector<Mode>{{"encode", cfg}}) {}

EncodeApp::EncodeApp(EclipseInstance& inst, std::vector<media::Frame> frames,
                     const media::CodecParams& params, std::vector<Mode> modes)
    : inst_(inst) {
  if (modes.empty()) throw GraphSpecError("EncodeApp: empty mode list");
  // Shared off-chip reconstruction frame store for ME and RECON.
  const media::SeqHeader sh = params.toSeqHeader(static_cast<int>(frames.size()));
  const std::size_t store_bytes =
      static_cast<std::size_t>(coproc::McCoproc::frameSlotBytes(sh)) * 3;

  // Software tasks on the DSP-CPU.
  source_ = std::make_unique<coproc::EncoderSource>(inst.cpu(), std::move(frames), params);
  vle_ = std::make_unique<coproc::VleTask>(inst.cpu());

  inst.addSink<coproc::ByteSink>([&](coproc::ByteSink& sink) {
    sink_ = &sink;
    for (const Mode& m : modes) modes_.mode(modeSpec(m.first, m.second));
    modes_.validate(inst);
    handle_ = AppHandle::configure(inst, modes_.modes().front(), [&](AppHandle& h) {
      const sim::Addr store = inst_.allocDram(store_bytes);
      h.adoptDram(store, store_bytes);

      coproc::McTaskConfig me_cfg;
      me_cfg.kind = coproc::McTaskKind::MotionEst;
      me_cfg.frame_store_base = store;
      inst_.mc().configureTask(h.taskId("me"), me_cfg);

      coproc::McTaskConfig rec_cfg;
      rec_cfg.kind = coproc::McTaskKind::EncodeRecon;
      rec_cfg.frame_store_base = store;
      inst_.mc().configureTask(h.taskId("recon"), rec_cfg);
    });
  });
}

TransitionStats EncodeApp::switchMode(std::string_view mode_name) {
  return handle_.switchTo(modes_.at(mode_name));
}

bool EncodeApp::done() const { return sink_->done(); }

const std::vector<std::uint8_t>& EncodeApp::bitstream() const { return sink_->bytes(); }

}  // namespace eclipse::app
