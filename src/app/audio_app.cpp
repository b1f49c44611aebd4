#include "eclipse/app/audio_app.hpp"

#include <cstring>
#include <stdexcept>

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"
#include "eclipse/media/packets.hpp"

namespace eclipse::app {

namespace {

using coproc::packet_io::frameBytes;
using coproc::withCtl;

std::uint32_t getU32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, in.data() + at, 4);
  return v;
}

}  // namespace

struct AudioDecodeApp::FeederState {
  sim::Addr dram_addr = 0;
  std::size_t stream_bytes = 0;
  std::uint32_t block_samples = 0;
  std::uint32_t total_samples = 0;
  std::size_t pos = 16;  // past the stream header
  std::uint32_t samples_fed = 0;
  bool eos_sent = false;
  std::vector<std::uint8_t> pkt;  // reusable coded-block packet buffer
};

struct AudioDecodeApp::DecoderState {
  std::uint32_t block_samples = 0;
  sim::Cycle cycles_per_sample = 6;
  bool done = false;
  std::vector<std::int16_t> samples;  // reusable decode buffer
  std::vector<std::uint8_t> out;      // reusable PCM packet buffer
};

// Feeder: one coded block per processing step, fetched from off-chip. The
// same step serves both topologies — port 0 leads to the decoder in play
// mode and straight to the sink in bypass mode.
coproc::SoftCpu::StepHandler AudioDecodeApp::feederStep() const {
  return [this, block_frame = block_frame_](sim::TaskId task,
                                            std::uint32_t) -> sim::Task<void> {
    auto& sh = inst_.cpuShell();
    auto& st = *feeder_;
    if (st.eos_sent) {
      inst_.cpu().finish(task);
      co_return;
    }
    if (!co_await sh.getSpace(task, 0, withCtl(block_frame))) co_return;
    if (st.samples_fed >= st.total_samples) {
      co_await coproc::packet_io::write(sh, task, 0, media::packTag(media::PacketTag::Eos),
                                        /*wait=*/false);
      st.eos_sent = true;
      inst_.cpu().finish(task);
      co_return;
    }
    const std::size_t bb = media::audio::blockBytes(st.block_samples);
    if (st.pos + bb > st.stream_bytes) {
      throw std::runtime_error("AudioDecodeApp: truncated audio stream");
    }
    st.pkt.resize(1 + bb);
    st.pkt[0] = static_cast<std::uint8_t>(media::PacketTag::Mb);
    co_await inst_.dram().read(st.dram_addr + st.pos,
                               std::span<std::uint8_t>(st.pkt).subspan(1));
    st.pos += bb;
    st.samples_fed += st.block_samples;
    co_await coproc::packet_io::write(sh, task, 0, st.pkt, /*wait=*/false);
  };
}

// Decoder: one block per processing step.
coproc::SoftCpu::StepHandler AudioDecodeApp::decoderStep() const {
  return [this, pcm_frame = pcm_frame_](sim::TaskId task, std::uint32_t) -> sim::Task<void> {
    auto& sh = inst_.cpuShell();
    auto& st = *decoder_;
    if (!co_await sh.getSpace(task, 1, withCtl(pcm_frame))) co_return;
    const coproc::packet_io::Packet p = co_await coproc::packet_io::tryReadView(sh, task, 0);
    if (p.status == coproc::packet_io::ReadStatus::Blocked) co_return;
    if (coproc::packet_io::tagOf(p.bytes) == media::PacketTag::Eos) {
      co_await coproc::packet_io::write(sh, task, 1, media::packTag(media::PacketTag::Eos),
                                        /*wait=*/false);
      st.done = true;
      inst_.cpu().finish(task);
      co_return;
    }
    // Decode straight out of the committed view (fully consumed before
    // the delay suspension below). decodeBlock appends, so reset first.
    st.samples.clear();
    media::audio::decodeBlock(coproc::packet_io::payloadOf(p.bytes), st.block_samples,
                              st.samples);
    co_await inst_.simulator().delay(static_cast<sim::Cycle>(st.samples.size()) *
                                     st.cycles_per_sample);
    st.out.resize(1 + st.samples.size() * 2);
    st.out[0] = static_cast<std::uint8_t>(media::PacketTag::Mb);
    std::memcpy(st.out.data() + 1, st.samples.data(), st.samples.size() * 2);
    co_await coproc::packet_io::write(sh, task, 1, st.out, /*wait=*/false);
  };
}

GraphSpec AudioDecodeApp::modeSpec(const std::string& name, const AudioAppConfig& cfg) const {
  GraphSpec g(name);
  g.task({.name = "feeder",
          .shell = "dsp-cpu",
          .budget_cycles = cfg.budget_cycles,
          .enabled = cfg.feeder_enabled,
          .source = true,
          .software = feederStep()});
  if (cfg.bypass) {
    g.task({.name = "sink",
            .shell = sink_->shell().name(),
            .budget_cycles = cfg.budget_cycles,
            .software = {}});
    g.stream("raw", "feeder", 0, "sink", coproc::ByteSink::kIn, cfg.block_buffer);
    return g;
  }
  g.task({.name = "decoder",
          .shell = "dsp-cpu",
          .budget_cycles = cfg.budget_cycles,
          .software = decoderStep()})
      .task({.name = "sink",
             .shell = sink_->shell().name(),
             .budget_cycles = cfg.budget_cycles,
             .software = {}});
  g.stream("blocks", "feeder", 0, "decoder", 0, cfg.block_buffer)
      .stream("pcm", "decoder", 1, "sink", coproc::ByteSink::kIn, cfg.pcm_buffer);
  return g;
}

void AudioDecodeApp::initStreams(std::vector<std::uint8_t>& coded_stream) {
  if (coded_stream.size() < 16 || getU32(coded_stream, 0) != media::audio::kAudioMagic) {
    throw std::invalid_argument("AudioDecodeApp: not an audio elementary stream");
  }
  const std::uint32_t block_samples = getU32(coded_stream, 8);
  total_samples_ = getU32(coded_stream, 12);

  auto on_done = inst_.registerApp();
  sink_ = &inst_.createByteSink(std::move(on_done));

  // The coded stream lives off-chip, like the video elementary streams.
  const sim::Addr addr = inst_.allocDram(coded_stream.size());
  inst_.dram().storage().write(addr, coded_stream);

  feeder_ = std::make_shared<FeederState>();
  feeder_->dram_addr = addr;
  feeder_->stream_bytes = coded_stream.size();
  feeder_->block_samples = block_samples;
  feeder_->total_samples = total_samples_;

  block_frame_ =
      frameBytes(1 + static_cast<std::uint32_t>(media::audio::blockBytes(block_samples)));
  pcm_frame_ = frameBytes(1 + block_samples * 2);
}

void AudioDecodeApp::cacheTaskIds() {
  t_feeder_ = handle_.taskId("feeder");
  t_decoder_ = 0;
  for (const AppTask& t : handle_.tasks()) {
    if (t.spec.name == "decoder") t_decoder_ = t.id;
  }
}

AudioDecodeApp::AudioDecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> coded_stream,
                               const AudioAppConfig& cfg)
    : inst_(inst) {
  initStreams(coded_stream);
  decoder_ = std::make_shared<DecoderState>();
  decoder_->block_samples = feeder_->block_samples;
  decoder_->cycles_per_sample = cfg.cycles_per_sample;

  modes_.mode(modeSpec("audio", cfg));
  Configurator configurator(inst);
  handle_ = configurator.apply(modes_.modes().front());
  handle_.adoptDram(feeder_->dram_addr, feeder_->stream_bytes);
  handle_.addCleanup([this] {
    if (!sink_->done()) inst_.deregisterApp();
  });
  cacheTaskIds();
}

AudioDecodeApp::AudioDecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> coded_stream,
                               std::vector<Mode> modes)
    : inst_(inst) {
  if (modes.empty()) throw GraphSpecError("AudioDecodeApp: empty mode list");
  initStreams(coded_stream);
  decoder_ = std::make_shared<DecoderState>();
  decoder_->block_samples = feeder_->block_samples;
  decoder_->cycles_per_sample = modes.front().second.cycles_per_sample;

  for (const Mode& m : modes) modes_.mode(modeSpec(m.first, m.second));
  modes_.validate(inst);
  Configurator configurator(inst);
  handle_ = configurator.apply(modes_.at(modes.front().first));
  handle_.adoptDram(feeder_->dram_addr, feeder_->stream_bytes);
  handle_.addCleanup([this] {
    if (!sink_->done()) inst_.deregisterApp();
  });
  cacheTaskIds();
}

TransitionStats AudioDecodeApp::switchMode(std::string_view mode_name) {
  const TransitionStats st = handle_.switchMode(modes_, mode_name);
  cacheTaskIds();
  return st;
}

bool AudioDecodeApp::done() const { return sink_->done(); }

std::vector<std::int16_t> AudioDecodeApp::pcm() const {
  const auto& bytes = sink_->bytes();
  std::vector<std::int16_t> out(bytes.size() / 2);
  std::memcpy(out.data(), bytes.data(), out.size() * 2);
  out.resize(total_samples_);
  return out;
}

const std::vector<std::uint8_t>& AudioDecodeApp::sinkBytes() const { return sink_->bytes(); }

}  // namespace eclipse::app
