#include "eclipse/app/av_app.hpp"

#include <stdexcept>

#include "eclipse/media/mux.hpp"

namespace eclipse::app {

struct AvPlaybackApp::DemuxState {
  sim::Addr ts_addr = 0;
  std::size_t ts_bytes = 0;
  std::size_t pos = 0;
  std::uint64_t packets = 0;
  int video_stream_id = 0;
  int audio_stream_id = 1;
  std::uint64_t video_bytes = 0;
  std::uint64_t audio_bytes = 0;
  bool started_pipelines = false;
};

AvPlaybackApp::AvPlaybackApp(EclipseInstance& inst, std::vector<std::uint8_t> transport_stream,
                             const AvLayout& layout)
    : inst_(inst) {
  // Function/timing split (DESIGN.md): the elementary streams are
  // recovered functionally up front so the video/audio applications can be
  // configured, while the demux *timing* — per-packet transport walk, the
  // staging writes, and the run-time enabling of the consumer tasks — is
  // modelled by the software demux task below.
  auto streams = media::mux::split(transport_stream);
  const auto vs = static_cast<std::size_t>(layout.video_stream_id);
  const auto as = static_cast<std::size_t>(layout.audio_stream_id);
  if (vs >= streams.size() || as >= streams.size()) {
    throw std::invalid_argument("AvPlaybackApp: stream ids not present in the multiplex");
  }

  demux_ = std::make_shared<DemuxState>();
  demux_->ts_bytes = transport_stream.size();
  demux_->video_stream_id = layout.video_stream_id;
  demux_->audio_stream_id = layout.audio_stream_id;

  auto demux_step = [this](sim::TaskId task, std::uint32_t) -> sim::Task<void> {
    auto& st = *demux_;
    if (st.pos >= st.ts_bytes) {
      if (!st.started_pipelines) {
        // Run-time application control: the CPU enables the consumers'
        // task-table entries (over the PI-bus) once their streams are
        // staged.
        video_->handle().setTaskEnabled("vld", true);
        audio_->handle().setTaskEnabled("feeder", true);
        st.started_pipelines = true;
      }
      inst_.cpu().finish(task);
      co_return;
    }
    // One transport packet per processing step.
    std::vector<std::uint8_t> pkt(media::mux::kPacketBytes);
    co_await inst_.dram().read(st.ts_addr + st.pos, pkt);
    const auto parsed = media::mux::parsePacket(pkt);
    st.pos += media::mux::kPacketBytes;
    ++st.packets;
    // Header inspection + payload routing cost (software loop).
    co_await inst_.simulator().delay(8 + parsed.payload.size() / 4);
    // Staging write of the payload to the destination elementary-stream
    // area (timing only; contents were placed functionally above).
    co_await inst_.dram().touchWrite(parsed.payload.size());
    if (parsed.stream_id == st.video_stream_id) {
      st.video_bytes += parsed.payload.size();
    } else if (parsed.stream_id == st.audio_stream_id) {
      st.audio_bytes += parsed.payload.size();
    }
  };

  GraphSpec g("av-demux");
  g.task({.name = "demux", .shell = "dsp-cpu", .budget_cycles = 2000,
          .software = std::move(demux_step)});

  // The audio application is a mode family: it boots with the feeder held
  // back (the demux enables it once the stream is staged), and the decoder
  // subgraph can be detached ("bypass") and re-attached ("play") live.
  DecodeAppConfig vcfg;
  vcfg.vld_enabled = false;  // enabled by the demux task at run time
  AudioAppConfig boot;
  boot.feeder_enabled = false;
  AudioAppConfig play;
  AudioAppConfig bypass;
  bypass.bypass = true;
  // A refused part tears the parts before it down again.
  video_ = std::make_unique<DecodeApp>(inst, std::move(streams[vs]), vcfg);
  try {
    audio_ = std::make_unique<AudioDecodeApp>(
        inst, std::move(streams[as]),
        std::vector<AudioDecodeApp::Mode>{{"boot", boot}, {"play", play}, {"bypass", bypass}});
    demux_handle_ = AppHandle::configure(inst, g, [&](AppHandle& h) {
      demux_->ts_addr = inst_.allocDram(transport_stream.size());
      inst_.dram().storage().write(demux_->ts_addr, transport_stream);
      h.adoptDram(demux_->ts_addr, transport_stream.size());
    });
  } catch (...) {
    if (audio_) audio_->teardown();
    video_->teardown();
    throw;
  }
}

void AvPlaybackApp::teardown() {
  demux_handle_.teardown();
  video_->teardown();
  audio_->teardown();
}

bool AvPlaybackApp::done() const { return video_->done() && audio_->done(); }

std::uint64_t AvPlaybackApp::packetsDemuxed() const { return demux_->packets; }

}  // namespace eclipse::app
