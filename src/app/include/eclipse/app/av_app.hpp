#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eclipse/app/audio_app.hpp"
#include "eclipse/app/configurator.hpp"
#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/instance.hpp"

namespace eclipse::app {

/// Which multiplex stream ids carry which media.
struct AvLayout {
  int video_stream_id = 0;
  int audio_stream_id = 1;
};

/// Complete audio/video playback application: the full software mix of
/// Section 6 ("audio decoding ... and de-multiplexing are executed in
/// software on the media processor") around the hardware video pipeline.
///
/// A multiplexed transport stream lives in off-chip memory. A software
/// demux task on the DSP-CPU walks its packets, stages the video
/// elementary stream into an off-chip staging area and feeds the audio
/// elementary stream onward. Once the video stream is fully staged, the
/// demux task *enables the VLD task through the task table* — run-time
/// application control exactly as the CPU would do it.
class AvPlaybackApp {
 public:
  AvPlaybackApp(EclipseInstance& inst, std::vector<std::uint8_t> transport_stream,
                const AvLayout& layout = {});

  [[nodiscard]] bool done() const;
  [[nodiscard]] std::vector<media::Frame> frames() const { return video_->frames(); }
  [[nodiscard]] std::vector<std::int16_t> pcm() const { return audio_->pcm(); }

  [[nodiscard]] const DecodeApp& video() const { return *video_; }
  [[nodiscard]] const AudioDecodeApp& audio() const { return *audio_; }
  [[nodiscard]] AudioDecodeApp& audio() { return *audio_; }

  /// Control handle for the demux task's one-task graph.
  [[nodiscard]] AppHandle& demuxHandle() { return demux_handle_; }
  /// Tears down the demux graph and both media applications.
  void teardown();

  /// Transport packets the demux task processed (timing statistics).
  [[nodiscard]] std::uint64_t packetsDemuxed() const;

 private:
  struct DemuxState;

  EclipseInstance& inst_;
  std::unique_ptr<DecodeApp> video_;
  std::unique_ptr<AudioDecodeApp> audio_;
  std::shared_ptr<DemuxState> demux_;
  AppHandle demux_handle_;
};

}  // namespace eclipse::app
