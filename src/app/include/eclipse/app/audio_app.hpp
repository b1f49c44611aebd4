#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eclipse/app/configurator.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/app/mode_set.hpp"
#include "eclipse/media/audio.hpp"

namespace eclipse::app {

/// Audio decoding application — software-only, on the DSP-CPU.
///
/// Section 6: "Audio decoding, variable-length encoding, and
/// de-multiplexing are executed in software on the media processor."
/// Two software tasks time-share the CPU with whatever else runs there:
///
///   feeder (CPU): fetches coded ADPCM blocks from off-chip memory and
///                 streams them through an on-chip FIFO,
///   decoder (CPU): decodes blocks to PCM and streams the samples to a
///                 byte sink.
///
/// Both tasks follow the abortable-step discipline, so audio work
/// interleaves with video tasks on the same processor.
/// Stream-buffer sizes and software timing of the audio graph.
struct AudioAppConfig {
  std::uint32_t block_buffer = 1024;  ///< feeder -> decoder FIFO bytes
  std::uint32_t pcm_buffer = 2048;    ///< decoder -> sink FIFO bytes
  std::uint32_t budget_cycles = 2000;
  sim::Cycle cycles_per_sample = 6;   ///< software ADPCM inner loop

  /// When false, the feeder task starts disabled (a demux task enables it
  /// once the audio elementary stream is staged).
  bool feeder_enabled = true;

  /// Bypass topology: the decoder task is detached and the feeder streams
  /// the coded blocks straight to the sink (audio muted / passed through
  /// to an off-chip consumer). Used as a mode of a multi-mode family to
  /// exercise live subgraph attach/detach.
  bool bypass = false;
};

class AudioDecodeApp {
 public:
  /// A named audio mode, e.g. {"play", {}} and {"bypass", {.bypass=true}}.
  using Mode = std::pair<std::string, AudioAppConfig>;

  /// Single-mode constructor: the mode list {{"audio", cfg}}.
  AudioDecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> coded_stream,
                 const AudioAppConfig& cfg = {});

  /// Multi-mode constructor: validates the family up front and applies the
  /// first mode. A bypass mode detaches the decoder task and its streams;
  /// switching back re-attaches them live (diff-based transition with a
  /// partial drain of the affected FIFOs). A refused construction leaves
  /// no trace on the instance.
  AudioDecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> coded_stream,
                 std::vector<Mode> modes);

  /// Live transition to another mode of the family. Detach/attach of the
  /// decoder subgraph drains only the audio FIFOs; other applications on
  /// the instance keep running.
  TransitionStats switchMode(std::string_view mode_name);

  [[nodiscard]] const std::string& currentMode() const { return handle_.currentMode(); }
  [[nodiscard]] const ModeSet& modes() const { return modes_; }

  [[nodiscard]] bool done() const;
  /// Decoded PCM samples (valid after completion).
  [[nodiscard]] std::vector<std::int16_t> pcm() const;

  /// Runtime control (pause/resume/drain/teardown) for this application.
  [[nodiscard]] AppHandle& handle() { return handle_; }
  [[nodiscard]] const AppHandle& handle() const { return handle_; }
  void teardown() { handle_.teardown(); }

  [[nodiscard]] sim::TaskId feederTask() const { return handle_.taskId("feeder"); }
  /// Throws std::out_of_range in a mode without the decoder (bypass).
  [[nodiscard]] sim::TaskId decoderTask() const { return handle_.taskId("decoder"); }

 private:
  struct FeederState;
  struct DecoderState;

  [[nodiscard]] coproc::SoftCpu::StepHandler feederStep() const;
  [[nodiscard]] coproc::SoftCpu::StepHandler decoderStep() const;
  /// The graph of one mode: play (feeder -> decoder -> sink) or bypass
  /// (feeder -> sink).
  [[nodiscard]] GraphSpec modeSpec(const std::string& name, const AudioAppConfig& cfg) const;

  EclipseInstance& inst_;
  coproc::ByteSink* sink_ = nullptr;
  std::shared_ptr<FeederState> feeder_;
  std::shared_ptr<DecoderState> decoder_;
  AppHandle handle_;
  ModeSet modes_{"audio-modes"};
  std::uint32_t total_samples_ = 0;
  std::uint32_t block_frame_ = 0, pcm_frame_ = 0;
};

}  // namespace eclipse::app
