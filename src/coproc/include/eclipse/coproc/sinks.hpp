#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "eclipse/coproc/coprocessor.hpp"
#include "eclipse/media/codec.hpp"

namespace eclipse::coproc {

/// The end of an application's graph, behind its own shell. It is pending
/// while its shell holds a valid task and it has not seen Eos.
class Sink : public Coprocessor {
 public:
  static constexpr sim::PortId kIn = 0;

  using Coprocessor::Coprocessor;

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool pending() const;

 protected:
  /// Eos: latches done, parks the task and stops the simulation after this
  /// event (EclipseInstance::run goes on while another sink is pending).
  void finish(sim::TaskId task);

  bool done_ = false;
};

/// Output-side coprocessor that assembles the MC pixel stream back into
/// display frames (stands in for the display/memory writer of a real SoC).
class FrameSink final : public Sink {
 public:
  static constexpr const char* kName = "frame-sink";

  FrameSink(sim::Simulator& sim, shell::Shell& sh) : Sink(sim, sh, kName) {}

  /// Decoded frames in display order (valid after completion).
  [[nodiscard]] std::vector<media::Frame> framesInDisplayOrder() const;

  [[nodiscard]] std::uint64_t macroblocksReceived() const { return mbs_; }

  /// Frames abandoned mid-assembly when a Resync marker arrived (recovery
  /// accounting: a clip that lost pictures still reports how many).
  [[nodiscard]] std::uint64_t framesDropped() const { return frames_dropped_; }

  /// Re-arms a completed sink for another bitstream segment (multi-segment
  /// playback across mode switches): archives the finished frames and
  /// clears the assembly state and the done latch, so the sink is pending
  /// again. Throws std::logic_error unless done().
  void rearm();

  /// Segments archived by rearm() so far (the live segment is not counted).
  [[nodiscard]] std::size_t segmentsCompleted() const { return segments_.size(); }
  /// Display-order frames of archived segment `i`; throws std::out_of_range.
  [[nodiscard]] const std::vector<media::Frame>& segmentFrames(std::size_t i) const;

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override;

 private:
  media::SeqHeader seq_{};
  media::PicHeader pic_{};
  std::map<int, media::Frame> frames_;  // by temporal_ref
  std::vector<std::vector<media::Frame>> segments_;  // archived by rearm()
  int mb_index_ = 0;
  bool pic_open_ = false;  ///< a picture header arrived, MBs still expected
  std::uint64_t mbs_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

/// Collects a raw byte stream (e.g. the variable-length encoder's output
/// bitstream) delivered as Mb-tagged chunk packets.
class ByteSink final : public Sink {
 public:
  static constexpr const char* kName = "byte-sink";

  ByteSink(sim::Simulator& sim, shell::Shell& sh) : Sink(sim, sh, kName) {}

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override;

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace eclipse::coproc
