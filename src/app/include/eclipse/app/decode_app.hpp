#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eclipse/app/configurator.hpp"
#include "eclipse/app/instance.hpp"
#include "eclipse/app/mode_set.hpp"
#include "eclipse/media/types.hpp"

namespace eclipse::app {

/// Stream-buffer sizes of the decode graph (bytes, cache-line multiples).
/// Defaults fit two simultaneous decode applications in a 32 kB SRAM.
struct DecodeAppConfig {
  std::uint32_t coef_buffer = 4096;    ///< VLD -> RLSQ
  std::uint32_t hdr_buffer = 1024;     ///< VLD -> MC (headers / motion vectors)
  std::uint32_t blocks_buffer = 2048;  ///< RLSQ -> DCT
  std::uint32_t res_buffer = 2048;     ///< DCT -> MC (residuals)
  std::uint32_t pix_buffer = 2048;     ///< MC -> output
  std::uint32_t budget_cycles = 2000;  ///< scheduler budget for every task
  /// When false, the VLD task starts disabled; a controller (e.g. a demux
  /// task that must stage the elementary stream first) enables it later
  /// through the task table. Run-time application control, Section 3.
  bool vld_enabled = true;
};

/// One MPEG decoding application on an Eclipse instance — the Figure-2
/// process network mapped as in Figure 3/8:
///
///   bitstream (off-chip) -> VLD -> RLSQ -> DCT(inverse) -> MC -> sink
///                              \________________________--^
///                               (headers / motion vectors)
///
/// The graph is declared as a GraphSpec and programmed onto the instance
/// by AppHandle::configure over the PI-bus; this class is a thin adapter that
/// owns the resulting AppHandle. Several DecodeApps can run on the same
/// instance simultaneously; each adds one task to every coprocessor's task
/// table (time-shared hardware).
class DecodeApp {
 public:
  /// A named decode mode: the GraphSpec carries the mode name, the config
  /// its buffer sizes and budgets.
  using Mode = std::pair<std::string, DecodeAppConfig>;

  /// Single-mode constructor: the mode list {{"decode", cfg}}.
  DecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> bitstream,
            const DecodeAppConfig& cfg = {});

  /// Multi-mode constructor: validates the whole mode family up front
  /// (ModeSet::validate) and applies the first mode; later modes are
  /// reachable live. A refused construction leaves no trace on the instance.
  DecodeApp(EclipseInstance& inst, std::vector<std::uint8_t> bitstream,
            std::vector<Mode> modes);

  /// Live in-clip transition to another mode of the family (diff-based,
  /// AppHandle::switchTo). Field-only diffs — budget/priority modes over
  /// identical topology, e.g. a degraded low-power mode — complete without
  /// draining or advancing the simulation, so this is safe to call from
  /// inside a fault callback. Modes with different buffer sizes re-bind
  /// the affected streams (partial drain, advances the simulation).
  TransitionStats switchMode(std::string_view mode_name);

  /// Segment boundary: after the current bitstream finished (done()),
  /// switches to `mode_name`, points the VLD at the next segment's
  /// bitstream and re-arms the sink — SD↔HD adaptive-bitrate decode without
  /// tearing the application down. Finished frames of the previous segment
  /// are archived (segmentFrames). Throws std::logic_error unless done(); a
  /// refused switch leaves the finished application as it was.
  TransitionStats switchSegment(std::string_view mode_name, std::vector<std::uint8_t> bitstream);

  /// Active mode name ("decode" for the single-mode constructor).
  [[nodiscard]] const std::string& currentMode() const { return handle_.currentMode(); }
  [[nodiscard]] const ModeSet& modes() const { return modes_; }

  [[nodiscard]] bool done() const;
  [[nodiscard]] std::vector<media::Frame> frames() const;
  [[nodiscard]] std::uint64_t macroblocksDecoded() const;

  /// Installs the graceful-degradation policy (DESIGN §9): when a fault
  /// latches on one of the application's tasks, drop the damaged picture,
  /// flush in-flight stream data up to an in-band Resync marker, restart
  /// the VLD at the next I-frame and keep decoding. A fault on the VLD
  /// itself (unparseable source) aborts the stream cleanly instead, so the
  /// clip still completes with whatever was decoded.
  void enableRecovery();

  /// Fault recoveries performed so far (enableRecovery() policy runs).
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

  /// enableRecovery(), plus: the first recovered fault also drops the
  /// application into `degraded_mode` (a mode of the family, typically a
  /// reduced-budget low-power graph) via a live field-only switch — the
  /// PR-4 fault path feeding the mode-set machinery. Requires the
  /// multi-mode constructor and a field-only diff to the degraded mode.
  void enableDegradedFallback(std::string degraded_mode);

  /// True once the degraded fallback fired.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Frames the sink abandoned mid-assembly during recovery.
  [[nodiscard]] std::uint64_t framesDropped() const;

  /// Segments archived by switchSegment() so far.
  [[nodiscard]] std::size_t segmentsCompleted() const;
  /// Display-order frames of archived segment `i`.
  [[nodiscard]] std::vector<media::Frame> segmentFrames(std::size_t i) const;

  /// Runtime control (pause/resume/drain/teardown) for this application.
  [[nodiscard]] AppHandle& handle() { return handle_; }
  [[nodiscard]] const AppHandle& handle() const { return handle_; }
  /// Frees every resource the application holds (see AppHandle::teardown).
  void teardown() { handle_.teardown(); }

  // Placed streams for measurement (Figures 9/10: buffer filling of the
  // RLSQ, DCT and MC input streams) and task slots, read from the handle's
  // current graph. A returned stream reference holds until the next mode
  // switch, which re-places the streams.
  [[nodiscard]] const AppStream& coefStream() const { return handle_.stream("coef"); }
  [[nodiscard]] const AppStream& hdrStream() const { return handle_.stream("hdr"); }
  [[nodiscard]] const AppStream& blocksStream() const { return handle_.stream("blocks"); }
  [[nodiscard]] const AppStream& resStream() const { return handle_.stream("res"); }
  [[nodiscard]] const AppStream& pixStream() const { return handle_.stream("pix"); }

  [[nodiscard]] sim::TaskId vldTask() const { return handle_.taskId("vld"); }
  [[nodiscard]] sim::TaskId rlsqTask() const { return handle_.taskId("rlsq"); }
  [[nodiscard]] sim::TaskId dctTask() const { return handle_.taskId("idct"); }
  [[nodiscard]] sim::TaskId mcTask() const { return handle_.taskId("mc"); }

 private:
  /// The graph of one mode, ending at this app's frame sink.
  [[nodiscard]] GraphSpec modeSpec(const std::string& name, const DecodeAppConfig& cfg) const;
  /// Parses the sequence header; returns the transition hook that stages
  /// the bitstream and frame store off-chip and points the VLD and MC tasks
  /// at them. Shared by the constructor and switchSegment().
  std::function<void(AppHandle&)> stageBitstream(std::vector<std::uint8_t> bitstream);
  /// The recovery policy of enableRecovery() for one latched fault.
  void recoverFrom(const TaskFault& f);

  EclipseInstance& inst_;
  coproc::FrameSink* sink_ = nullptr;
  AppHandle handle_;
  ModeSet modes_{"decode-modes"};
  std::string degraded_mode_;
  std::uint64_t recoveries_ = 0;
  bool degraded_ = false;
};

}  // namespace eclipse::app
