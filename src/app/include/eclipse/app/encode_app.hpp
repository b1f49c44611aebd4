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
#include "eclipse/coproc/soft_tasks.hpp"
#include "eclipse/media/codec.hpp"

namespace eclipse::app {

/// Stream-buffer sizes of the encode graph.
struct EncodeAppConfig {
  std::uint32_t cur_buffer = 2048;     ///< source -> ME (current MBs)
  std::uint32_t res_buffer = 2048;     ///< ME -> FDCT and recon-loop block streams
  std::uint32_t hdr_buffer = 1024;     ///< ME -> VLE / ME -> recon headers
  std::uint32_t coef_buffer = 4096;    ///< QRLE -> VLE and QRLE -> DEQ
  std::uint32_t token_buffer = 256;    ///< recon -> source frame-done tokens
  std::uint32_t chunk_buffer = 1024;   ///< VLE -> byte sink
  std::uint32_t budget_cycles = 2000;
};

/// One MPEG encoding application on an Eclipse instance.
///
/// The encoder *embeds* a decoder (Section 2.1): the same DCT, RLSQ and
/// MC/ME coprocessors each run two tasks of this application —
///
///   source(CPU) -> ME(MC) -> FDCT(DCT) -> QRLE(RLSQ) -> VLE(CPU) -> sink
///                                             \-> DEQ(RLSQ) -> IDCT(DCT) -> RECON(MC)
///   RECON -> source: frame-done tokens close the reconstruction loop.
///
/// Declared as a GraphSpec and programmed by AppHandle::configure over the
/// PI-bus; this class owns the resulting AppHandle.
class EncodeApp {
 public:
  /// A named encode mode (e.g. "hq"/"eco" with different task budgets).
  using Mode = std::pair<std::string, EncodeAppConfig>;

  /// Single-mode constructor: the mode list {{"encode", cfg}}.
  EncodeApp(EclipseInstance& inst, std::vector<media::Frame> frames,
            const media::CodecParams& params, const EncodeAppConfig& cfg = {});

  /// Multi-mode constructor: validates the family up front and applies the
  /// first mode; the others are reachable live via switchMode(). Modes of
  /// a family must share buffer sizes (field-only transitions): the encode
  /// reconstruction loop never fully drains mid-clip, so stream re-binding
  /// is only possible between clips. A refused construction leaves no
  /// trace on the instance.
  EncodeApp(EclipseInstance& inst, std::vector<media::Frame> frames,
            const media::CodecParams& params, std::vector<Mode> modes);

  /// Live field-only transition to another mode of the family (budget /
  /// task-info rewrites over the PI-bus, no drain, no simulated cycles).
  TransitionStats switchMode(std::string_view mode_name);

  [[nodiscard]] const std::string& currentMode() const { return handle_.currentMode(); }
  [[nodiscard]] const ModeSet& modes() const { return modes_; }

  [[nodiscard]] bool done() const;
  /// The produced elementary stream (valid after completion).
  [[nodiscard]] const std::vector<std::uint8_t>& bitstream() const;

  /// Runtime control (pause/resume/drain/teardown) for this application.
  [[nodiscard]] AppHandle& handle() { return handle_; }
  [[nodiscard]] const AppHandle& handle() const { return handle_; }
  void teardown() { handle_.teardown(); }

  [[nodiscard]] sim::TaskId meTask() const { return handle_.taskId("me"); }
  [[nodiscard]] sim::TaskId fdctTask() const { return handle_.taskId("fdct"); }
  [[nodiscard]] sim::TaskId qrleTask() const { return handle_.taskId("qrle"); }
  [[nodiscard]] sim::TaskId deqTask() const { return handle_.taskId("deq"); }
  [[nodiscard]] sim::TaskId idctTask() const { return handle_.taskId("idct"); }
  [[nodiscard]] sim::TaskId reconTask() const { return handle_.taskId("recon"); }

 private:
  /// The graph of one mode, with this app's software steps and sink.
  [[nodiscard]] GraphSpec modeSpec(const std::string& name, const EncodeAppConfig& cfg) const;

  EclipseInstance& inst_;
  coproc::ByteSink* sink_ = nullptr;
  std::unique_ptr<coproc::EncoderSource> source_;
  std::unique_ptr<coproc::VleTask> vle_;
  AppHandle handle_;
  ModeSet modes_{"encode-modes"};
};

}  // namespace eclipse::app
