#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "eclipse/coproc/coprocessor.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/mem/sram.hpp"

namespace eclipse::coproc {

/// MC/ME coprocessor timing parameters.
struct McParams {
  sim::Cycle cycles_per_block_add = 8;    ///< residual add per 8x8 block
  sim::Cycle cycles_per_candidate = 16;   ///< SAD evaluation per ME candidate
  int search_range = 4;                   ///< full-pel ME range (encode tasks)
  bool half_pel = true;                   ///< half-pel ME refinement
};

/// What a task on the MC/ME coprocessor does. The same hardware performs
/// decoder motion compensation and encoder motion estimation plus the
/// encoder's reconstruction loop (Section 6: "motion compensation / motion
/// estimation (MC/ME) coprocessor").
enum class McTaskKind : std::uint8_t {
  DecodeRecon = 0,  ///< in: residual(0), header(1); out: pixels(2)
  MotionEst = 1,    ///< in: current MBs(0); out: residual(1), hdr->VLE(2), hdr->recon(3)
  EncodeRecon = 2,  ///< in: residual(0), header(1); out: picture-done tokens(2)
};

/// Per-task configuration: the off-chip reference frame store this task
/// uses. MotionEst and EncodeRecon tasks of the same encoding application
/// must point at the same store.
struct McTaskConfig {
  McTaskKind kind = McTaskKind::DecodeRecon;
  sim::Addr frame_store_base = 0;
  std::uint32_t frame_store_slots = 3;
};

/// Motion compensation / motion estimation coprocessor with a dedicated
/// connection to the system bus for off-chip reference frame access.
class McCoproc final : public Coprocessor {
 public:
  static constexpr sim::PortId kInRes = 0;
  static constexpr sim::PortId kInHdr = 1;
  static constexpr sim::PortId kOutPix = 2;
  static constexpr sim::PortId kOutToken = 2;
  static constexpr sim::PortId kInCur = 0;
  static constexpr sim::PortId kOutRes = 1;
  static constexpr sim::PortId kOutHdrVle = 2;
  static constexpr sim::PortId kOutHdrRec = 3;

  McCoproc(sim::Simulator& sim, shell::Shell& sh, mem::OffChipMemory& dram,
           const McParams& params)
      : Coprocessor(sim, sh, "mc"), dram_(dram), params_(params) {}

  void configureTask(sim::TaskId task, const McTaskConfig& cfg);

  [[nodiscard]] std::uint64_t predictionsFetched() const { return predictions_; }
  [[nodiscard]] std::uint64_t searchesPerformed() const { return searches_; }

  /// Picture boundaries as observed by this (last) pipeline stage — the
  /// time intervals used to segment the Figure-10 buffer-fill traces.
  struct PicEvent {
    sim::TaskId task = 0;
    media::PicHeader pic{};
    sim::Cycle at = 0;
  };
  [[nodiscard]] const std::vector<PicEvent>& picEvents() const { return pic_events_; }

  /// Bytes of one frame slot for the given sequence geometry.
  [[nodiscard]] static std::uint32_t frameSlotBytes(const media::SeqHeader& sh) {
    return static_cast<std::uint32_t>(sh.width) * sh.height * 3 / 2;
  }

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override;

 private:
  /// Reference slot rotation shared by all task kinds (mirrors the
  /// two-reference sliding window of MPEG decoding).
  struct RefSlots {
    std::int32_t prev = -1;
    std::int32_t last = -1;

    [[nodiscard]] std::int32_t pickFree(std::uint32_t nslots) const {
      for (std::int32_t s = 0; s < static_cast<std::int32_t>(nslots); ++s) {
        if (s != prev && s != last) return s;
      }
      return 0;
    }
    void rotate(std::int32_t w) {
      prev = last;
      last = w;
    }
  };

  struct TaskState {
    McTaskConfig cfg;
    media::SeqHeader seq{};
    media::PicHeader pic{};
    bool have_seq = false;
    bool prev_pic_was_ref = false;
    RefSlots refs;
    std::int32_t write_slot = -1;
    int mb_index = 0;
    int mb_count = 0;
  };

  sim::Task<void> stepDecodeRecon(sim::TaskId task, TaskState& st);
  sim::Task<void> stepMotionEst(sim::TaskId task, TaskState& st);
  sim::Task<void> stepEncodeRecon(sim::TaskId task, TaskState& st);

  /// Handles the Pic-packet boundary bookkeeping common to all kinds.
  void onPicHeader(TaskState& st, const media::PicHeader& ph);

  // --- frame store access (timed via the system bus) ---

  [[nodiscard]] sim::Addr slotBase(const TaskState& st, std::int32_t slot) const;

  /// Fetches a clamped full-pel region of one plane into `out` (row-major,
  /// w x h). Timing: one burst per plane region.
  sim::Task<void> fetchRegion(TaskState& st, std::int32_t slot, int plane, int x0, int y0, int w,
                              int h, std::vector<std::uint8_t>& out);

  /// Writes a reconstructed macroblock into a frame slot.
  sim::Task<void> writeReconMb(TaskState& st, std::int32_t slot, int mb_x, int mb_y,
                               const media::MbPixels& px);

  /// Motion-compensated prediction exactly matching stages::predictMb,
  /// fetching from the frame store with timing.
  sim::Task<void> predictTimed(TaskState& st, const media::MbHeader& h, media::MbPixels& pred);

  /// Motion search + mode decision for one macroblock (encode tasks).
  /// Fills h.mode and the motion vectors.
  sim::Task<void> decideMode(TaskState& st, const media::MbPixels& cur, media::MbHeader& h);

  mem::OffChipMemory& dram_;
  McParams params_;
  std::map<sim::TaskId, TaskState> states_;
  std::vector<PicEvent> pic_events_;
  std::uint64_t predictions_ = 0;
  std::uint64_t searches_ = 0;

  // Reusable scratch (steps are serial per coprocessor): fetched reference
  // regions and the outgoing-packet serialisation buffer.
  media::ByteWriter writer_;
  std::vector<std::uint8_t> region_, rcb_, rcr_;  // predictTimed fetches
  std::vector<std::uint8_t> win_f_, win_b_;       // decideMode search windows
};

}  // namespace eclipse::coproc
