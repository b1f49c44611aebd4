#pragma once

#include <cstdint>
#include <map>

#include "eclipse/coproc/coprocessor.hpp"
#include "eclipse/media/codec.hpp"

namespace eclipse::coproc {

/// RLSQ coprocessor timing parameters.
struct RlsqParams {
  // Calibrated so the coprocessor throughput ratios reproduce the paper's
  // per-frame-type bottleneck behaviour (see EXPERIMENTS.md, E4).
  sim::Cycle cycles_per_pair = 14;  ///< per run/level symbol processed
  sim::Cycle cycles_per_block = 4;  ///< fixed scan + quant pipeline cost per coded block
};

/// Direction selector carried in the task_info word (the task-table
/// parameter returned by GetTask): the same hardware performs run-length
/// decoding + inverse scan + inverse quantisation for decoders, and
/// quantisation + scan + run-length encoding for encoders (Section 6).
inline constexpr std::uint32_t kRlsqInfoEncode = 1u << 0;

/// Run-length / scan / quantisation coprocessor.
///
/// Decode tasks: port 0 = MbCoefs in, port 1 = MbBlocks out.
/// Encode tasks: port 0 = MbBlocks (DCT coefficients) in,
///               port 1 = MbCoefs out (to VLE),
///               port 2 = MbCoefs out (to the reconstruction loop).
class RlsqCoproc final : public Coprocessor {
 public:
  static constexpr sim::PortId kIn = 0;
  static constexpr sim::PortId kOut = 1;
  static constexpr sim::PortId kOutRecon = 2;

  RlsqCoproc(sim::Simulator& sim, shell::Shell& sh, const RlsqParams& params)
      : Coprocessor(sim, sh, "rlsq"), params_(params) {}

  /// Recovery (DESIGN §9): drop incoming packets until a Resync marker (or
  /// Eos) arrives. Issued by the CPU before re-enabling a faulted task so
  /// stale in-flight data from before the fault never reaches downstream.
  void requestDiscard(sim::TaskId task) { states_[task].discard = true; }

  /// Packets dropped while in discard mode (all tasks).
  [[nodiscard]] std::uint64_t packetsDiscarded() const { return discarded_; }

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override;

 private:
  struct TaskState {
    media::SeqHeader seq{};
    media::PicHeader pic{};
    bool have_seq = false;
    bool pic_is_ref = false;
    bool discard = false;  ///< dropping packets until the next Resync/Eos
  };

  sim::Task<void> stepDecode(sim::TaskId task, TaskState& st);
  sim::Task<void> stepEncode(sim::TaskId task, TaskState& st);

  RlsqParams params_;
  std::map<sim::TaskId, TaskState> states_;
  media::ByteWriter writer_;  // reusable serialisation buffer (steps are serial)
  std::uint64_t discarded_ = 0;
};

}  // namespace eclipse::coproc
