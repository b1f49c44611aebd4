#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "eclipse/coproc/coprocessor.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/packets.hpp"

namespace eclipse::coproc {

/// DCT coprocessor timing parameters. The paper pipelined this coprocessor
/// as a result of the Figure-10 analysis; `pipelined` models that upgrade.
struct DctParams {
  // Calibrated (EXPERIMENTS.md, E4); the pipelined variant models the
  // Section-7 DCT upgrade.
  sim::Cycle cycles_per_block = 90;
  sim::Cycle cycles_per_block_pipelined = 24;
  bool pipelined = false;

  [[nodiscard]] sim::Cycle blockCycles() const {
    return pipelined ? cycles_per_block_pipelined : cycles_per_block;
  }
};

/// Direction selector in the task_info word: the coprocessor time-shares
/// forward DCT tasks (encoders) and inverse DCT tasks (decoders).
inline constexpr std::uint32_t kDctInfoForward = 1u << 0;

/// (I)DCT coprocessor. Ports per task: 0 = MbBlocks in, 1 = MbBlocks out.
class DctCoproc final : public Coprocessor {
 public:
  static constexpr sim::PortId kIn = 0;
  static constexpr sim::PortId kOut = 1;

  DctCoproc(sim::Simulator& sim, shell::Shell& sh, const DctParams& params)
      : Coprocessor(sim, sh, "dct"), params_(params) {}

  [[nodiscard]] std::uint64_t blocksTransformed() const { return blocks_; }

  /// Recovery (DESIGN §9): drop incoming Mb packets until the next Resync
  /// marker (control packets still pass through unchanged).
  void requestDiscard(sim::TaskId task) { discard_[task] = true; }
  [[nodiscard]] std::uint64_t packetsDiscarded() const { return discarded_; }

  void reset() override { discard_.clear(); }

 protected:
  sim::Task<void> step(sim::TaskId task, std::uint32_t task_info) override;

 private:
  DctParams params_;
  std::map<sim::TaskId, bool> discard_;  ///< per-task discard-until-Resync
  std::uint64_t discarded_ = 0;
  std::uint64_t blocks_ = 0;
  media::ByteWriter writer_;        // reusable Mb serialisation buffer
  std::vector<std::uint8_t> ctl_;  // staged control-packet passthrough
};

}  // namespace eclipse::coproc
