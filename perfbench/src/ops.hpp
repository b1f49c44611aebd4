#pragma once

// One benchmark operation: a cold Eclipse instance, one or more decode /
// encode applications configured onto it, a run to completion, output
// verification and teardown. Every call into a module is wrapped in a span,
// and the modules' public counters are read back afterwards.

#include <array>
#include <cstdint>
#include <vector>

#include "eclipse/app/instance.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/types.hpp"
#include "trace.hpp"

namespace perfbench {

/// The five Figure-8 coprocessors, by shell name.
inline constexpr std::array<const char*, 5> kCoprocs = {"vld", "rlsq", "dct", "mc", "dsp-cpu"};

/// Simulated statistics of one operation (exact for a fixed input). Kept as
/// doubles so per-job averages over a mix stay in one type.
struct Counters {
  double cycles = 0, events = 0;
  // mem
  double putspace_msgs = 0, bus_transactions = 0, pibus_writes = 0;
  double sram_rd_busy = 0, sram_wr_busy = 0, sys_bus_busy = 0;  ///< busy cycles
  // shell (summed over every stream row of every shell)
  double cache_hits = 0, cache_misses = 0, cache_flushes = 0, prefetches = 0;
  double getspace_calls = 0, getspace_denied = 0, task_switches = 0, bytes_transferred = 0;
  // coproc
  std::array<double, kCoprocs.size()> busy{};  ///< busy cycles, kCoprocs order
  double steps = 0, vld_symbols = 0, dct_blocks = 0, mc_predictions = 0, mc_searches = 0;

  Counters& operator+=(const Counters& o);
  Counters& operator/=(double d);
};

/// One application of an operation. Pointers refer to inputs owned by the
/// workload, which outlive the operation.
struct AppRun {
  bool encode = false;
  const std::vector<std::uint8_t>* bitstream = nullptr;     ///< decode input
  const std::vector<eclipse::media::Frame>* golden = nullptr;  ///< decode reference frames
  const std::vector<eclipse::media::Frame>* frames = nullptr;  ///< encode input
  const eclipse::media::CodecParams* codec = nullptr;       ///< encode parameters
  /// Encode reference stream; null checks completion only.
  const std::vector<std::uint8_t>* golden_bits = nullptr;
};

struct OpResult {
  bool ok = false;  ///< every application finished and matched its reference
  Counters counters;
};

/// Runs one operation on a fresh instance built from `params`. Spans:
/// op > app.build, app.configure, sim.run, media.verify, app.teardown.
OpResult runOp(const eclipse::app::InstanceParams& params, const std::vector<AppRun>& apps,
               Tracer& tracer, std::uint64_t op);

}  // namespace perfbench
