#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "eclipse/mem/sram.hpp"
#include "eclipse/shell/tables.hpp"
#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::shell {

/// Per-access-point stream cache (Section 5.2).
///
/// A small, address-tagged, write-back cache between one coprocessor port
/// and the shared on-chip SRAM. There is no snooping: coherency is driven
/// explicitly by the synchronization events —
///   * GetSpace extends the access window  -> invalidate overlapping lines,
///   * PutSpace shrinks the window         -> flush overlapping dirty lines
///     *before* the putspace message goes out.
/// Within the granted window the data is private (observation 1), so plain
/// hits need no communication at all.
///
/// Since the zero-copy transport refactor the cache is a pure *timing*
/// model: the functional bytes live in the SRAM's Storage and move through
/// WindowViews, while touchRead/touchWrite replay exactly the hit / miss /
/// fill / flush traffic the copying cache performed — fills still read the
/// SRAM (timed, into the flat backing), flushes and evictions charge the
/// same write-bus burst without moving data (the SRAM already holds the
/// current bytes; a data flush would overwrite them with a stale mirror).
///
/// Prefetching: a read may carry a line-aligned prefetch hint (computed by
/// the shell, limited to the granted window). The prefetch fetches in the
/// background; a later access to a pending line waits for its completion,
/// which is how prefetch latency hiding shows up in the timing.
class StreamCache {
 public:
  StreamCache(sim::Simulator& sim, mem::SharedSram& sram, std::uint32_t line_bytes,
              std::uint32_t n_lines)
      : sim_(sim),
        sram_(sram),
        line_bytes_(line_bytes),
        event_(sim),
        lines_(n_lines),
        backing_(static_cast<std::size_t>(line_bytes) * n_lines) {}

  StreamCache(const StreamCache&) = delete;
  StreamCache& operator=(const StreamCache&) = delete;

  /// Timing of a read of `len` bytes at SRAM address `addr` through the
  /// cache (per-line hit/miss walk; misses fill from SRAM over the read
  /// bus). `prefetch_addr`, when set, is a line-aligned address to fetch
  /// in the background after servicing the read.
  sim::Task<void> touchRead(StreamRow& row, sim::Addr addr, std::size_t len,
                            std::optional<sim::Addr> prefetch_addr);

  /// Timing of a write of `len` bytes at SRAM address `addr`; write-back
  /// with write-allocate (read-modify-write fetch for partial lines).
  sim::Task<void> touchWrite(StreamRow& row, sim::Addr addr, std::size_t len);

  /// Flushes dirty lines overlapping [addr, addr+len): charges the write
  /// burst per line (timing-only; SRAM is current) and clears dirty bits.
  sim::Task<void> flushRange(StreamRow& row, sim::Addr addr, std::uint64_t len);

  /// Drops (clean) lines overlapping [addr, addr+len). Dirty lines in the
  /// range indicate a protocol violation and throw.
  void invalidateRange(StreamRow& row, sim::Addr addr, std::uint64_t len);

  /// Starts a background fetch of the line at `line_addr` (no-op if the
  /// line is already present or no clean line can host it).
  void startPrefetch(StreamRow& row, sim::Addr line_addr);

  [[nodiscard]] std::uint32_t lineBytes() const { return line_bytes_; }
  [[nodiscard]] std::uint32_t lineCount() const { return static_cast<std::uint32_t>(lines_.size()); }

 private:
  enum class State : std::uint8_t { Invalid, Pending, Valid };

  /// Line metadata; the data lives in the flat `backing_` allocation at
  /// index * line_bytes_.
  struct Line {
    State state = State::Invalid;
    sim::Addr tag = 0;  // line-aligned SRAM address
    bool dirty = false;
    bool drop = false;  // invalidated while a fill was in flight
    std::uint64_t lru = 0;
  };

  [[nodiscard]] sim::Addr alignDown(sim::Addr a) const { return a / line_bytes_ * line_bytes_; }

  /// The backing slice of one line.
  [[nodiscard]] std::span<std::uint8_t> lineData(const Line* l) {
    const auto idx = static_cast<std::size_t>(l - lines_.data());
    return {backing_.data() + idx * line_bytes_, line_bytes_};
  }

  /// Finds the line holding `line_addr` in any non-Invalid state.
  Line* find(sim::Addr line_addr);

  /// Returns a line for `line_addr`, fetching from SRAM unless
  /// `whole_line_write` allows allocation without a fill. Waits on pending
  /// lines. Accounts hits/misses into `row`.
  sim::Task<Line*> acquire(StreamRow& row, sim::Addr line_addr, bool whole_line_write);

  /// Picks an eviction victim (LRU among Valid lines), flushing if dirty.
  /// Suspends while every line is Pending.
  sim::Task<Line*> victim(StreamRow& row);

  /// Background prefetch fill of one line.
  sim::Task<void> prefetchTask(StreamRow& row, Line* line);

  sim::Simulator& sim_;
  mem::SharedSram& sram_;
  std::uint32_t line_bytes_;
  sim::SimEvent event_;
  std::vector<Line> lines_;
  std::vector<std::uint8_t> backing_;  // all line data, contiguous
  std::uint64_t lru_clock_ = 0;
};

}  // namespace eclipse::shell
