#pragma once

#include <cstdint>
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
/// model that keeps only per-line state (valid/pending, tag, dirty, LRU):
/// the functional bytes live in the SRAM's Storage and move through
/// WindowViews, while touch() replays exactly the hit / miss / fill / flush
/// traffic the copying cache performed. Fills, flushes and evictions charge
/// the same SRAM bus bursts without moving data.
///
/// touch() and flushRange() are resumable walks, not coroutines: the
/// accessor holds a Walk (in its own awaiter, so in its caller's frame),
/// the walk's SRAM bursts are bus requests completed by callback, and a
/// walk that must wait for a pending line parks a callback on the cache's
/// event. Hits cost no event and no frame.
///
/// Prefetching: a read may carry a line-aligned prefetch hint (computed by
/// the shell, limited to the granted window). The prefetch fetches in the
/// background through a bus request preallocated with the line and
/// completed by callback; a later access to a pending line waits for its
/// completion, which is how prefetch latency hiding shows up in the timing.
///
/// The shell only configures stream buffers that lie inside the SRAM
/// (Shell::configureStream and the MMIO valid bit check it), so every line
/// the cache tracks is a real SRAM address. Line sizes are powers of two
/// (the shell checks), so line arithmetic is masking.
class StreamCache {
 private:
  enum class State : std::uint8_t { Invalid, Pending, Valid };
  struct Line;

 public:
  /// No prefetch hint.
  static constexpr sim::Addr kNoPrefetch = ~sim::Addr{0};

  /// The state of one touch() or flushRange() walk. Owned by the accessor
  /// and at one address until the walk finishes. `finished` runs when a
  /// walk that suspended finishes; a walk that finishes within its
  /// starting call does not run it.
  struct Walk : mem::Bus::Request {
    void (*finished)(Walk&) = nullptr;

   private:
    friend class StreamCache;
    enum class Phase : std::uint8_t { Find, Victim, Evicted, Allocate, Filled, Hit, Flush, Flushed };
    StreamCache* cache_ = nullptr;
    StreamRow* row_ = nullptr;
    sim::Addr addr_ = 0;  // touch: next byte to walk; flush: first line tag
    sim::Addr end_ = 0;   // touch: end of the access; flush: last line tag
    sim::Addr prefetch_ = kNoPrefetch;
    Line* line_ = nullptr;  // touch: the line in hand; flush: next line to scan
    Phase phase_ = Phase::Find;
    bool writing_ = false;
  };

  StreamCache(sim::Simulator& sim, mem::SharedSram& sram, std::uint32_t line_bytes,
              std::uint32_t n_lines);

  StreamCache(const StreamCache&) = delete;
  StreamCache& operator=(const StreamCache&) = delete;

  /// Timing of an access of `len` bytes at SRAM address `addr` through the
  /// cache: the per-line hit/miss walk, where a miss evicts (flushing a
  /// dirty victim over the write bus) and fills over the read bus. A write
  /// is write-back with write-allocate, and a write covering a whole line
  /// allocates without a fill; it marks the lines dirty. `prefetch_addr`,
  /// unless kNoPrefetch, is a line-aligned address to fetch in the
  /// background after servicing the access. Returns true when the walk
  /// suspended (w.finished runs at its end), false when it is done.
  bool touch(Walk& w, StreamRow& row, sim::Addr addr, std::size_t len, bool writing,
             sim::Addr prefetch_addr);

  /// Flushes dirty lines overlapping [addr, addr+len): charges the write
  /// burst per line (timing-only; SRAM is current) and clears dirty bits.
  /// Same return contract as touch().
  bool flushRange(Walk& w, StreamRow& row, sim::Addr addr, std::uint64_t len);

  /// Drops (clean) lines overlapping [addr, addr+len). Dirty lines in the
  /// range indicate a protocol violation and throw.
  void invalidateRange(StreamRow& row, sim::Addr addr, std::uint64_t len);

  /// Starts a background fetch of the line at `line_addr` (no-op if the
  /// line is already present or no clean line can host it).
  void startPrefetch(StreamRow& row, sim::Addr line_addr);

  [[nodiscard]] sim::Addr alignDown(sim::Addr a) const { return a & ~line_mask_; }

  [[nodiscard]] std::uint32_t lineBytes() const { return line_bytes_; }

 private:
  struct Line {
    State state = State::Invalid;
    sim::Addr tag = 0;  // line-aligned SRAM address
    bool dirty = false;
    bool drop = false;  // invalidated while a fill was in flight
    std::uint64_t lru = 0;
  };

  /// The prefetch fill of one line: an SRAM read request preallocated with
  /// the line (a line has at most one fill in flight), completed by
  /// fillDone instead of a process.
  struct Fill : mem::Bus::Request {
    StreamCache* cache = nullptr;
    Line* line = nullptr;
  };

  /// Finds the line holding `line_addr` in any non-Invalid state.
  Line* find(sim::Addr line_addr);

  /// Eviction candidate: the first invalid line, else the LRU valid line;
  /// null while every line is pending.
  Line* victim();

  /// Advances a walk until it finishes (false) or suspends (true).
  bool run(Walk& w);
  bool runTouch(Walk& w);
  bool runFlush(Walk& w);

  /// Continues a suspended walk; runs w.finished once it is done.
  static void resume(Walk& w) {
    if (!w.cache_->run(w)) w.finished(w);
  }
  static void busDone(mem::Bus::Request& r) { resume(static_cast<Walk&>(r)); }

  /// Parks a walk until the next line state change.
  void park(Walk& w) {
    event_.park([p = &w] { resume(*p); });
  }

  static void fillDone(mem::Bus::Request& r);

  sim::Simulator& sim_;
  mem::SharedSram& sram_;
  std::uint32_t line_bytes_;
  sim::Addr line_mask_;  // line_bytes_ - 1
  sim::SimEvent event_;
  std::vector<Line> lines_;
  std::vector<Fill> fills_;  // parallel to lines_
  std::uint64_t lru_clock_ = 0;
};

}  // namespace eclipse::shell
