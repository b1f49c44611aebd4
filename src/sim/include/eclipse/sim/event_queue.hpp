#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "eclipse/sim/event.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

/// Time-ordered queue of simulation events.
///
/// Two-level scheduler tuned for the kernel's delay mix (95% of pushes are
/// fewer than 16 cycles ahead, under 1% are 64 or more; DESIGN §6):
///   * a near wheel covering the next `kWheelSpan` cycles. Each cycle's
///     FIFO is an intrusive list threaded through one contiguous slab of
///     event nodes; freed nodes go on a LIFO free list, so the nodes in use
///     stay few and cache-hot. Per-slot head/tail indices and a two-word
///     occupancy bitmap make push, pop and the next-busy-cycle scan O(1),
///   * an overflow min-heap on (cycle, sequence) for events beyond the
///     wheel horizon; entries migrate into the wheel when the window
///     advances past them.
///
/// Events at the same cycle execute in insertion order (FIFO), which keeps
/// the simulation deterministic regardless of container internals. The
/// FIFO guarantee holds across the wheel/heap boundary: far-future events
/// migrate into their slot the moment the window reaches them, i.e.
/// before any later push to the same cycle can land there.
class EventQueue {
 public:
  /// Cycles covered by the wheel ahead of the current window base: enough
  /// for the 99.4% of pushes under 64 cycles ahead with room to spare, and
  /// a power of two, so a cycle's slot is its low bits.
  static constexpr Cycle kWheelSpan = 128;

  EventQueue() { head_.fill(kNil); }

  /// Schedules an event at absolute cycle `at`, built directly in its
  /// wheel node from `what`: a coroutine handle, a callable (see Event) or
  /// an Event. Cycles before the window base (only reachable
  /// through direct queue use — the Simulator clamps to `now()`) fire at
  /// the earliest pending opportunity. The wheel path is inline; events
  /// beyond the horizon take the out-of-line overflow path.
  template <typename T>
  [[gnu::always_inline]] void emplace(Cycle at, T&& what) {
    if (at < base_) at = base_;
    if (at - base_ < kWheelSpan) [[likely]] {
      slab_[link(slotOf(at))].ev.set(std::forward<T>(what));
    } else {
      pushFar(at, Event(std::forward<T>(what)));
    }
    if (next_valid_ && at < next_cycle_) next_cycle_ = at;
    ++size_;
  }

  /// Schedules `ev` at absolute cycle `at` (see emplace).
  void push(Cycle at, const Event& ev) { emplace(at, ev); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Cycle of the earliest pending event. Undefined when empty. Cached:
  /// repeated calls while draining a cycle cost one comparison, not a
  /// bitmap scan.
  [[nodiscard]] Cycle nextCycle() const {
    if (!next_valid_) {
      next_cycle_ = wheel_count_ > 0 ? scanWheel() : overflow_.front().at;
      next_valid_ = true;
    }
    return next_cycle_;
  }

  /// Removes and returns the earliest pending event. Undefined when empty.
  Event pop(Cycle* at = nullptr) {
    if (at != nullptr) *at = nextCycle();
    const std::uint32_t i = unlinkNext();
    const Event ev = slab_[i].ev;
    release(i);
    return ev;
  }

  /// Removes the earliest pending event and runs it from its node, without
  /// moving it out first. Undefined when empty. The node goes back on the
  /// free list before the event runs, so whatever the event schedules can
  /// reuse it: a coroutine event reads its handle word first; a callable
  /// copies itself out of the node before it runs (slab growth during the
  /// call may move the node). If the event throws, the queue is already
  /// consistent.
  void dispatchNext() {
    const std::uint32_t i = unlinkNext();
    const Event& ev = slab_[i].ev;
    const auto fn = ev.invoke_;
    if (fn == nullptr) {
      void* const h = ev.storage_.coro;
      release(i);
      if (h != nullptr) std::coroutine_handle<>::from_address(h).resume();
    } else {
      release(i);
      fn(ev.storage_);
    }
  }

  /// Drops every pending event (used during simulator teardown so no
  /// scheduled resume outlives its coroutine frame). The slab keeps its
  /// capacity for reuse.
  void clear() {
    if (size_ == 0) return;
    slab_.clear();
    free_ = kNil;
    head_.fill(kNil);
    bitmap_.fill(0);
    overflow_.clear();
    wheel_count_ = 0;
    size_ = 0;
    next_valid_ = false;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kMask = kWheelSpan - 1;

  // scanWheel treats the occupancy bitmap as exactly two words.
  static_assert(kWheelSpan == 2 * 64);

  struct Node {
    Event ev;           // stale while the node is on the free list
    std::uint32_t next; // next node of the same cycle, or of the free list
  };
  struct Far {
    Cycle at;
    std::uint64_t seq;
    Event ev;
  };
  struct FarLater {
    bool operator()(const Far& a, const Far& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  [[nodiscard]] static std::size_t slotOf(Cycle at) {
    return static_cast<std::size_t>(at) & kMask;
  }

  /// Appends a node to the FIFO of `slot`, taking it from the free list
  /// (most recently freed first) or growing the slab, and returns its
  /// index. The caller overwrites the node's event.
  std::uint32_t link(std::size_t slot) {
    std::uint32_t i = free_;
    if (i != kNil) [[likely]] {
      free_ = slab_[i].next;
    } else {
      i = grow();
    }
    slab_[i].next = kNil;
    if (head_[slot] == kNil) {
      head_[slot] = i;
      bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    } else {
      slab_[tail_[slot]].next = i;
    }
    tail_[slot] = i;
    ++wheel_count_;
    return i;
  }

  [[gnu::noinline]] std::uint32_t grow() {
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  [[gnu::noinline]] void pushFar(Cycle at, const Event& ev) {
    overflow_.push_back(Far{at, seq_++, ev});
    std::push_heap(overflow_.begin(), overflow_.end(), FarLater{});
  }

  /// Unlinks the earliest pending event's node from its cycle's FIFO and
  /// returns its index; the caller releases it.
  /// Advancing the window migrates overflow entries that now fit before
  /// anything else runs. A window jump (every pending event in the
  /// overflow heap) migrates the heap top's cycle into the wheel first;
  /// same-cycle peers carry larger seq values, so FIFO order holds.
  std::uint32_t unlinkNext() {
    const Cycle c = nextCycle();
    --size_;
    if (c != base_) {
      base_ = c;
      if (!overflow_.empty() && overflow_.front().at - base_ < kWheelSpan) migrate();
    }
    const std::size_t slot = slotOf(c);
    const std::uint32_t i = head_[slot];
    const std::uint32_t next = slab_[i].next;
    head_[slot] = next;
    if (next == kNil) {
      bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      next_valid_ = false;  // this cycle is drained; rescan on next query
    }
    --wheel_count_;
    return i;
  }

  /// Puts a dispatched node on the free list.
  void release(std::uint32_t i) {
    slab_[i].next = free_;
    free_ = i;
  }

  /// Earliest occupied cycle within the window. Requires wheel_count_ > 0.
  /// In ring order from the window base's slot: that slot's word from the
  /// base bit up, then the whole other word, then the base word's low
  /// (wrapped) bits.
  [[nodiscard]] Cycle scanWheel() const {
    const std::size_t start = slotOf(base_);
    const std::size_t word = start >> 6;
    std::size_t idx;
    if (const std::uint64_t bits = bitmap_[word] & (~std::uint64_t{0} << (start & 63))) {
      idx = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    } else if (const std::uint64_t other = bitmap_[word ^ 1]) {
      idx = ((word ^ 1) << 6) + static_cast<std::size_t>(std::countr_zero(other));
    } else {
      idx = (word << 6) + static_cast<std::size_t>(std::countr_zero(bitmap_[word]));
    }
    return base_ + static_cast<Cycle>((idx - start) & kMask);
  }

  /// Pulls overflow entries that now fall inside the window (base_ has
  /// just advanced) into their slots. Window advancement happens only
  /// inside unlinkNext(), which migrates before any event runs — so migration
  /// always precedes any later same-cycle push, preserving cross-boundary
  /// FIFO order.
  void migrate() {
    while (!overflow_.empty() && overflow_.front().at - base_ < kWheelSpan) {
      std::pop_heap(overflow_.begin(), overflow_.end(), FarLater{});
      slab_[link(slotOf(overflow_.back().at))].ev = overflow_.back().ev;
      overflow_.pop_back();
    }
  }

  std::vector<Node> slab_;
  std::uint32_t free_ = kNil;                 // LIFO free list through Node::next
  std::array<std::uint32_t, kWheelSpan> head_;  // first node per slot, kNil if empty
  std::array<std::uint32_t, kWheelSpan> tail_{};  // last node per slot (valid when head is)
  std::array<std::uint64_t, 2> bitmap_{};     // bit s set iff slot s is non-empty
  std::vector<Far> overflow_;  // min-heap on (at, seq) via std::*_heap
  Cycle base_ = 0;             // window start: no pending event is earlier
  std::uint64_t seq_ = 0;      // orders same-cycle overflow entries
  std::size_t wheel_count_ = 0;
  std::size_t size_ = 0;
  mutable Cycle next_cycle_ = 0;     // cached earliest pending cycle
  mutable bool next_valid_ = false;  // push keeps it monotone; pop refreshes
};

}  // namespace eclipse::sim
