#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>

#include "eclipse/sim/simulator.hpp"

namespace eclipse::mem {

/// Statistics kept per bus.
struct BusStats {
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  sim::Cycle busy_cycles = 0;
};

/// Shared bus with FIFO (arrival-order) arbitration.
///
/// A transfer occupies the bus for `arbitration_latency + ceil(bytes/width)`
/// cycles; concurrent requesters queue. The width parameter corresponds to
/// the paper's 128-bit (16-byte) data path; the arbitration latency models
/// the grant handshake.
///
/// A transaction is a Request that lives with its requester, not in a
/// coroutine of its own: `co_await bus.transfer(n)` keeps the request in
/// the caller's frame, and a request that outlives any frame (a stream
/// cache's prefetch fill) is issued with a completion callback. Waiting
/// requests form an intrusive FIFO. The event sequence is the one of a
/// semaphore-guarded burst:
///   * an idle bus schedules the end of the burst at once;
///   * a busy bus queues the request; when the holder's burst ends, the
///     grant passes to the oldest waiter through a zero-delay event (so a
///     requester arriving in that cycle queues behind it), and that event
///     schedules the waiter's burst;
///   * at the end of a burst the bus counts it, passes the grant on, then
///     completes the request — inline, or `tail` cycles later (memories use
///     the tail for their access latency).
class Bus {
 public:
  /// One bus transaction. Must stay at one address from issue to completion.
  struct Request {
    std::size_t bytes = 0;
    sim::Cycle tail = 0;  // cycles from the end of the burst to completion
    std::coroutine_handle<> caller;    // resumed on completion...
    void (*done)(Request&) = nullptr;  // ...unless a callback is set
    Bus* bus = nullptr;
    Request* next = nullptr;  // grant queue link

    void complete() {
      if (done != nullptr) {
        done(*this);
      } else {
        caller.resume();
      }
    }
  };

  /// Awaiter for one transaction, held in the awaiting coroutine's frame.
  class [[nodiscard]] Transfer : public Request {
   public:
    Transfer(Bus& b, std::size_t n, sim::Cycle t) {
      bus = &b;
      bytes = n;
      tail = t;
    }
    Transfer(const Transfer&) = delete;
    Transfer& operator=(const Transfer&) = delete;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      caller = h;
      return bus->start(*this);
    }
    void await_resume() const noexcept {}
  };

  Bus(sim::Simulator& sim, std::string name, std::uint32_t width_bytes,
      sim::Cycle arbitration_latency)
      : sim_(sim),
        name_(std::move(name)),
        width_bytes_(width_bytes == 0 ? 1 : width_bytes),
        arb_latency_(arbitration_latency) {}

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Occupies the bus for the duration of a `bytes`-sized burst; the caller
  /// resumes `tail` cycles after the burst ends.
  Transfer transfer(std::size_t bytes, sim::Cycle tail = 0) { return Transfer(*this, bytes, tail); }

  /// Issues a callback request (`r.done` set): arbitrates now and calls
  /// `r.done` on completion.
  void issue(Request& r) {
    r.bus = this;
    if (!start(r)) r.complete();
  }

  /// Cycles a burst of `bytes` occupies the data path (excl. arbitration).
  [[nodiscard]] sim::Cycle dataCycles(std::size_t bytes) const {
    return (bytes + width_bytes_ - 1) / width_bytes_;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t widthBytes() const { return width_bytes_; }
  [[nodiscard]] sim::Cycle arbitrationLatency() const { return arb_latency_; }
  [[nodiscard]] const BusStats& stats() const { return total_; }

  /// Bus occupancy as a fraction of `elapsed` cycles.
  [[nodiscard]] double utilization(sim::Cycle elapsed) const {
    if (elapsed == 0) return 0.0;
    return static_cast<double>(total_.busy_cycles) / static_cast<double>(elapsed);
  }

  void resetStats() { total_ = BusStats{}; }

 private:
  [[nodiscard]] sim::Cycle occupancy(const Request& r) const {
    return arb_latency_ + dataCycles(r.bytes);
  }

  /// Takes the grant or queues for it. Returns false when `r` completed on
  /// the spot (a zero-cycle burst with no tail on an idle bus); the
  /// requester then completes it itself.
  bool start(Request& r) {
    if (busy_) {
      r.next = nullptr;
      (last_ != nullptr ? last_->next : first_) = &r;
      last_ = &r;
      return true;
    }
    busy_ = true;
    return burst(r);
  }

  /// Runs the granted burst of `r`; same return contract as start().
  bool burst(Request& r) {
    const sim::Cycle cycles = occupancy(r);
    if (cycles == 0) return finish(r);
    sim_.schedule(cycles, [p = &r] {
      if (!p->bus->finish(*p)) p->complete();
    });
    return true;
  }

  /// Ends the burst of `r`: counts it, passes the grant to the oldest
  /// waiter, then schedules the completion after the tail. Returns false
  /// when there is no tail: the caller completes `r` at once.
  bool finish(Request& r) {
    total_.transactions += 1;
    total_.bytes += r.bytes;
    total_.busy_cycles += occupancy(r);
    if (Request* w = first_) {
      first_ = w->next;
      if (first_ == nullptr) last_ = nullptr;
      sim_.schedule(0, [w] {
        if (!w->bus->burst(*w)) w->complete();
      });
    } else {
      busy_ = false;
    }
    if (r.tail == 0) return false;
    if (r.done != nullptr) {
      sim_.schedule(r.tail, [p = &r] { p->done(*p); });
    } else {
      sim_.scheduleResume(r.tail, r.caller);
    }
    return true;
  }

  sim::Simulator& sim_;
  std::string name_;
  std::uint32_t width_bytes_;
  sim::Cycle arb_latency_;
  bool busy_ = false;
  Request* first_ = nullptr;  // grant queue, oldest first
  Request* last_ = nullptr;
  BusStats total_;
};

}  // namespace eclipse::mem
