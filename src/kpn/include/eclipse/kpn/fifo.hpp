#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::kpn {

/// Thrown by Graph::run() when the network stops with tasks unfinished: in
/// a bounded Kahn network that is a deadlock (an undersized buffer or a
/// cyclic dependency), which Kahn semantics turn into permanent blocking.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounded byte FIFO with blocking semantics — the functional-model stream.
///
/// Exactly one producer and one consumer (the paper's streams have one
/// producer; multicast is expressed with an explicit fork task). Reading
/// from a stream with insufficient data blocks the consumer; writing to a
/// full stream blocks the producer, which is what bounds Kahn's otherwise
/// unbounded FIFOs to a finite buffer.
///
/// The operations are awaitables for the graph's tasks, which run as
/// processes of one sim::Simulator (Graph::run). Blocking is byte-granular:
/// a read takes whatever bytes are there and parks for the rest, a write
/// stores what fits and parks until the consumer makes room. A FIFO holds
/// at most one parked reader and one parked writer; the other side wakes
/// it as a zero-delay event.
class ByteFifo {
 public:
  explicit ByteFifo(std::size_t capacity, std::string name = {})
      : capacity_(capacity), name_(std::move(name)) {
    if (capacity_ == 0) throw std::invalid_argument("ByteFifo: capacity must be > 0");
    data_.resize(capacity_);
  }

  ByteFifo(const ByteFifo&) = delete;
  ByteFifo& operator=(const ByteFifo&) = delete;

  /// Completes when `out.size()` bytes have been read (true) or the stream
  /// closed before the request could be fully satisfied (false).
  sim::Task<bool> readAll(std::span<std::uint8_t> out) {
    std::size_t done = 0;
    while (done < out.size()) {
      if (fill_ == 0) {
        if (closed_) co_return false;
        co_await Park{*this, reader_};
        continue;
      }
      const std::size_t n = std::min(out.size() - done, fill_);
      pop(out.subspan(done, n));
      done += n;
    }
    co_return true;
  }

  /// Completes when at least one byte is available; reads up to out.size().
  /// Returns the number of bytes read; 0 means EOF.
  sim::Task<std::size_t> readSome(std::span<std::uint8_t> out) {
    while (fill_ == 0 && !closed_) co_await Park{*this, reader_};
    const std::size_t n = std::min(out.size(), fill_);
    pop(out.subspan(0, n));
    co_return n;
  }

  /// Completes when all of `in` has been appended.
  /// Throws std::logic_error when writing to a closed stream.
  sim::Task<void> write(std::span<const std::uint8_t> in) {
    std::size_t done = 0;
    while (done < in.size()) {
      if (closed_) throw std::logic_error("ByteFifo: write after close on " + name_);
      if (fill_ == capacity_) {
        co_await Park{*this, writer_};
        continue;
      }
      const std::size_t n = std::min(in.size() - done, capacity_ - fill_);
      push(in.subspan(done, n));
      done += n;
    }
  }

  /// Marks end-of-stream; readers drain remaining bytes, then see EOF.
  void close() {
    closed_ = true;
    wake(reader_);
    wake(writer_);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t fill() const { return fill_; }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::uint64_t totalProduced() const { return produced_; }
  [[nodiscard]] std::uint64_t totalConsumed() const { return consumed_; }
  [[nodiscard]] std::size_t maxFill() const { return max_fill_; }

  /// Binds the FIFO to the kernel that resumes its parked tasks, for one
  /// run of a graph.
  void attach(sim::Simulator& sim) { sim_ = &sim; }

  /// Unbinds the FIFO from its kernel and forgets any parked task: the
  /// handles point into coroutine frames that die with the kernel.
  void detach() {
    sim_ = nullptr;
    reader_ = nullptr;
    writer_ = nullptr;
  }

  /// Which side of the stream has a task parked on it. At most one side
  /// can be: a reader parks only on an empty FIFO, a writer only on a
  /// full one, and a wake clears the slot.
  enum class Parked { none, reader, writer };
  [[nodiscard]] Parked parked() const {
    if (reader_) return Parked::reader;
    if (writer_) return Parked::writer;
    return Parked::none;
  }

 private:
  /// Suspends the calling coroutine in `slot` until the other side wakes it.
  struct Park {
    ByteFifo& fifo;
    std::coroutine_handle<>& slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      if (fifo.sim_ == nullptr) {
        throw std::logic_error("ByteFifo: blocking on '" + fifo.name_ +
                               "' outside a running graph");
      }
      if (slot) throw std::logic_error("ByteFifo: two tasks on one side of " + fifo.name_);
      slot = h;
    }
    void await_resume() const noexcept {}
  };

  void wake(std::coroutine_handle<>& slot) {
    if (slot) sim_->scheduleResume(0, std::exchange(slot, nullptr));
  }

  void pop(std::span<std::uint8_t> out) {
    for (auto& b : out) {
      b = data_[head_];
      head_ = (head_ + 1) % capacity_;
    }
    fill_ -= out.size();
    consumed_ += out.size();
    wake(writer_);
  }

  void push(std::span<const std::uint8_t> in) {
    for (auto b : in) {
      data_[tail_] = b;
      tail_ = (tail_ + 1) % capacity_;
    }
    fill_ += in.size();
    produced_ += in.size();
    max_fill_ = std::max(max_fill_, fill_);
    wake(reader_);
  }

  std::vector<std::uint8_t> data_;
  std::size_t capacity_;
  std::string name_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t fill_ = 0;
  std::size_t max_fill_ = 0;
  bool closed_ = false;
  std::uint64_t produced_ = 0;
  std::uint64_t consumed_ = 0;
  // Bound by attach() for one run: the kernel that resumes a parked task,
  // and the parked consumer and producer.
  sim::Simulator* sim_ = nullptr;
  std::coroutine_handle<> reader_;
  std::coroutine_handle<> writer_;
};

}  // namespace eclipse::kpn
