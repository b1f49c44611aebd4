#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>

#include "eclipse/sim/fault.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::mem {

/// A 'putspace' synchronization message between two shells (Figure 7).
///
/// When a task commits space with PutSpace, its shell decrements the local
/// space field and sends this message to the shell holding the other access
/// point of the stream, which increments its space field on reception.
struct SyncMessage {
  std::uint32_t src_shell = 0;
  std::uint32_t dst_shell = 0;
  std::uint32_t dst_row = 0;    // stream-table row at the destination shell
  std::uint32_t bytes = 0;      // amount of space released
};

/// Dedicated low-latency network carrying putspace messages between shells.
///
/// Messages between a given (src, dst) pair are delivered in order; the
/// delivery latency models the token-ring / point-to-point sync wiring of
/// the hardware. Delivery invokes the destination shell's handler.
class MessageNetwork {
 public:
  using Handler = std::function<void(const SyncMessage&)>;

  MessageNetwork(sim::Simulator& sim, sim::Cycle latency)
      : sim_(sim), latency_(latency) {}

  /// Registers the message handler for a shell id. Shell ids index a flat
  /// table, so they should be small (an instance numbers its shells 0..N-1).
  void attach(std::uint32_t shell_id, Handler handler) {
    if (shell_id >= handlers_.size()) handlers_.resize(std::size_t{shell_id} + 1);
    handlers_[shell_id] = std::move(handler);
  }

  /// Withdraws a shell's handler (shell removal on instance recycle).
  /// Delivery events capture a pointer to the registered handler, so this
  /// is only sound while no message to `shell_id` is in flight — i.e.
  /// after the simulator has quiesced or its events were destroyed.
  void detach(std::uint32_t shell_id) {
    if (shell_id < handlers_.size()) handlers_[shell_id] = nullptr;
  }

  /// Sends a message; delivery happens `latency` cycles later.
  void send(const SyncMessage& msg) {
    Handler* handler = msg.dst_shell < handlers_.size() ? &handlers_[msg.dst_shell] : nullptr;
    if (handler == nullptr || !*handler) {
      throw std::runtime_error("MessageNetwork: no handler attached for shell " +
                               std::to_string(msg.dst_shell));
    }
    ++messages_sent_;
    bytes_signalled_ += msg.bytes;
    sim::Cycle latency = latency_;
    // Fault hooks: an armed injector may drop this putspace message (the
    // destination shell's space field silently diverges — the canonical
    // lost-synchronisation fault) or deliver it late. Null injector = the
    // pristine path above, bit-identical to a build without faults.
    if (sim::FaultInjector* inj = sim_.faults()) {
      if (inj->shouldDropPutspace(msg.src_shell, sim_.now())) {
        ++messages_dropped_;
        inj->logTrigger({sim::FaultKind::DropPutspace, sim_.now(), msg.src_shell,
                         0, msg.bytes});
        return;
      }
      if (sim::Cycle extra = inj->putspaceDelay(msg.src_shell, sim_.now())) {
        latency += extra;
        inj->logTrigger({sim::FaultKind::DelayPutspace, sim_.now(), msg.src_shell,
                         0, msg.bytes});
      }
    }
    // Captures a pointer plus the 16-byte message: small and trivially
    // copyable, so the delivery event is stored inline in the kernel —
    // no allocation per putspace message.
    sim_.schedule(latency, [handler, msg] { (*handler)(msg); });
  }

  [[nodiscard]] sim::Cycle latency() const { return latency_; }
  [[nodiscard]] std::uint64_t messagesSent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messagesDropped() const { return messages_dropped_; }
  [[nodiscard]] std::uint64_t bytesSignalled() const { return bytes_signalled_; }

 private:
  sim::Simulator& sim_;
  sim::Cycle latency_;
  // Indexed by shell id; an empty handler is a detached id. A deque never
  // moves its elements when it grows, so the handler pointers captured by
  // in-flight delivery events stay valid across attach().
  std::deque<Handler> handlers_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_signalled_ = 0;
};

}  // namespace eclipse::mem
