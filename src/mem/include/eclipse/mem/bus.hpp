#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/sim_event.hpp"
#include "eclipse/sim/simulator.hpp"
#include "eclipse/sim/stats.hpp"

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
/// Sharding: FIFO grant order is a zero-lookahead coupling — every client
/// of this bus must execute on the bus's home shard, which is why the
/// partitioner fuses bus-sharing shells onto one lane. transfer() enforces
/// the affinity at run time when the simulation is sharded.
class Bus {
 public:
  Bus(sim::Simulator& sim, std::string name, std::uint32_t width_bytes,
      sim::Cycle arbitration_latency)
      : sim_(sim),
        name_(std::move(name)),
        width_bytes_(width_bytes == 0 ? 1 : width_bytes),
        arb_latency_(arbitration_latency),
        grant_(sim, 1) {}

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Occupies the bus for the duration of a `bytes`-sized burst.
  sim::Task<void> transfer(std::size_t bytes) {
    if (sim_.sharded()) sim_.assertOnShard(home_shard_, name_.c_str());
    co_await grant_.acquire();
    sim::SemaphoreGuard guard(grant_);
    const sim::Cycle data_cycles = dataCycles(bytes);
    const sim::Cycle total = arb_latency_ + data_cycles;
    co_await sim_.delay(total);
    total_.transactions += 1;
    total_.bytes += bytes;
    total_.busy_cycles += total;
  }

  /// Cycles a burst of `bytes` occupies the data path (excl. arbitration).
  [[nodiscard]] sim::Cycle dataCycles(std::size_t bytes) const {
    return (bytes + width_bytes_ - 1) / width_bytes_;
  }

  /// Shard owning this bus's arbitration state. All clients must execute
  /// there; set by the app-layer partitioner.
  void setHomeShard(sim::ShardId shard) { home_shard_ = shard; }
  [[nodiscard]] sim::ShardId homeShard() const { return home_shard_; }

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
  sim::Simulator& sim_;
  std::string name_;
  std::uint32_t width_bytes_;
  sim::Cycle arb_latency_;
  sim::Semaphore grant_;
  sim::ShardId home_shard_ = 0;
  BusStats total_;
};

}  // namespace eclipse::mem
