#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "eclipse/mem/bus.hpp"
#include "eclipse/mem/storage.hpp"
#include "eclipse/sim/coro.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::mem {

/// Parameters for the central on-chip stream-buffer memory.
///
/// The paper's first instance uses a 32 kB SRAM with a 128-bit data path and
/// separate read and write buses (SRAM at 300 MHz serving two 150 MHz
/// buses), so reads and writes do not contend with each other.
struct SramParams {
  std::size_t size_bytes = 32 * 1024;
  std::uint32_t bus_width_bytes = 16;  // 128-bit data path
  sim::Cycle bus_arbitration_latency = 1;
  sim::Cycle access_latency = 1;  // SRAM array access after grant
};

/// Central on-chip SRAM holding the cyclic stream FIFOs.
///
/// Timed access goes through the read or write bus (FIFO arbitration among
/// shells); functional access for configuration goes via storage().
class SharedSram {
 public:
  SharedSram(sim::Simulator& sim, const SramParams& params)
      : sim_(sim),
        params_(params),
        storage_(params.size_bytes),
        read_bus_(sim, "sram.read", params.bus_width_bytes, params.bus_arbitration_latency),
        write_bus_(sim, "sram.write", params.bus_width_bytes, params.bus_arbitration_latency) {}

  /// Timed read of `out.size()` bytes at `addr`.
  sim::Task<void> read(sim::Addr addr, std::span<std::uint8_t> out) {
    co_await read_bus_.transfer(out.size());
    co_await sim_.delay(params_.access_latency);
    storage_.read(addr, out);
  }

  /// Timed write of `in.size()` bytes at `addr`.
  sim::Task<void> write(sim::Addr addr, std::span<const std::uint8_t> in) {
    co_await write_bus_.transfer(in.size());
    co_await sim_.delay(params_.access_latency);
    storage_.write(addr, in);
  }

  /// Timing-only accesses: occupy the bus and pay the access latency for a
  /// `bytes`-sized burst without moving data. Cycle-identical to read/write
  /// of the same size — used where the model splits function from timing
  /// (the zero-copy transport path: data moves through window views while
  /// the stream caches replay the original fill/flush traffic).
  sim::Task<void> touchRead(std::size_t bytes) {
    co_await read_bus_.transfer(bytes);
    co_await sim_.delay(params_.access_latency);
  }
  sim::Task<void> touchWrite(std::size_t bytes) {
    co_await write_bus_.transfer(bytes);
    co_await sim_.delay(params_.access_latency);
  }

  /// Homes the SRAM (storage + both buses) on one shard. Every shell that
  /// touches this memory must execute there — the partitioner's fusion rule.
  void setHomeShard(sim::ShardId shard) {
    read_bus_.setHomeShard(shard);
    write_bus_.setHomeShard(shard);
  }
  [[nodiscard]] sim::ShardId homeShard() const { return read_bus_.homeShard(); }

  [[nodiscard]] Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }
  [[nodiscard]] Bus& readBus() { return read_bus_; }
  [[nodiscard]] Bus& writeBus() { return write_bus_; }
  [[nodiscard]] const SramParams& params() const { return params_; }

 private:
  sim::Simulator& sim_;
  SramParams params_;
  Storage storage_;
  Bus read_bus_;
  Bus write_bus_;
};

/// Parameters for off-chip (system) memory holding reference frames and
/// compressed input bit-streams. Accessed over the system bus by the MC/ME
/// and VLD coprocessors (paper, Section 6).
struct DramParams {
  std::size_t size_bytes = 16 * 1024 * 1024;
  std::uint32_t bus_width_bytes = 8;  // 64-bit system bus
  sim::Cycle bus_arbitration_latency = 2;
  sim::Cycle access_latency = 60;  // off-chip random-access penalty (reads stall; writes post)
};

/// Off-chip memory model: single shared system bus, long access latency.
class OffChipMemory {
 public:
  OffChipMemory(sim::Simulator& sim, const DramParams& params)
      : sim_(sim),
        params_(params),
        storage_(params.size_bytes),
        bus_(sim, "system.bus", params.bus_width_bytes, params.bus_arbitration_latency) {}

  sim::Task<void> read(sim::Addr addr, std::span<std::uint8_t> out) {
    co_await bus_.transfer(out.size());
    co_await sim_.delay(params_.access_latency);
    storage_.read(addr, out);
  }

  sim::Task<void> write(sim::Addr addr, std::span<const std::uint8_t> in) {
    co_await bus_.transfer(in.size());
    co_await sim_.delay(params_.access_latency);
    storage_.write(addr, in);
  }

  /// Timing-only accesses: occupy the bus and pay the access latency for a
  /// `bytes`-sized burst without moving data. Used where the model splits
  /// function from timing (e.g. 2D region gathers in the MC coprocessor).
  sim::Task<void> touchRead(std::size_t bytes) {
    co_await bus_.transfer(bytes);
    co_await sim_.delay(params_.access_latency);
  }
  sim::Task<void> touchWrite(std::size_t bytes) {
    co_await bus_.transfer(bytes);
    co_await sim_.delay(params_.access_latency);
  }

  /// Homes the off-chip memory (storage + system bus) on one shard; see
  /// SharedSram::setHomeShard.
  void setHomeShard(sim::ShardId shard) { bus_.setHomeShard(shard); }
  [[nodiscard]] sim::ShardId homeShard() const { return bus_.homeShard(); }

  [[nodiscard]] Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }
  [[nodiscard]] Bus& bus() { return bus_; }
  [[nodiscard]] const DramParams& params() const { return params_; }

 private:
  sim::Simulator& sim_;
  DramParams params_;
  Storage storage_;
  Bus bus_;
};

}  // namespace eclipse::mem
