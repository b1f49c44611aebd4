#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "eclipse/mem/bus.hpp"
#include "eclipse/mem/storage.hpp"
#include "eclipse/sim/simulator.hpp"

namespace eclipse::mem {

/// Timed read awaiter: a bus transfer whose tail is the memory's access
/// latency; the bytes are copied out of storage when the caller resumes.
class [[nodiscard]] ReadAccess : public Bus::Transfer {
 public:
  ReadAccess(Bus& bus, sim::Cycle access_latency, const Storage& storage, sim::Addr addr,
             std::span<std::uint8_t> out)
      : Transfer(bus, out.size(), access_latency), storage_(storage), addr_(addr), out_(out) {}
  void await_resume() const { storage_.read(addr_, out_); }

 private:
  const Storage& storage_;
  sim::Addr addr_;
  std::span<std::uint8_t> out_;
};

/// Timed write awaiter: the bytes land in storage when the access completes.
class [[nodiscard]] WriteAccess : public Bus::Transfer {
 public:
  WriteAccess(Bus& bus, sim::Cycle access_latency, Storage& storage, sim::Addr addr,
              std::span<const std::uint8_t> in)
      : Transfer(bus, in.size(), access_latency), storage_(storage), addr_(addr), in_(in) {}
  void await_resume() const { storage_.write(addr_, in_); }

 private:
  Storage& storage_;
  sim::Addr addr_;
  std::span<const std::uint8_t> in_;
};

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
      : params_(params),
        storage_(params.size_bytes),
        read_bus_(sim, "sram.read", params.bus_width_bytes, params.bus_arbitration_latency),
        write_bus_(sim, "sram.write", params.bus_width_bytes, params.bus_arbitration_latency) {}

  /// Timed read of `out.size()` bytes at `addr`: read-bus burst, access
  /// latency, then the copy out of storage.
  ReadAccess read(sim::Addr addr, std::span<std::uint8_t> out) {
    return ReadAccess(read_bus_, params_.access_latency, storage_, addr, out);
  }

  /// Timed write of `in.size()` bytes at `addr`; the bytes land when the
  /// access completes.
  WriteAccess write(sim::Addr addr, std::span<const std::uint8_t> in) {
    return WriteAccess(write_bus_, params_.access_latency, storage_, addr, in);
  }

  /// Timing-only accesses: occupy the bus and pay the access latency for a
  /// `bytes`-sized burst without moving data. Cycle-identical to read/write
  /// of the same size — used where the model splits function from timing
  /// (the zero-copy transport path: data moves through window views while
  /// the stream caches replay the original fill/flush traffic).
  Bus::Transfer touchRead(std::size_t bytes) {
    return read_bus_.transfer(bytes, params_.access_latency);
  }
  Bus::Transfer touchWrite(std::size_t bytes) {
    return write_bus_.transfer(bytes, params_.access_latency);
  }

  /// Callback form of touchRead(r.bytes), for a request that outlives any
  /// coroutine frame (a stream cache's prefetch fill): `r.done` runs when
  /// the access completes.
  void touchRead(Bus::Request& r) {
    r.tail = params_.access_latency;
    read_bus_.issue(r);
  }

  [[nodiscard]] Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }
  [[nodiscard]] Bus& readBus() { return read_bus_; }
  [[nodiscard]] Bus& writeBus() { return write_bus_; }
  [[nodiscard]] const SramParams& params() const { return params_; }

 private:
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
      : params_(params),
        storage_(params.size_bytes),
        bus_(sim, "system.bus", params.bus_width_bytes, params.bus_arbitration_latency) {}

  /// Timed read: system-bus burst, then the off-chip access latency.
  ReadAccess read(sim::Addr addr, std::span<std::uint8_t> out) {
    return ReadAccess(bus_, params_.access_latency, storage_, addr, out);
  }

  WriteAccess write(sim::Addr addr, std::span<const std::uint8_t> in) {
    return WriteAccess(bus_, params_.access_latency, storage_, addr, in);
  }

  /// Timing-only accesses: occupy the bus and pay the access latency for a
  /// `bytes`-sized burst without moving data. Used where the model splits
  /// function from timing (e.g. 2D region gathers in the MC coprocessor).
  Bus::Transfer touchRead(std::size_t bytes) { return bus_.transfer(bytes, params_.access_latency); }
  Bus::Transfer touchWrite(std::size_t bytes) { return bus_.transfer(bytes, params_.access_latency); }

  [[nodiscard]] Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }
  [[nodiscard]] Bus& bus() { return bus_; }
  [[nodiscard]] const DramParams& params() const { return params_; }

 private:
  DramParams params_;
  Storage storage_;
  Bus bus_;
};

}  // namespace eclipse::mem
