#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eclipse/sim/types.hpp"

namespace eclipse::mem {

/// Memory-mapped control bus (the paper's PI-bus).
///
/// The main CPU configures applications at run time by programming the
/// stream and task tables in the shells through this bus, and reads back
/// accumulated performance measurements. Configuration traffic is rare and
/// not performance-critical, so the model is functional (untimed); the
/// register map itself — every table field addressable as a 32-bit word —
/// is modelled faithfully so that run-time (re)configuration goes through
/// the same path hardware would use.
class PiBus {
 public:
  using ReadFn = std::function<std::uint32_t(sim::Addr offset)>;
  using WriteFn = std::function<void(sim::Addr offset, std::uint32_t value)>;

  /// Maps a device's register window [base, base+size) onto the bus.
  void attach(std::string name, sim::Addr base, sim::Addr size, ReadFn read, WriteFn write) {
    for (const auto& d : devices_) {
      const bool overlap = base < d.base + d.size && d.base < base + size;
      if (overlap) {
        throw std::runtime_error("PiBus: window of '" + name + "' overlaps '" + d.name + "'");
      }
    }
    devices_.push_back(Device{std::move(name), base, size, std::move(read), std::move(write)});
  }

  [[nodiscard]] std::uint32_t read(sim::Addr addr) const {
    const Device& d = find(addr);
    ++reads_;
    return d.read(addr - d.base);
  }

  void write(sim::Addr addr, std::uint32_t value) {
    const Device& d = find(addr);
    ++writes_;
    d.write(addr - d.base, value);
  }

  [[nodiscard]] std::uint64_t readCount() const { return reads_; }
  [[nodiscard]] std::uint64_t writeCount() const { return writes_; }

 private:
  struct Device {
    std::string name;
    sim::Addr base;
    sim::Addr size;
    ReadFn read;
    WriteFn write;
  };

  const Device& find(sim::Addr addr) const {
    for (const auto& d : devices_) {
      if (addr >= d.base && addr < d.base + d.size) return d;
    }
    throw std::out_of_range("PiBus: no device at address " + std::to_string(addr));
  }

  std::vector<Device> devices_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace eclipse::mem
