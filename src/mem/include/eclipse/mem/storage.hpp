#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>
#include <string>

#include "eclipse/sim/types.hpp"

namespace eclipse::mem {

/// Plain bounds-checked byte storage backing a simulated memory.
///
/// Storage carries no timing; timing comes from the bus / memory front-ends
/// that mediate access to it. Functional code (configuration, golden-model
/// checks) may peek/poke directly.
///
/// The bytes live in a private anonymous mapping, so a fresh memory reads as
/// zero without being cleared: the OS maps zero pages lazily and only pages
/// the model touches become resident (the 16 MiB off-chip image of an
/// instance is mostly never touched).
class Storage {
 public:
  explicit Storage(std::size_t size_bytes) : size_(size_bytes) {
    if (size_ == 0) return;
    void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    bytes_ = static_cast<std::uint8_t*>(p);
  }

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;
  ~Storage() {
    if (bytes_ != nullptr) ::munmap(bytes_, size_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  void read(sim::Addr addr, std::span<std::uint8_t> out) const {
    checkRange(addr, out.size());
    std::copy_n(bytes_ + addr, out.size(), out.begin());
  }

  void write(sim::Addr addr, std::span<const std::uint8_t> in) {
    checkRange(addr, in.size());
    std::copy_n(in.begin(), in.size(), bytes_ + addr);
  }

  [[nodiscard]] std::uint8_t peek(sim::Addr addr) const {
    checkRange(addr, 1);
    return bytes_[addr];
  }

  void poke(sim::Addr addr, std::uint8_t value) {
    checkRange(addr, 1);
    bytes_[addr] = value;
  }

  void fill(std::uint8_t value) { std::fill_n(bytes_, size_, value); }

  /// Raw view for zero-copy functional access (tests, trace dumps).
  [[nodiscard]] std::span<const std::uint8_t> view() const { return {bytes_, size_}; }
  [[nodiscard]] std::span<std::uint8_t> view() { return {bytes_, size_}; }

 private:
  void checkRange(sim::Addr addr, std::size_t n) const {
    if (addr + n > size_ || addr + n < addr) {
      throw std::out_of_range("Storage: access [" + std::to_string(addr) + ", " +
                              std::to_string(addr + n) + ") outside size " +
                              std::to_string(size_));
    }
  }

  std::uint8_t* bytes_ = nullptr;
  std::size_t size_;
};

}  // namespace eclipse::mem
