#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "eclipse/media/types.hpp"

namespace eclipse::media::rle {

/// One (zero-run, level) pair of the run-length representation of a
/// scanned coefficient block. `level` is never zero.
struct RunLevel {
  std::uint8_t run = 0;
  std::int16_t level = 0;
  bool operator==(const RunLevel&) const = default;
};

/// The run/level pairs of one block, stored inline. A block has 64
/// coefficients, so a well-formed block never has more than 64 pairs;
/// appending a 65th means the data is malformed and throws BitstreamError.
class RunLevels {
 public:
  static constexpr std::size_t kCapacity = 64;
  using value_type = RunLevel;
  using iterator = RunLevel*;
  using const_iterator = const RunLevel*;

  RunLevels() = default;
  RunLevels(std::initializer_list<RunLevel> pairs) {
    for (const RunLevel& p : pairs) push_back(p);
  }

  void push_back(const RunLevel& p) {
    if (size_ == kCapacity) overflow();
    pairs_[size_++] = p;
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const RunLevel& operator[](std::size_t i) const { return pairs_[i]; }
  [[nodiscard]] iterator begin() { return pairs_.data(); }
  [[nodiscard]] iterator end() { return pairs_.data() + size_; }
  [[nodiscard]] const_iterator begin() const { return pairs_.data(); }
  [[nodiscard]] const_iterator end() const { return pairs_.data() + size_; }

  bool operator==(const RunLevels& o) const { return std::equal(begin(), end(), o.begin(), o.end()); }

 private:
  [[noreturn]] static void overflow();

  std::array<RunLevel, kCapacity> pairs_{};
  std::uint8_t size_ = 0;
};

/// Run-length encodes a block in scan order. Trailing zeros are implied by
/// end-of-block and produce no pairs.
[[nodiscard]] RunLevels encode(const Block& scanned);

/// Expands pairs back into a 64-coefficient scanned block (zero-filled).
/// Throws BitstreamError if the pairs overflow the block (malformed
/// bitstream content that only surfaces after entropy decoding).
void decode(const RunLevels& pairs, Block& scanned);

}  // namespace eclipse::media::rle
