#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace eclipse::shell {

class Shell;

/// Zero-copy scatter-gather view into a granted stream window.
///
/// Returned by Shell::acquireRead / Shell::acquireWrite. The chunks point
/// directly at the stream FIFO's backing bytes in the shared SRAM, split
/// into at most two segments where the cyclic buffer wraps. All simulated
/// cycle costs (port handshake, cache fills, flushes, prefetches) were
/// charged by the acquire call, so touching the bytes through the view is
/// free host work — the paper's observation 1 (data inside a granted
/// window is private to the access point) makes the view semantically
/// exact.
///
/// A view only addresses bytes; the coprocessor commits the window with
/// Shell::putSpace like any other access.
///
/// Lifetime rules (see DESIGN.md §7):
///  * a write view is valid until its window is committed (PutSpace);
///  * a read view obtained without committing (peek) is valid until the
///    holder itself commits the window;
///  * a read view whose bytes were already committed (e.g. packet_io
///    tryReadView) is valid only until the holder's next suspension point —
///    after the putspace message is processed the producer may reclaim
///    and overwrite the region. Copy (or re-serialise) anything needed
///    across a co_await.
class WindowView {
 public:
  struct Chunk {
    std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };

  WindowView() = default;

  /// Total bytes spanned by the view.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (int i = 0; i < n_chunks_; ++i) n += chunks_[i].size;
    return n;
  }

  /// The (at most two) linear segments, in stream order.
  [[nodiscard]] std::span<const Chunk> chunks() const {
    return {chunks_.data(), static_cast<std::size_t>(n_chunks_)};
  }

  /// True when the view is a single linear segment (or empty).
  [[nodiscard]] bool contiguous() const { return n_chunks_ <= 1; }

  /// Direct span over a contiguous view; throws on a fragmented one.
  [[nodiscard]] std::span<std::uint8_t> span() const {
    if (n_chunks_ > 1) {
      throw std::logic_error("WindowView::span: view wraps the cyclic buffer");
    }
    return n_chunks_ == 0 ? std::span<std::uint8_t>{}
                          : std::span<std::uint8_t>{chunks_[0].data, chunks_[0].size};
  }

  /// Gathers the view into `out` (out.size() must equal bytes()).
  void copyTo(std::span<std::uint8_t> out) const {
    if (out.size() != bytes()) {
      throw std::invalid_argument("WindowView::copyTo: size mismatch");
    }
    std::size_t done = 0;
    for (int i = 0; i < n_chunks_; ++i) {
      std::memcpy(out.data() + done, chunks_[i].data, chunks_[i].size);
      done += chunks_[i].size;
    }
  }

  /// Scatters `in` into the view (in.size() must equal bytes()).
  void copyFrom(std::span<const std::uint8_t> in) {
    if (in.size() != bytes()) {
      throw std::invalid_argument("WindowView::copyFrom: size mismatch");
    }
    std::size_t done = 0;
    for (int i = 0; i < n_chunks_; ++i) {
      std::memcpy(chunks_[i].data, in.data() + done, chunks_[i].size);
      done += chunks_[i].size;
    }
  }

  /// Contiguous read access: the view's own bytes when linear, otherwise a
  /// gathered copy in `scratch` (the rare fragmented-view fallback).
  [[nodiscard]] std::span<const std::uint8_t> gather(std::vector<std::uint8_t>& scratch) const {
    if (n_chunks_ <= 1) {
      return n_chunks_ == 0
                 ? std::span<const std::uint8_t>{}
                 : std::span<const std::uint8_t>{chunks_[0].data, chunks_[0].size};
    }
    scratch.resize(bytes());
    copyTo(scratch);
    return scratch;
  }

 private:
  friend class Shell;

  std::array<Chunk, 2> chunks_{};
  int n_chunks_ = 0;
};

}  // namespace eclipse::shell
