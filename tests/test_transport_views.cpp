// Zero-copy transport path: acquired window views (DESIGN.md §7).
//
// Covers the scatter-gather geometry (two-segment views where the cyclic
// FIFO wraps, at cache-line-misaligned offsets), write-through visibility
// of view stores in the shared SRAM, zero-length edge cases of acquire and
// the span read/write adapters, and the PutSpace accounting of committing
// a view's window.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "eclipse/shell/window_view.hpp"
#include "shell_fixture.hpp"

namespace eclipse::test {
namespace {

constexpr sim::Addr kBase = 0x400;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), seed);
  return v;
}

using TransportViews = TwoShellFixture;

TEST_F(TransportViews, WrapAroundTwoSegmentsAtMisalignedOffsets) {
  connect(/*buffer_bytes=*/128);  // two 64-byte cache lines
  run([this]() -> sim::Task<void> {
    // Advance the stream position to 60 — misaligned within the first
    // cache line — so the next full-window acquire wraps the buffer.
    const auto first = pattern(60, 0x11);
    EXPECT_TRUE(co_await prod->getSpace(0, 0, 60));
    co_await prod->write(0, 0, 0, first);
    co_await prod->putSpace(0, 0, 60);
    co_await cons->waitSpace(0, 0, 60);
    shell::WindowView rv = co_await cons->acquireRead(0, 0, 0, 60);
    EXPECT_TRUE(rv.contiguous());
    EXPECT_EQ(rv.bytes(), 60u);
    std::vector<std::uint8_t> got(60);
    rv.copyTo(got);
    EXPECT_EQ(got, first);
    co_await cons->putSpace(0, 0, 60);

    // A 100-byte write window starting at position 60 must split into
    // [60, 128) and [0, 32) — two segments, the first one line-misaligned.
    co_await prod->waitSpace(0, 0, 100);
    shell::WindowView wv = co_await prod->acquireWrite(0, 0, 0, 100);
    EXPECT_EQ(wv.bytes(), 100u);
    EXPECT_FALSE(wv.contiguous());
    EXPECT_EQ(wv.chunks().size(), 2u);
    EXPECT_EQ(wv.chunks()[0].size, 68u);
    EXPECT_EQ(wv.chunks()[1].size, 32u);
    EXPECT_THROW((void)wv.span(), std::logic_error);

    const auto pat = pattern(100, 0x40);
    wv.copyFrom(pat);
    // Write-through: the bytes land in the stream FIFO immediately, laid
    // out cyclically around the wrap point.
    const auto storage = sram->storage().view();
    for (std::size_t i = 0; i < 68; ++i) EXPECT_EQ(storage[kBase + 60 + i], pat[i]);
    for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(storage[kBase + i], pat[68 + i]);
    co_await prod->putSpace(0, 0, 100);

    // The consumer's view wraps identically; gather() must fall back to
    // the scratch copy for the fragmented geometry.
    co_await cons->waitSpace(0, 0, 100);
    shell::WindowView rv2 = co_await cons->acquireRead(0, 0, 0, 100);
    EXPECT_FALSE(rv2.contiguous());
    std::vector<std::uint8_t> round(100);
    rv2.copyTo(round);
    EXPECT_EQ(round, pat);
    std::vector<std::uint8_t> scratch;
    const auto g = rv2.gather(scratch);
    EXPECT_EQ(std::vector<std::uint8_t>(g.begin(), g.end()), pat);
    EXPECT_EQ(scratch.size(), 100u);  // fragmented: gathered via scratch

    // A misaligned sub-window inside the granted window reads through the
    // same wrap: offset 3, length 80 spans both segments.
    shell::WindowView sub = co_await cons->acquireRead(0, 0, 3, 80);
    std::vector<std::uint8_t> subgot(80);
    sub.copyTo(subgot);
    EXPECT_EQ(subgot, std::vector<std::uint8_t>(pat.begin() + 3, pat.begin() + 83));
    co_await cons->putSpace(0, 0, 100);
  }());
}

TEST_F(TransportViews, ZeroLengthAcquireAndSpanAdapters) {
  connect(/*buffer_bytes=*/64);
  run([this]() -> sim::Task<void> {
    EXPECT_TRUE(co_await prod->getSpace(0, 0, 0));
    shell::WindowView wv = co_await prod->acquireWrite(0, 0, 0, 0);
    EXPECT_EQ(wv.bytes(), 0u);
    EXPECT_TRUE(wv.contiguous());
    EXPECT_TRUE(wv.chunks().empty());
    EXPECT_TRUE(wv.span().empty());
    wv.copyFrom({});  // size 0 matches
    co_await prod->putSpace(0, 0, 0);  // PutSpace(0): legal no-op commit

    // Zero-length span adapters complete without touching the cache.
    EXPECT_TRUE(co_await prod->getSpace(0, 0, 16));
    co_await prod->write(0, 0, 0, std::span<const std::uint8_t>{});
    const auto pat = pattern(16, 0x80);
    co_await prod->write(0, 0, 0, pat);
    co_await prod->putSpace(0, 0, 16);

    co_await cons->waitSpace(0, 0, 16);
    std::vector<std::uint8_t> none;
    co_await cons->read(0, 0, 0, none);  // zero-length read
    shell::WindowView zr = co_await cons->acquireRead(0, 0, 16, 0);  // at window end
    EXPECT_EQ(zr.bytes(), 0u);
    std::vector<std::uint8_t> got(16);
    co_await cons->read(0, 0, 0, got);
    EXPECT_EQ(got, pat);
    co_await cons->putSpace(0, 0, 16);
  }());
}

TEST_F(TransportViews, CommitPerformsPutSpaceAccounting) {
  connect(/*buffer_bytes=*/128);
  run([this]() -> sim::Task<void> {
    EXPECT_TRUE(co_await prod->getSpace(0, 0, 48));
    shell::WindowView wv = co_await prod->acquireWrite(0, 0, 16, 24);
    const auto pat = pattern(24, 0x01);
    wv.copyFrom(pat);
    // Committing the view releases everything up to its end: offset + n.
    co_await prod->putSpace(0, 0, 16 + 24);

    auto& prow = prod->streams().row(prod_row);
    EXPECT_EQ(prow.pos, 40u);
    EXPECT_EQ(prow.granted, 8u);  // 48 granted - 40 committed
    EXPECT_EQ(prow.putspace_calls, 1u);
    EXPECT_EQ(prow.write_calls, 1u);
    EXPECT_EQ(prow.bytes_transferred, 24u);

    co_await cons->waitSpace(0, 0, 40);
    shell::WindowView rv = co_await cons->acquireRead(0, 0, 16, 24);
    std::vector<std::uint8_t> got(24);
    rv.copyTo(got);
    EXPECT_EQ(got, pat);
    co_await cons->putSpace(0, 0, 16 + 24);
    EXPECT_EQ(cons->streams().row(cons_row).pos, 40u);
  }());
}

TEST_F(TransportViews, AcquireOutsideGrantedWindowThrows) {
  connect(/*buffer_bytes=*/64);
  run([this]() -> sim::Task<void> {
    EXPECT_TRUE(co_await prod->getSpace(0, 0, 16));
    EXPECT_THROW(
        { co_await prod->acquireWrite(0, 0, 8, 16); }, std::logic_error);
    EXPECT_THROW(
        { co_await prod->acquireRead(0, 0, 0, 8); }, std::logic_error);  // wrong direction
    co_await prod->putSpace(0, 0, 0);
  }());
}

}  // namespace
}  // namespace eclipse::test
