// Tests for the coprocessor layer: packet framing over streams, worst-case
// frame bounds, coprocessor stage behaviour against the functional stages,
// and end-of-stream task retirement.

#include <gtest/gtest.h>

#include <vector>

#include "eclipse/coproc/limits.hpp"
#include "eclipse/coproc/packet_io.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/sim/prng.hpp"
#include "shell_fixture.hpp"

namespace {

using namespace eclipse;
using namespace eclipse::coproc;
using eclipse::test::TwoShellFixture;
using shell::Shell;
using sim::Task;

class PacketIo : public TwoShellFixture {};

Task<void> writeThenRead(Shell& prod, Shell& cons, const std::vector<std::uint8_t>& pkt) {
  const std::uint32_t frame = packet_io::frameBytes(static_cast<std::uint32_t>(pkt.size()));
  co_await prod.waitSpace(0, 0, frame);
  co_await packet_io::write(prod, 0, 0, pkt);
  co_await eclipse::test::waitPacket(cons, 0, 0);
  const packet_io::Packet got = co_await packet_io::tryReadView(cons, 0, 0);
  EXPECT_EQ(got.status, packet_io::ReadStatus::Ok);
  EXPECT_EQ(got.frame_bytes, frame);
  EXPECT_EQ(std::vector<std::uint8_t>(got.bytes.begin(), got.bytes.end()), pkt);
}

TEST_F(PacketIo, FramedRoundTrip) {
  connect(256);
  std::vector<std::uint8_t> pkt{static_cast<std::uint8_t>(media::PacketTag::Mb), 1, 2, 3, 4, 5};
  run(writeThenRead(*prod, *cons, pkt));
}

Task<void> tryReadOnEmpty(Shell& cons, packet_io::ReadStatus& st) {
  st = (co_await packet_io::tryReadView(cons, 0, 0)).status;
}

TEST_F(PacketIo, TryReadReportsBlockedWithoutCommitting) {
  connect(256);
  auto st = packet_io::ReadStatus::Ok;
  run(tryReadOnEmpty(*cons, st));
  EXPECT_EQ(st, packet_io::ReadStatus::Blocked);
  EXPECT_EQ(cons->streams().row(cons_row).putspace_calls, 0u);
}

Task<void> peekDoesNotConsume(Shell& prod, Shell& cons) {
  const std::vector<std::uint8_t> pkt{static_cast<std::uint8_t>(media::PacketTag::Pic), 7, 7};
  co_await prod.waitSpace(0, 0, packet_io::frameBytes(static_cast<std::uint32_t>(pkt.size())));
  co_await packet_io::write(prod, 0, 0, pkt);

  const packet_io::Packet r1 = co_await packet_io::tryPeekView(cons, 0, 0);
  EXPECT_EQ(r1.status, packet_io::ReadStatus::Ok);
  const std::vector<std::uint8_t> a(r1.bytes.begin(), r1.bytes.end());
  // A second peek sees the same packet: nothing was committed.
  const packet_io::Packet r2 = co_await packet_io::tryPeekView(cons, 0, 0);
  EXPECT_EQ(r2.status, packet_io::ReadStatus::Ok);
  const std::vector<std::uint8_t> b(r2.bytes.begin(), r2.bytes.end());
  EXPECT_EQ(a, b);
  co_await cons.putSpace(0, 0, r2.frame_bytes);
  // Now the stream is empty again.
  const packet_io::Packet r3 = co_await packet_io::tryPeekView(cons, 0, 0);
  EXPECT_EQ(r3.status, packet_io::ReadStatus::Blocked);
}

TEST_F(PacketIo, PeekIsRepeatableUntilCommit) {
  connect(256);
  run(peekDoesNotConsume(*prod, *cons));
}

Task<void> partialPacketBlocks(Shell& prod, Shell& cons) {
  // Write only the length word of a large frame: the reader must see the
  // length, fail the second GetSpace, and leave the length uncommitted —
  // the Section 4.2 conditional-input abort.
  const std::uint32_t fake_len = 100;
  std::uint8_t hdr[4];
  std::memcpy(hdr, &fake_len, sizeof fake_len);
  EXPECT_TRUE(co_await prod.getSpace(0, 0, 4));
  co_await prod.write(0, 0, 0, hdr);
  co_await prod.putSpace(0, 0, 4);

  const packet_io::Packet r1 = co_await packet_io::tryReadView(cons, 0, 0);
  EXPECT_EQ(r1.status, packet_io::ReadStatus::Blocked);

  // Producer completes the packet; the reader restarts from the beginning.
  std::vector<std::uint8_t> body(fake_len, 0xCD);
  co_await prod.waitSpace(0, 0, static_cast<std::uint32_t>(body.size()));
  co_await prod.write(0, 0, 0, body);
  co_await prod.putSpace(0, 0, static_cast<std::uint32_t>(body.size()));

  const packet_io::Packet r2 = co_await packet_io::tryReadView(cons, 0, 0);
  EXPECT_EQ(r2.status, packet_io::ReadStatus::Ok);
  EXPECT_EQ(std::vector<std::uint8_t>(r2.bytes.begin(), r2.bytes.end()), body);
}

TEST_F(PacketIo, ConditionalInputAbortAndRestart) {
  connect(256);
  run(partialPacketBlocks(*prod, *cons));
}

// ------------------------------------------------------- frame bounds

TEST(Limits, CoefsBoundCoversWorstCase) {
  // Worst-case macroblock: every block coded with 64 escape pairs.
  media::MbCoefs worst;
  worst.cbp = 0x3F;
  worst.intra = 1;
  for (auto& b : worst.blocks) {
    for (int i = 0; i < 64; ++i) b.push_back(media::rle::RunLevel{0, 2047});
  }
  media::ByteWriter w;
  media::put(w, worst);
  EXPECT_LE(packet_io::frameBytes(static_cast<std::uint32_t>(w.size() + 1)), kMaxCoefsFrame);
}

TEST(Limits, BlocksAndPixelBoundsCoverSerialisedSizes) {
  media::MbBlocks blocks;
  media::ByteWriter wb;
  media::put(wb, blocks);
  EXPECT_LE(packet_io::frameBytes(static_cast<std::uint32_t>(wb.size() + 1)), kMaxBlocksFrame);

  media::MbPixels px;
  media::ByteWriter wp;
  media::put(wp, px);
  EXPECT_LE(packet_io::frameBytes(static_cast<std::uint32_t>(wp.size() + 1)), kMaxPixelsFrame);

  media::MbHeader h;
  media::ByteWriter wh;
  media::put(wh, h);
  EXPECT_LE(packet_io::frameBytes(static_cast<std::uint32_t>(wh.size() + 1)), kMaxHeaderFrame);

  media::SeqHeader sh;
  media::ByteWriter ws;
  media::put(ws, sh);
  EXPECT_LE(packet_io::frameBytes(static_cast<std::uint32_t>(ws.size() + 1)), kMaxCtlFrame);
}

}  // namespace
