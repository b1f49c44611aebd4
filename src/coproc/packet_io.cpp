#include "eclipse/coproc/packet_io.hpp"

#include <cstring>
#include <stdexcept>

namespace eclipse::coproc::packet_io {

namespace {

std::uint32_t decodeLen(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Reads the 4-byte length word at the access point: an acquireRead whose
/// await_resume decodes the word, so reading it costs no frame. The header
/// may wrap the cyclic buffer, so it is always gathered into a local array.
class ReadLen : public shell::Shell::AcquireOp {
 public:
  ReadLen(shell::Shell& sh, sim::TaskId task, sim::PortId port)
      : AcquireOp(sh, task, port, 0, kFrameHeaderBytes, /*writing=*/false) {}

  std::uint32_t await_resume() {
    const shell::WindowView v = AcquireOp::await_resume();
    std::uint8_t hdr[kFrameHeaderBytes];
    v.copyTo(hdr);
    const std::uint32_t len = decodeLen(hdr);
    if (len == 0) throw std::runtime_error("packet_io: zero-length packet frame");
    return len;
  }
};

}  // namespace

sim::Task<Packet> tryReadView(shell::Shell& sh, sim::TaskId task, sim::PortId port) {
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes)) co_return Packet{};
  const std::uint32_t len = co_await ReadLen(sh, task, port);
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes + len)) {
    co_return Packet{};  // abort; the length word stays uncommitted
  }
  Packet p;
  p.view = co_await sh.acquireRead(task, port, kFrameHeaderBytes, len);
  p.frame_bytes = kFrameHeaderBytes + len;
  p.bytes = p.view.gather(sh.portScratch(task, port));
  // Commit before returning: the producer cannot observe the released
  // space until its sync message lands (sync_latency > 0 cycles away), so
  // p.bytes stays intact until the caller's next suspension point.
  co_await sh.putSpace(task, port, p.frame_bytes);
  p.status = ReadStatus::Ok;
  co_return p;
}

sim::Task<Packet> tryPeekView(shell::Shell& sh, sim::TaskId task, sim::PortId port) {
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes)) co_return Packet{};
  const std::uint32_t len = co_await ReadLen(sh, task, port);
  if (!co_await sh.getSpace(task, port, kFrameHeaderBytes + len)) co_return Packet{};
  Packet p;
  p.view = co_await sh.acquireRead(task, port, kFrameHeaderBytes, len);
  p.frame_bytes = kFrameHeaderBytes + len;
  p.bytes = p.view.gather(sh.portScratch(task, port));
  p.status = ReadStatus::Ok;
  co_return p;
}

sim::Task<void> write(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                      std::span<const std::uint8_t> data) {
  const auto len = static_cast<std::uint32_t>(data.size());
  const std::uint32_t total = kFrameHeaderBytes + len;
  std::uint8_t hdr[kFrameHeaderBytes];
  std::memcpy(hdr, &len, sizeof len);
  // Two separate acquires — the same two transfer charges as the classic
  // header write + payload write.
  {
    shell::WindowView v = co_await sh.acquireWrite(task, port, 0, kFrameHeaderBytes);
    v.copyFrom(hdr);
  }
  {
    shell::WindowView v = co_await sh.acquireWrite(task, port, kFrameHeaderBytes, data.size());
    v.copyFrom(data);
  }
  co_await sh.putSpace(task, port, total);
}

}  // namespace eclipse::coproc::packet_io
