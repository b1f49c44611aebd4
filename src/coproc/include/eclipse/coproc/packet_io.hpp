#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "eclipse/media/packets.hpp"
#include "eclipse/shell/shell.hpp"
#include "eclipse/sim/coro.hpp"

namespace eclipse::coproc {

/// Length-framed packet transport over an Eclipse stream.
///
/// Every packet on an inter-task stream is framed as
///     u32 length | u8 tag | payload[length-1]
/// Reading is two-phase: GetSpace(4) for the length word, then
/// GetSpace(4+length) for the whole packet — the data-dependent
/// conditional-input pattern of Section 4.2. Nothing is committed until
/// the whole packet is readable, so an aborted step simply re-reads the
/// length word on its next attempt.
///
/// Three calls, none of which waits for space: tryReadView (read and
/// commit), tryPeekView (read; the caller commits later) and write (into
/// room the caller already holds). A received packet is a WindowView into
/// the stream FIFO whose `bytes` span the tag + payload directly in SRAM
/// (gathered into the port's reusable scratch buffer only when the packet
/// wraps the cyclic buffer). Code that must wait for a packet calls
/// Shell::waitSpace first.
namespace packet_io {

inline constexpr std::uint32_t kFrameHeaderBytes = 4;

/// Result of a packet read attempt.
enum class ReadStatus {
  Ok,       ///< whole packet read (and committed, by tryReadView)
  Blocked,  ///< insufficient data; nothing committed — abort the step
};

/// One received packet: a zero-copy view plus contiguous access bytes.
///
/// Lifetime: after tryReadView the stream bytes are *committed* — `bytes`
/// (when it points into SRAM) is only safe to use until the caller's next
/// suspension point. After tryPeekView nothing is committed and `bytes`
/// stays valid until the caller PutSpaces `frame_bytes` on the port.
struct Packet {
  ReadStatus status = ReadStatus::Blocked;
  shell::WindowView view;                ///< tag + payload view into the FIFO
  std::uint32_t frame_bytes = 0;         ///< header + length: bytes to PutSpace
  std::span<const std::uint8_t> bytes;   ///< contiguous tag + payload
};

/// Attempts to read one whole packet from (task, port). On Ok the packet
/// bytes are committed and exposed zero-copy in the returned Packet.
sim::Task<Packet> tryReadView(shell::Shell& sh, sim::TaskId task, sim::PortId port);

/// Reads one whole packet *without committing it*. Used by coprocessors
/// with several input streams that must all be readable before any of them
/// may be consumed (Section 4.2's restartable step): peek every input,
/// compute, then PutSpace the returned frame_bytes on each port.
sim::Task<Packet> tryPeekView(shell::Shell& sh, sim::TaskId task, sim::PortId port);

/// Writes and commits one framed packet (tag + payload). Requires room for
/// frameBytes(data.size()) to have been granted by a prior Shell::getSpace
/// on the port (a coprocessor checks its output room before it starts a
/// step). The header and payload are scattered into acquireWrite views of
/// the FIFO.
sim::Task<void> write(shell::Shell& sh, sim::TaskId task, sim::PortId port,
                      std::span<const std::uint8_t> data);

/// Frame size on the wire of a packet with `payload_bytes` content bytes.
[[nodiscard]] inline std::uint32_t frameBytes(std::uint32_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}

/// Tag of a packet previously read (works on views and vectors alike).
[[nodiscard]] inline media::PacketTag tagOf(std::span<const std::uint8_t> packet) {
  if (packet.empty()) throw std::out_of_range("packet_io::tagOf: empty packet");
  return static_cast<media::PacketTag>(packet[0]);
}

/// Payload view (bytes after the tag).
[[nodiscard]] inline std::span<const std::uint8_t> payloadOf(
    std::span<const std::uint8_t> packet) {
  if (packet.empty()) throw std::out_of_range("packet_io::payloadOf: empty packet");
  return packet.subspan(1);
}

}  // namespace packet_io

}  // namespace eclipse::coproc
