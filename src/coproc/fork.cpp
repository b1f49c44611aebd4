#include "eclipse/coproc/fork.hpp"

#include "eclipse/coproc/packet_io.hpp"
#include "eclipse/media/packets.hpp"

namespace eclipse::coproc {

sim::Task<void> ForkCoproc::step(sim::TaskId task, std::uint32_t /*task_info*/) {
  // Every consumer must have room before the input is consumed; otherwise
  // abort the step (slowest consumer throttles the multicast, exactly the
  // semantics of a Kahn stream with several readers).
  for (int out = 1; out <= fanout_; ++out) {
    if (!co_await shell_.getSpace(task, out, max_frame_)) co_return;
  }
  const packet_io::Packet p = co_await packet_io::tryReadView(shell_, task, kIn);
  if (p.status == packet_io::ReadStatus::Blocked) co_return;
  // The committed view dies at the first write's suspension point, and the
  // packet is forwarded fanout times — stage it in the reusable buffer.
  pkt_.assign(p.bytes.begin(), p.bytes.end());
  for (int out = 1; out <= fanout_; ++out) {
    co_await packet_io::write(shell_, task, out, pkt_);
  }
  ++packets_;
  if (packet_io::tagOf(pkt_) == media::PacketTag::Eos) finishTask(task);
}

}  // namespace eclipse::coproc
