#include "eclipse/serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <sstream>

namespace eclipse::serve {

WireResult makeWireResult(std::uint64_t req_id, const farm::JobResult& r, double queue_ms,
                          double serve_ms, bool promoted) {
  WireResult w;
  w.req_id = req_id;
  w.name = r.name;
  w.tenant = r.tenant;
  w.status = r.status;
  w.cause = r.cause;
  w.sim_cycles = r.sim_cycles;
  w.sim_events = r.sim_events;
  w.macroblocks = r.macroblocks;
  w.bit_exact = r.bit_exact;
  w.psnr_db = r.psnr_db;
  w.faults_latched = r.faults_latched;
  w.stalls_latched = r.stalls_latched;
  w.frames_dropped = r.frames_dropped;
  w.mode_switches = r.mode_switches;
  w.quiescence = r.quiescence;
  w.attempts = r.attempts;
  w.wall_ms = r.wall_ms;
  w.latency_ms = r.latency_ms;
  w.queue_ms = queue_ms;
  w.serve_ms = serve_ms;
  w.promoted = promoted;
  w.error = r.error;
  return w;
}

namespace {
// Bumped whenever the field layout changes, so a peer on another layout
// fails with ProtocolError instead of misparsing.
constexpr std::uint8_t kResultVersion = 2;
}

void encodeResult(ByteWriter& w, const WireResult& r) {
  w.putU8(kResultVersion);
  w.putStr(r.name);
  w.putStr(r.tenant);
  w.putU8(static_cast<std::uint8_t>(r.status));
  w.putU8(static_cast<std::uint8_t>(r.cause));
  w.putU64(r.sim_cycles);
  w.putU64(r.sim_events);
  w.putU64(r.macroblocks);
  w.putU8(r.bit_exact ? 1 : 0);
  w.putF64(r.psnr_db);
  w.putU64(r.faults_latched);
  w.putU64(r.stalls_latched);
  w.putU64(r.frames_dropped);
  w.putU64(r.mode_switches);
  w.putStr(r.quiescence);
  w.putU32(static_cast<std::uint32_t>(r.attempts));
  w.putF64(r.wall_ms);
  w.putF64(r.latency_ms);
  w.putF64(r.queue_ms);
  w.putF64(r.serve_ms);
  w.putU8(r.promoted ? 1 : 0);
  w.putStr(r.error);
}

WireResult decodeResult(ByteReader& rd) {
  const std::uint8_t version = rd.getU8();
  if (version != kResultVersion) throw ProtocolError("unknown result version");
  WireResult r;
  r.name = rd.getStr();
  r.tenant = rd.getStr();
  r.status = static_cast<farm::JobStatus>(rd.getU8());
  r.cause = static_cast<farm::JobError>(rd.getU8());
  r.sim_cycles = rd.getU64();
  r.sim_events = rd.getU64();
  r.macroblocks = rd.getU64();
  r.bit_exact = rd.getU8() != 0;
  r.psnr_db = rd.getF64();
  r.faults_latched = rd.getU64();
  r.stalls_latched = rd.getU64();
  r.frames_dropped = rd.getU64();
  r.mode_switches = rd.getU64();
  r.quiescence = rd.getStr();
  r.attempts = static_cast<int>(rd.getU32());
  r.wall_ms = rd.getF64();
  r.latency_ms = rd.getF64();
  r.queue_ms = rd.getF64();
  r.serve_ms = rd.getF64();
  r.promoted = rd.getU8() != 0;
  r.error = rd.getStr();
  return r;
}

std::string formatResultLine(const WireResult& r) {
  std::ostringstream os;
  os << "name=" << r.name << " tenant=" << r.tenant
     << " status=" << farm::jobStatusName(r.status) << " cause=" << farm::jobErrorName(r.cause)
     << " cycles=" << r.sim_cycles << " events=" << r.sim_events << " mbs=" << r.macroblocks
     << " bit_exact=" << (r.bit_exact ? 1 : 0) << " psnr=" << r.psnr_db
     << " attempts=" << r.attempts << " promoted=" << (r.promoted ? 1 : 0)
     << " queue_ms=" << r.queue_ms << " serve_ms=" << r.serve_ms;
  if (!r.error.empty()) os << " error=" << r.error;
  return os.str();
}

bool recvExact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::recv(fd, p + got, n - got, 0);
    if (k == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw ProtocolError("connection closed mid-frame");
    }
    if (k < 0) {
      if (errno == EINTR) continue;
      if (got == 0) return false;  // reset before anything arrived
      throw ProtocolError("recv failed mid-frame");
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

namespace {
bool sendAll(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t k = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(k);
  }
  return true;
}
}  // namespace

bool sendFrame(int fd, FrameType type, const std::vector<std::uint8_t>& payload) {
  ByteWriter head;
  head.putU32(static_cast<std::uint32_t>(payload.size()));
  head.putU8(static_cast<std::uint8_t>(type));
  if (!sendAll(fd, head.bytes().data(), head.bytes().size())) return false;
  return payload.empty() || sendAll(fd, payload.data(), payload.size());
}

bool recvFrame(int fd, Frame& out) {
  std::uint8_t head[5];
  if (!recvExact(fd, head, sizeof head)) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(head[i]) << (8 * i);
  if (len > kMaxFramePayload) throw ProtocolError("oversized frame");
  out.type = static_cast<FrameType>(head[4]);
  out.payload.resize(len);
  if (len > 0 && !recvExact(fd, out.payload.data(), len))
    throw ProtocolError("connection closed mid-frame");
  return true;
}

}  // namespace eclipse::serve
