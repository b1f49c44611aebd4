#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "eclipse/farm/job.hpp"

namespace eclipse::serve {

/// eclipse_serve wire protocol (DESIGN §15).
///
/// A client that opens with the 4-byte magic "ECL1" speaks the binary
/// protocol: a stream of frames, each
///
///     [u32 LE payload length][u8 frame type][payload bytes]
///
/// in both directions (the length counts the payload only, not the type
/// byte). Anything else on the first four bytes selects the line-oriented
/// text protocol (nc-friendly; see Server). All integers are little-endian;
/// strings are length-prefixed (u32) byte runs; doubles travel as the
/// bit-cast u64.
inline constexpr char kMagic[4] = {'E', 'C', 'L', '1'};

/// Payloads are small (specs, metrics text, result blobs); anything larger
/// than this is a corrupt or hostile frame and the connection is dropped.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  // client -> server
  Hello = 1,    ///< str tenant
  Submit = 2,   ///< u64 req_id, str spec (farm::parseJob grammar)
  Metrics = 3,  ///< (empty)
  Ping = 4,     ///< (empty)
  Quit = 5,     ///< (empty)
  // server -> client
  HelloOk = 32,      ///< str banner
  Accepted = 33,     ///< u64 req_id
  Rejected = 34,     ///< u64 req_id, u8 RejectReason, str detail
  Result = 35,       ///< u64 req_id, WireResult blob
  MetricsText = 36,  ///< str text (the /metrics exposition)
  Pong = 37,         ///< (empty)
  Bye = 38,          ///< (empty)
  Error = 39,        ///< str message (protocol violation; connection closes)
};

enum class RejectReason : std::uint8_t {
  BadSpec = 1,
  RateLimited = 2,   ///< tenant token bucket empty under shed policy
  QueueFull = 3,     ///< tenant pending bound hit
  Draining = 4,      ///< server stopped admitting (rolling drain)
  UnknownTenant = 5,
  TooManyConnections = 6,
  Internal = 7,
};

[[nodiscard]] constexpr const char* rejectReasonName(RejectReason r) {
  switch (r) {
    case RejectReason::BadSpec: return "bad-spec";
    case RejectReason::RateLimited: return "rate-limited";
    case RejectReason::QueueFull: return "queue-full";
    case RejectReason::Draining: return "draining";
    case RejectReason::UnknownTenant: return "unknown-tenant";
    case RejectReason::TooManyConnections: return "too-many-connections";
    case RejectReason::Internal: return "internal";
  }
  return "?";
}

/// Malformed frame / short read past the framing layer. The connection
/// that raised it is unrecoverable and gets closed.
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian encoder for frame payloads.
class ByteWriter {
 public:
  void putU8(std::uint8_t v) { buf_.push_back(v); }
  void putU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void putU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void putF64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(bits);
  }
  void putStr(const std::string& s) {
    putU32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder; throws ProtocolError on underrun.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& v) : ByteReader(v.data(), v.size()) {}

  [[nodiscard]] std::uint8_t getU8() {
    need(1);
    return *p_++;
  }
  [[nodiscard]] std::uint32_t getU32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t getU64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
    return v;
  }
  [[nodiscard]] double getF64() {
    const std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string getStr() {
    const std::uint32_t n = getU32();
    need(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  [[nodiscard]] bool empty() const { return p_ == end_; }

 private:
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n) throw ProtocolError("frame underrun");
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// One framed message, decoded.
struct Frame {
  FrameType type{};
  std::vector<std::uint8_t> payload;
};

/// The result as it travels back to the client: the farm's JobResult
/// (minus the per-attempt log) plus the serve-level execution facts the
/// dispatcher knows (queue time, promotion, end-to-end serve latency).
struct WireResult {
  std::uint64_t req_id = 0;  ///< client-chosen submit correlation id
  std::string name;
  std::string tenant;
  farm::JobStatus status = farm::JobStatus::Error;
  farm::JobError cause = farm::JobError::None;
  // simulated (determinism contract)
  std::uint64_t sim_cycles = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t macroblocks = 0;
  bool bit_exact = false;
  double psnr_db = 0.0;
  std::uint64_t faults_latched = 0;
  std::uint64_t stalls_latched = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t mode_switches = 0;
  std::string quiescence;
  // host-side
  int attempts = 1;
  double wall_ms = 0.0;
  double latency_ms = 0.0;  ///< farm submission -> terminal result
  double queue_ms = 0.0;    ///< serve admission -> farm dispatch
  double serve_ms = 0.0;    ///< serve admission -> result delivered
  bool promoted = false;    ///< deadline slack promoted the farm lane
  std::string error;
};

/// Builds a WireResult from the farm's terminal result + dispatcher facts.
[[nodiscard]] WireResult makeWireResult(std::uint64_t req_id, const farm::JobResult& r,
                                        double queue_ms, double serve_ms, bool promoted);

/// Result blob codec (the Result frame payload after the req_id).
void encodeResult(ByteWriter& w, const WireResult& r);
[[nodiscard]] WireResult decodeResult(ByteReader& r);

/// Renders a WireResult as the text-mode RESULT line's key=value tail
/// (also what serve_client prints per result).
[[nodiscard]] std::string formatResultLine(const WireResult& r);

/// Blocking socket I/O for frames. sendFrame returns false on a broken
/// connection (EPIPE etc.; never raises SIGPIPE). recvFrame returns false
/// on clean EOF at a frame boundary and throws ProtocolError on a torn
/// frame or an oversized payload.
bool sendFrame(int fd, FrameType type, const std::vector<std::uint8_t>& payload);
bool recvFrame(int fd, Frame& out);

/// Exact-count recv helper: false on EOF before the first byte, throws
/// ProtocolError on EOF mid-read.
bool recvExact(int fd, void* buf, std::size_t n);

}  // namespace eclipse::serve
