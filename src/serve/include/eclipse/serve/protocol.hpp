#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "eclipse/farm/job.hpp"

namespace eclipse::serve {

/// eclipse_serve wire protocol (DESIGN §15): newline-terminated text lines
/// in both directions, so nc and curl speak it as well as serve::Client.
///
///     client                      server
///     HELLO <tenant>              OK hello <tenant>
///     SUBMIT <id> <job line>      OK accepted <id>  or  ERR <id> <reason> <detail>
///                                 ... later: RESULT <id> <formatResultLine>
///     GET /metrics                the exposition text, then a "." line
///     PING                        PONG
///     QUIT                        BYE
///
/// A line the server cannot act on gets `ERR 0 bad-command <detail>`; a
/// connection over the server's cap gets `ERR 0 too-many-connections` and
/// is closed.

/// Longest line either side buffers; a peer that sends more without a
/// newline is corrupt or hostile and its connection is dropped.
inline constexpr std::size_t kMaxLineBytes = 1u << 20;

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

/// Inverse of rejectReasonName; std::nullopt for any other word.
[[nodiscard]] std::optional<RejectReason> rejectReasonFromName(std::string_view name);

/// A malformed or unexpected line. The connection that raised it is
/// unrecoverable and gets closed.
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
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

/// The RESULT line's tail after the id: every WireResult field but req_id
/// as `key=value`, in this order:
///
///     name tenant status cause cycles events mbs bit_exact psnr faults
///     stalls frames_dropped mode_switches quiescence attempts promoted
///     wall_ms latency_ms queue_ms serve_ms error
///
/// Doubles are written at shortest round-trip precision (`inf` and `nan`
/// included), flags as 0/1, status and cause by name. `error` comes last
/// and takes the rest of the line; a newline in it is sent as a space.
/// name, tenant and quiescence are single tokens (the job grammar and
/// HELLO guarantee it). Also what serve_client prints per result.
[[nodiscard]] std::string formatResultLine(const WireResult& r);

/// Inverse of formatResultLine (req_id is left 0). Throws ProtocolError
/// on a missing or reordered key and on a value that does not parse.
[[nodiscard]] WireResult parseResultLine(std::string_view line);

/// Writes all `n` bytes to the socket; false when the peer is gone (EPIPE
/// and the like, never raising SIGPIPE).
bool sendAll(int fd, const void* data, std::size_t n);

}  // namespace eclipse::serve
