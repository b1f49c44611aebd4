#include "eclipse/serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <charconv>

#include "eclipse/sim/config.hpp"

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

/// The value of `all` whose `nameOf` is `name`.
template <typename E, std::size_t N>
std::optional<E> byName(std::string_view name, const E (&all)[N], const char* (*nameOf)(E)) {
  for (E e : all) {
    if (name == nameOf(e)) return e;
  }
  return std::nullopt;
}

constexpr RejectReason kReasons[] = {
    RejectReason::BadSpec,  RejectReason::RateLimited,   RejectReason::QueueFull,
    RejectReason::Draining, RejectReason::UnknownTenant, RejectReason::TooManyConnections,
    RejectReason::Internal};
constexpr farm::JobStatus kStatuses[] = {farm::JobStatus::Completed, farm::JobStatus::Incomplete,
                                         farm::JobStatus::Error, farm::JobStatus::Quarantined};
constexpr farm::JobError kCauses[] = {
    farm::JobError::None,         farm::JobError::DeadlineExceeded, farm::JobError::Stall,
    farm::JobError::FaultLatched, farm::JobError::Config,           farm::JobError::WorkerLost};

template <typename T>
std::string numberText(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Reads a RESULT line's keys in their one order; every miss throws.
class ResultLineReader {
 public:
  explicit ResultLineReader(std::string_view line) : rest_(line) {}

  /// The value of `key`, which must come next; up to the next space, or
  /// to the end of the line when `to_end`.
  std::string_view text(std::string_view key, bool to_end = false) {
    if (rest_.size() <= key.size() || rest_.substr(0, key.size()) != key ||
        rest_[key.size()] != '=') {
      throw ProtocolError("RESULT line: missing " + std::string(key) + "=");
    }
    rest_.remove_prefix(key.size() + 1);
    const std::size_t end = to_end ? rest_.size() : std::min(rest_.find(' '), rest_.size());
    const std::string_view val = rest_.substr(0, end);
    rest_.remove_prefix(std::min(end + 1, rest_.size()));
    return val;
  }

  template <typename T>
  T number(std::string_view key) {
    const std::string_view val = text(key);
    const std::optional<T> v = sim::parseNumber<T>(val);
    if (!v) throw bad(key, val);
    return *v;
  }

  bool flag(std::string_view key) {
    const std::string_view val = text(key);
    if (val != "0" && val != "1") throw bad(key, val);
    return val == "1";
  }

  /// The value of `all` whose `nameOf` is the key's value.
  template <typename E, std::size_t N>
  E named(std::string_view key, const E (&all)[N], const char* (*nameOf)(E)) {
    const std::string_view val = text(key);
    const std::optional<E> e = byName(val, all, nameOf);
    if (!e) throw bad(key, val);
    return *e;
  }

 private:
  static ProtocolError bad(std::string_view key, std::string_view val) {
    return ProtocolError("RESULT line: bad " + std::string(key) + "=" + std::string(val));
  }

  std::string_view rest_;
};

}  // namespace

std::optional<RejectReason> rejectReasonFromName(std::string_view name) {
  return byName(name, kReasons, rejectReasonName);
}

std::string formatResultLine(const WireResult& r) {
  std::string out;
  auto put = [&out](const char* key, std::string_view val) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += val;
  };
  put("name", r.name);
  put("tenant", r.tenant);
  put("status", farm::jobStatusName(r.status));
  put("cause", farm::jobErrorName(r.cause));
  put("cycles", numberText(r.sim_cycles));
  put("events", numberText(r.sim_events));
  put("mbs", numberText(r.macroblocks));
  put("bit_exact", r.bit_exact ? "1" : "0");
  put("psnr", numberText(r.psnr_db));
  put("faults", numberText(r.faults_latched));
  put("stalls", numberText(r.stalls_latched));
  put("frames_dropped", numberText(r.frames_dropped));
  put("mode_switches", numberText(r.mode_switches));
  put("quiescence", r.quiescence);
  put("attempts", numberText(r.attempts));
  put("promoted", r.promoted ? "1" : "0");
  put("wall_ms", numberText(r.wall_ms));
  put("latency_ms", numberText(r.latency_ms));
  put("queue_ms", numberText(r.queue_ms));
  put("serve_ms", numberText(r.serve_ms));
  std::string error = r.error;
  std::replace(error.begin(), error.end(), '\n', ' ');
  std::replace(error.begin(), error.end(), '\r', ' ');
  put("error", error);
  return out;
}

WireResult parseResultLine(std::string_view line) {
  ResultLineReader in(line);
  WireResult r;
  r.name = in.text("name");
  r.tenant = in.text("tenant");
  r.status = in.named("status", kStatuses, farm::jobStatusName);
  r.cause = in.named("cause", kCauses, farm::jobErrorName);
  r.sim_cycles = in.number<std::uint64_t>("cycles");
  r.sim_events = in.number<std::uint64_t>("events");
  r.macroblocks = in.number<std::uint64_t>("mbs");
  r.bit_exact = in.flag("bit_exact");
  r.psnr_db = in.number<double>("psnr");
  r.faults_latched = in.number<std::uint64_t>("faults");
  r.stalls_latched = in.number<std::uint64_t>("stalls");
  r.frames_dropped = in.number<std::uint64_t>("frames_dropped");
  r.mode_switches = in.number<std::uint64_t>("mode_switches");
  r.quiescence = in.text("quiescence");
  r.attempts = in.number<int>("attempts");
  r.promoted = in.flag("promoted");
  r.wall_ms = in.number<double>("wall_ms");
  r.latency_ms = in.number<double>("latency_ms");
  r.queue_ms = in.number<double>("queue_ms");
  r.serve_ms = in.number<double>("serve_ms");
  r.error = in.text("error", /*to_end=*/true);
  return r;
}

bool sendAll(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
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

}  // namespace eclipse::serve
