#include "eclipse/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "eclipse/serve/jobspec.hpp"
#include "eclipse/serve/metrics_text.hpp"
#include "eclipse/serve/protocol.hpp"

namespace eclipse::serve {

/// One accepted connection. The reader thread owns the receive side; the
/// send side is shared between the reader (replies) and farm threads
/// (async results) under write_mu. The fd closes only when the reader is
/// done AND no accepted job still owes this connection a result — so a
/// drain flushes every result before teardown can close anything.
struct Server::Conn {
  int fd = -1;
  bool binary = false;
  std::string tenant = "default";

  std::mutex write_mu;
  bool write_dead = false;  ///< send failed; swallow further writes
  bool read_done = false;
  int outstanding = 0;  ///< accepted jobs whose result hasn't been written

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  /// Sends raw bytes; false when the peer is gone (writes become no-ops).
  bool sendRaw(const void* data, std::size_t n) {
    std::lock_guard<std::mutex> lk(write_mu);
    return sendRawLocked(data, n);
  }
  bool sendRawLocked(const void* data, std::size_t n) {
    if (fd < 0 || write_dead) return false;
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t k = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EINTR) continue;
        write_dead = true;
        ::shutdown(fd, SHUT_RDWR);  // wake the reader; the conn is over
        return false;
      }
      sent += static_cast<std::size_t>(k);
    }
    return true;
  }
  bool sendFrameLocked(FrameType type, const std::vector<std::uint8_t>& payload) {
    ByteWriter head;
    head.putU32(static_cast<std::uint32_t>(payload.size()));
    head.putU8(static_cast<std::uint8_t>(type));
    if (!sendRawLocked(head.bytes().data(), head.bytes().size())) return false;
    return payload.empty() || sendRawLocked(payload.data(), payload.size());
  }
  bool sendFrame(FrameType type, const std::vector<std::uint8_t>& payload) {
    std::lock_guard<std::mutex> lk(write_mu);
    return sendFrameLocked(type, payload);
  }
  bool sendLine(const std::string& line) {
    const std::string out = line + "\n";
    return sendRaw(out.data(), out.size());
  }

  void closeIfDoneLocked() {
    if (fd >= 0 && read_done && outstanding == 0) {
      ::close(fd);
      fd = -1;
    }
  }
  [[nodiscard]] bool live() {
    std::lock_guard<std::mutex> lk(write_mu);
    return fd >= 0;
  }
};

Server::Server(ServeOptions options) : opts_(std::move(options)), farm_(opts_.farm) {
  DispatcherOptions dopts;
  dopts.promote_slack_ms = opts_.promote_slack_ms;
  dopts.default_tenant = opts_.default_tenant;
  dopts.auto_register = opts_.auto_register;
  dopts.poll_ms = opts_.poll_ms;
  dispatcher_ = std::make_unique<Dispatcher>(farm_, dopts);
  for (const TenantConfig& t : opts_.tenants) dispatcher_->configureTenant(t);
}

Server::~Server() { shutdown(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" + std::to_string(opts_.port));
  }
  if (::listen(listen_fd_, opts_.accept_backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  accepting_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { acceptLoop(); });
}

void Server::beginDrain() {
  accepting_.store(false, std::memory_order_release);
  dispatcher_->beginDrain();
}

void Server::shutdown() {
  if (stopped_.exchange(true)) return;
  beginDrain();
  // Every accepted job delivers its result — written to its connection
  // under write_mu by the callback — before anything below closes a socket.
  dispatcher_->awaitDrained();

  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept()
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns = conns_;
  }
  for (const auto& c : conns) {
    std::lock_guard<std::mutex> lk(c->write_mu);
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);  // readers see EOF and exit
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void Server::reload(const ReloadConfig& cfg) {
  for (const TenantConfig& t : cfg.tenants) dispatcher_->configureTenant(t);
  if (cfg.workers > 0) farm_.resizeWorkers(cfg.workers);
}

std::string Server::metricsText() const {
  return renderMetricsText(farm_.metrics(), dispatcher_->tenantStats());
}

int Server::connectionCount() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  int n = 0;
  for (const auto& c : conns_) {
    if (c->live()) ++n;
  }
  return n;
}

void Server::acceptLoop() {
  while (true) {
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down
    }
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(cfd);  // draining: refuse at the door
      continue;
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      // Prune fully-closed connections so the list tracks live ones.
      std::erase_if(conns_, [](const std::shared_ptr<Conn>& c) { return !c->live(); });
      if (static_cast<int>(conns_.size()) >= opts_.max_connections) {
        const std::string msg = "ERR 0 too-many-connections\n";
        ::send(cfd, msg.data(), msg.size(), MSG_NOSIGNAL);
        ::close(cfd);
        conn->fd = -1;  // the Conn destructor must not re-close
        continue;
      }
      conns_.push_back(conn);
      conn_threads_.emplace_back([this, conn] { connLoop(conn); });
    }
  }
}

void Server::connLoop(std::shared_ptr<Conn> conn) {
  char magic[4];
  bool ok = false;
  try {
    ok = recvExact(conn->fd, magic, sizeof magic);
  } catch (const ProtocolError&) {
    ok = false;
  }
  if (ok) {
    if (std::memcmp(magic, kMagic, sizeof magic) == 0) {
      conn->binary = true;
      serveBinary(conn);
    } else {
      serveText(conn, std::string(magic, sizeof magic));
    }
  }
  std::lock_guard<std::mutex> lk(conn->write_mu);
  conn->read_done = true;
  conn->closeIfDoneLocked();
}

void Server::serveBinary(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    Frame f;
    try {
      if (!recvFrame(conn->fd, f)) return;  // clean EOF
    } catch (const ProtocolError& e) {
      ByteWriter w;
      w.putStr(e.what());
      conn->sendFrame(FrameType::Error, w.bytes());
      return;
    }
    try {
      ByteReader rd(f.payload);
      switch (f.type) {
        case FrameType::Hello: {
          conn->tenant = rd.getStr();
          ByteWriter w;
          w.putStr("eclipse-serve/1 tenant=" + conn->tenant);
          conn->sendFrame(FrameType::HelloOk, w.bytes());
          break;
        }
        case FrameType::Submit: {
          const std::uint64_t req_id = rd.getU64();
          handleSubmit(conn, req_id, rd.getStr());
          break;
        }
        case FrameType::Metrics: {
          ByteWriter w;
          w.putStr(metricsText());
          conn->sendFrame(FrameType::MetricsText, w.bytes());
          break;
        }
        case FrameType::Ping:
          conn->sendFrame(FrameType::Pong, {});
          break;
        case FrameType::Quit:
          conn->sendFrame(FrameType::Bye, {});
          return;
        default: {
          ByteWriter w;
          w.putStr("unexpected frame type");
          conn->sendFrame(FrameType::Error, w.bytes());
          return;
        }
      }
    } catch (const ProtocolError& e) {
      ByteWriter w;
      w.putStr(e.what());
      conn->sendFrame(FrameType::Error, w.bytes());
      return;
    }
  }
}

void Server::serveText(const std::shared_ptr<Conn>& conn, std::string carry) {
  std::string buf = std::move(carry);
  char chunk[4096];
  for (;;) {
    // Drain complete lines already buffered before reading more.
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::istringstream is(line);
      std::string cmd;
      if (!(is >> cmd)) continue;
      if (cmd == "HELLO") {
        std::string tenant;
        if (is >> tenant) {
          conn->tenant = tenant;
          conn->sendLine("OK hello " + tenant);
        } else {
          conn->sendLine("ERR 0 bad-command HELLO needs a tenant");
        }
      } else if (cmd == "SUBMIT") {
        std::string id_str;
        if (!(is >> id_str)) {
          conn->sendLine("ERR 0 bad-command SUBMIT needs an id");
          continue;
        }
        std::uint64_t req_id = 0;
        try {
          req_id = std::stoull(id_str);
        } catch (const std::exception&) {
          conn->sendLine("ERR 0 bad-command bad submit id: " + id_str);
          continue;
        }
        std::string spec;
        std::getline(is, spec);
        handleSubmit(conn, req_id, spec);
      } else if (cmd == "METRICS" || cmd == "GET") {
        // `GET /metrics` is accepted as a curl-friendly alias; any other
        // GET path is a bad command.
        std::string path;
        if (cmd == "GET" && (!(is >> path) || path != "/metrics")) {
          conn->sendLine("ERR 0 bad-command GET " + path);
          continue;
        }
        // One write: the text plus the "." terminator line.
        const std::string text = metricsText() + ".\n";
        conn->sendRaw(text.data(), text.size());
      } else if (cmd == "PING") {
        conn->sendLine("PONG");
      } else if (cmd == "QUIT") {
        conn->sendLine("BYE");
        return;
      } else {
        conn->sendLine("ERR 0 bad-command " + cmd);
      }
    }
    if (buf.size() > kMaxFramePayload) return;  // unbounded garbage line
    ssize_t k;
    do {
      k = ::recv(conn->fd, chunk, sizeof chunk, 0);
    } while (k < 0 && errno == EINTR);
    if (k <= 0) return;  // EOF or error
    buf.append(chunk, static_cast<std::size_t>(k));
  }
}

void Server::handleSubmit(const std::shared_ptr<Conn>& conn, std::uint64_t req_id,
                          const std::string& spec) {
  auto reject = [&](RejectReason why, const std::string& detail) {
    if (conn->binary) {
      ByteWriter w;
      w.putU64(req_id);
      w.putU8(static_cast<std::uint8_t>(why));
      w.putStr(detail);
      conn->sendFrame(FrameType::Rejected, w.bytes());
    } else {
      conn->sendLine("ERR " + std::to_string(req_id) + " " + rejectReasonName(why) +
                     (detail.empty() ? "" : " " + detail));
    }
  };

  ParsedSpec ps;
  std::string err;
  if (!parseJobSpec(spec, ps, err)) {
    reject(RejectReason::BadSpec, err);
    return;
  }

  // Count the result debt *before* admission: the callback may fire on a
  // farm thread before admit() even returns.
  {
    std::lock_guard<std::mutex> lk(conn->write_mu);
    ++conn->outstanding;
  }
  // The ack precedes the result on the wire: a short job can finish on a
  // farm thread before admit() returns, so whichever side writes first
  // sends the ack. Both run under conn->write_mu, which guards `acked`.
  auto acked = std::make_shared<bool>(false);
  auto ackLocked = [conn, req_id, acked] {
    if (*acked) return;
    *acked = true;
    if (conn->binary) {
      ByteWriter w;
      w.putU64(req_id);
      conn->sendFrameLocked(FrameType::Accepted, w.bytes());
    } else {
      const std::string line = "OK accepted " + std::to_string(req_id) + "\n";
      conn->sendRawLocked(line.data(), line.size());
    }
  };
  auto on_result = [this, conn, req_id, ackLocked](const farm::JobResult& r,
                                                    const DispatchInfo& di) {
    const WireResult wr = makeWireResult(req_id, r, di.queue_ms, di.serve_ms, di.promoted);
    bool written;
    {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      ackLocked();
      if (conn->binary) {
        ByteWriter w;
        w.putU64(req_id);
        encodeResult(w, wr);
        written = conn->sendFrameLocked(FrameType::Result, w.bytes());
      } else {
        const std::string line =
            "RESULT " + std::to_string(req_id) + " " + formatResultLine(wr) + "\n";
        written = conn->sendRawLocked(line.data(), line.size());
      }
      --conn->outstanding;
      conn->closeIfDoneLocked();
    }
    if (!written) results_dropped_.fetch_add(1, std::memory_order_relaxed);
  };

  const Dispatcher::Verdict v =
      dispatcher_->admit(conn->tenant, std::move(ps.job), ps.deadline_ms, std::move(on_result));
  if (v == Dispatcher::Verdict::Accepted) {
    std::lock_guard<std::mutex> lk(conn->write_mu);
    ackLocked();
    return;
  }
  {
    std::lock_guard<std::mutex> lk(conn->write_mu);
    --conn->outstanding;  // never admitted: no result will come
  }
  switch (v) {
    case Dispatcher::Verdict::RateLimited:
      reject(RejectReason::RateLimited, "tenant over rate");
      break;
    case Dispatcher::Verdict::QueueFull:
      reject(RejectReason::QueueFull, "tenant queue full");
      break;
    case Dispatcher::Verdict::Draining:
      reject(RejectReason::Draining, "server draining");
      break;
    case Dispatcher::Verdict::UnknownTenant:
      reject(RejectReason::UnknownTenant, "say HELLO with a registered tenant");
      break;
    case Dispatcher::Verdict::Accepted:
      break;  // unreachable
  }
}

}  // namespace eclipse::serve
