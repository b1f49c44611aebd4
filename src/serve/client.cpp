#include "eclipse/serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "eclipse/sim/config.hpp"

namespace eclipse::serve {

void Client::connect(const std::string& host, std::uint16_t port, const std::string& tenant) {
  if (fd_ >= 0) throw std::runtime_error("client already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::runtime_error("client: bad host (IPv4 literal expected): " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    throw std::runtime_error("client: cannot connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  try {
    sendLine("HELLO " + tenant);
    const std::string reply = readReply();
    if (reply != "OK hello " + tenant) throw ProtocolError("unexpected reply to HELLO: " + reply);
  } catch (const ProtocolError&) {
    close();
    throw;
  }
}

Client::Submitted Client::submit(const std::string& spec) {
  if (spec.find_first_of("\r\n") != std::string::npos)
    throw ProtocolError("job line contains a line break");
  Submitted s;
  s.req_id = next_req_id_++;
  const std::string id = std::to_string(s.req_id);
  sendLine("SUBMIT " + id + " " + spec);

  // The reply for *this* id. A RESULT may legally precede it (even this
  // id's, under extreme server speed): readReply buffers those.
  const std::string reply = readReply();
  if (reply == "OK accepted " + id) {
    s.accepted = true;
    outstanding_[s.req_id] = true;
    return s;
  }
  const std::string err = "ERR " + id + " ";
  if (reply.rfind(err, 0) != 0) throw ProtocolError("unexpected reply to SUBMIT: " + reply);
  const std::string_view rest = std::string_view(reply).substr(err.size());
  const std::size_t sp = rest.find(' ');
  const std::optional<RejectReason> reason = rejectReasonFromName(rest.substr(0, sp));
  if (!reason) throw ProtocolError("unknown reject reason: " + reply);
  s.reason = *reason;
  if (sp != std::string_view::npos) s.detail = rest.substr(sp + 1);
  return s;
}

WireResult Client::await(std::uint64_t req_id) {
  for (;;) {
    auto it = results_.find(req_id);
    if (it != results_.end()) {
      WireResult r = std::move(it->second);
      results_.erase(it);
      outstanding_.erase(req_id);
      return r;
    }
    const std::string line = readLine();
    if (!bufferIfResult(line)) throw ProtocolError("unexpected line while awaiting: " + line);
  }
}

std::vector<WireResult> Client::awaitAll() {
  std::vector<WireResult> out;
  while (!outstanding_.empty()) {
    out.push_back(await(outstanding_.begin()->first));
  }
  return out;
}

std::string Client::metricsText() {
  sendLine("GET /metrics");
  // The server writes the whole block at once, so no RESULT lands inside it.
  std::string text;
  for (std::string line = readReply(); line != "."; line = readLine()) text += line + "\n";
  return text;
}

void Client::ping() {
  sendLine("PING");
  const std::string reply = readReply();
  if (reply != "PONG") throw ProtocolError("unexpected reply to PING: " + reply);
}

void Client::close() {
  if (fd_ < 0) return;
  // Best-effort goodbye; the server also handles plain EOF.
  const std::string quit = "QUIT\n";
  sendAll(fd_, quit.data(), quit.size());
  ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

void Client::sendLine(const std::string& line) {
  const std::string out = line + "\n";
  if (!sendAll(fd_, out.data(), out.size())) throw ProtocolError("write failed: " + line);
}

std::string Client::readLine() {
  for (;;) {
    const std::size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      return line;
    }
    if (inbuf_.size() > kMaxLineBytes) throw ProtocolError("oversized line");
    char chunk[4096];
    ssize_t k;
    do {
      k = ::recv(fd_, chunk, sizeof chunk, 0);
    } while (k < 0 && errno == EINTR);
    if (k <= 0) throw ProtocolError("server closed the connection");
    inbuf_.append(chunk, static_cast<std::size_t>(k));
  }
}

std::string Client::readReply() {
  for (;;) {
    std::string line = readLine();
    if (bufferIfResult(line)) continue;
    if (line.rfind("ERR 0 ", 0) == 0) throw ProtocolError("server error: " + line.substr(6));
    return line;
  }
}

bool Client::bufferIfResult(const std::string& line) {
  static constexpr std::string_view kResult = "RESULT ";
  if (line.rfind(kResult, 0) != 0) return false;
  const std::string_view rest = std::string_view(line).substr(kResult.size());
  const std::size_t sp = rest.find(' ');
  const std::optional<std::uint64_t> id = sim::parseNumber<std::uint64_t>(rest.substr(0, sp));
  if (!id || sp == std::string_view::npos) throw ProtocolError("bad RESULT line: " + line);
  WireResult r = parseResultLine(rest.substr(sp + 1));
  r.req_id = *id;
  results_.insert_or_assign(*id, std::move(r));
  return true;
}

}  // namespace eclipse::serve
