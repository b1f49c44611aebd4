#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eclipse/serve/protocol.hpp"

namespace eclipse::serve {

/// Blocking client for the line protocol (protocol.hpp). Single-threaded:
/// results stream back on the same socket, so every receive path buffers
/// RESULT lines that arrive while it waits for something else — submit()
/// can be called open-loop and await()/awaitAll() collect results in any
/// order.
///
/// Throws ProtocolError on a torn stream or an unexpected line (an
/// `ERR 0 ...` from the server included) and std::runtime_error on
/// connect/handshake failure. Not thread-safe.
class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and says HELLO as `tenant` (a single token).
  void connect(const std::string& host, std::uint16_t port, const std::string& tenant);

  struct Submitted {
    std::uint64_t req_id = 0;
    bool accepted = false;
    RejectReason reason = RejectReason::Internal;  ///< when !accepted
    std::string detail;
  };

  /// Submits a job line (grammar: farm::parseJob; no newline) and waits
  /// for its `OK accepted` or `ERR` reply. req_ids are assigned 1, 2, ...
  Submitted submit(const std::string& spec);

  /// Blocks until the result for `req_id` arrives (earlier-arriving other
  /// results are buffered for their own await calls).
  WireResult await(std::uint64_t req_id);

  /// Collects the results of every accepted-but-unawaited submission.
  std::vector<WireResult> awaitAll();

  /// Fetches the /metrics exposition text.
  std::string metricsText();

  void ping();

  /// Polite goodbye (QUIT) + socket close. Safe to call twice.
  void close();

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// Accepted submissions whose results have not been awaited yet.
  [[nodiscard]] std::size_t outstanding() const { return outstanding_.size(); }

 private:
  void sendLine(const std::string& line);
  /// The next line from the server, without its newline.
  std::string readLine();
  /// The next line that is not a RESULT (those are buffered for await()).
  std::string readReply();
  /// Buffers `line` when it is a RESULT line; false for any other line.
  bool bufferIfResult(const std::string& line);

  int fd_ = -1;
  std::string inbuf_;  ///< received bytes not yet returned as lines
  std::uint64_t next_req_id_ = 1;
  std::map<std::uint64_t, WireResult> results_;  ///< arrived, not yet awaited
  std::map<std::uint64_t, bool> outstanding_;    ///< accepted, result not seen
};

}  // namespace eclipse::serve
