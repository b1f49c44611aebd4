#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eclipse/serve/protocol.hpp"

namespace eclipse::serve {

/// Blocking binary-protocol client (the canonical consumer; the text mode
/// is for humans with nc). Single-threaded: results stream back on the
/// same socket, so every receive path buffers Result frames that arrive
/// while it waits for something else — submit() can be called open-loop
/// and await()/awaitAll() collect results in any order.
///
/// Throws ProtocolError on a torn stream and std::runtime_error on
/// connect/handshake failure. Not thread-safe.
class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects, sends the "ECL1" magic and a Hello for `tenant`.
  void connect(const std::string& host, std::uint16_t port, const std::string& tenant);

  struct Submitted {
    std::uint64_t req_id = 0;
    bool accepted = false;
    RejectReason reason = RejectReason::Internal;  ///< when !accepted
    std::string detail;
  };

  /// Submits a job line (grammar: farm::parseJob) and waits for the
  /// Accepted/Rejected reply. req_ids are assigned 1, 2, ...
  Submitted submit(const std::string& spec);

  /// Blocks until the result for `req_id` arrives (earlier-arriving other
  /// results are buffered for their own await calls).
  WireResult await(std::uint64_t req_id);

  /// Collects the results of every accepted-but-unawaited submission.
  std::vector<WireResult> awaitAll();

  /// Fetches the /metrics exposition text.
  std::string metricsText();

  void ping();

  /// Polite goodbye (Quit/Bye) + socket close. Safe to call twice.
  void close();

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// Accepted submissions whose results have not been awaited yet.
  [[nodiscard]] std::size_t outstanding() const { return outstanding_.size(); }

 private:
  /// Reads frames until one of `want` arrives, buffering Result frames.
  Frame readUntil(std::initializer_list<FrameType> want);
  void bufferResult(const Frame& f);

  int fd_ = -1;
  std::uint64_t next_req_id_ = 1;
  std::map<std::uint64_t, WireResult> results_;  ///< arrived, not yet awaited
  std::map<std::uint64_t, bool> outstanding_;    ///< accepted, result not seen
};

}  // namespace eclipse::serve
