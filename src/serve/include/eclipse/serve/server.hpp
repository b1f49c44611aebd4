#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/serve/dispatcher.hpp"
#include "eclipse/serve/tenant.hpp"

namespace eclipse::serve {

struct ServeOptions {
  farm::FarmOptions farm{};
  /// Pre-registered tenants; others appear via auto-registration under
  /// `default_tenant` (or are rejected when auto_register is off).
  std::vector<TenantConfig> tenants;
  TenantConfig default_tenant{};
  bool auto_register = true;
  double promote_slack_ms = 100.0;

  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port())
  /// Kernel accept backlog; beyond it the kernel refuses connections —
  /// the explicit bound on un-accepted connection pressure.
  int accept_backlog = 16;
  /// Accepted-connection bound: beyond it a fresh connection is sent
  /// `ERR 0 too-many-connections` and closed.
  int max_connections = 64;
};

/// Config-reload payload: the subset of ServeOptions that may change live.
struct ReloadConfig {
  std::vector<TenantConfig> tenants;  ///< upserted into the dispatcher
  int workers = 0;                    ///< > 0: resize the farm worker pool
};

/// The serving tier: a TCP front-end speaking the line protocol of
/// protocol.hpp over Dispatcher over Farm. One reader thread per
/// connection; results stream back asynchronously from farm threads under
/// a per-connection write lock (DESIGN §15).
class Server {
 public:
  explicit Server(ServeOptions options);
  /// Equivalent to shutdown(): drains accepted work, then tears down.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts listening (loopback) and accepting. Throws std::runtime_error
  /// when the socket cannot be bound.
  void start();

  /// The bound port (after start(); useful with port = 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Rolling drain, phase 1: stop accepting connections and admitting
  /// jobs; everything already accepted keeps running. Idempotent.
  void beginDrain();

  /// Rolling drain, phase 2: wait until every accepted job has delivered
  /// its result to its connection, then close connections and join all
  /// threads. Zero accepted-job loss by construction.
  void shutdown();

  /// Live reconfiguration without dropping accepted jobs: upserts tenant
  /// QoS configs and resizes the farm worker pool.
  void reload(const ReloadConfig& cfg);

  /// The /metrics exposition (same text `GET /metrics` returns).
  [[nodiscard]] std::string metricsText() const;

  [[nodiscard]] farm::Farm& farm() { return farm_; }
  [[nodiscard]] Dispatcher& dispatcher() { return *dispatcher_; }
  [[nodiscard]] int connectionCount() const;
  /// Jobs accepted over connections whose results were never written
  /// (client gone before the result). 0 after a clean drain of wellbehaved
  /// clients — the zero-loss gate asserts exactly that.
  [[nodiscard]] std::uint64_t resultsDropped() const {
    return results_dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void acceptLoop();
  void connLoop(std::shared_ptr<Conn> conn);
  /// Reads and answers request lines until QUIT, EOF or an overlong line.
  void serveLines(const std::shared_ptr<Conn>& conn);
  /// Parses + admits one submission; sends `OK accepted` or `ERR` and,
  /// later, the RESULT line.
  void handleSubmit(const std::shared_ptr<Conn>& conn, std::uint64_t req_id,
                    const std::string& spec);

  ServeOptions opts_;
  farm::Farm farm_;  // declared before dispatcher_: destroyed after it
  std::unique_ptr<Dispatcher> dispatcher_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> results_dropped_{0};
  std::thread accept_thread_;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace eclipse::serve
