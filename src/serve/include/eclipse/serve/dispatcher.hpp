#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/serve/protocol.hpp"
#include "eclipse/serve/tenant.hpp"

namespace eclipse::serve {

/// Serve-level execution facts delivered alongside the farm result.
struct DispatchInfo {
  double queue_ms = 0.0;  ///< serve admission -> farm dispatch
  double serve_ms = 0.0;  ///< serve admission -> terminal result
  bool promoted = false;  ///< deadline slack promoted the farm lane
};

struct DispatcherOptions {
  /// Promote a pending job one farm lane when its remaining wall-clock
  /// slack (deadline_ms - time waited) drops below this. Mirrors the retry
  /// path's demotion: urgency moves jobs *up*, flakiness moves them down.
  double promote_slack_ms = 100.0;
  /// Template for tenants that first appear on a Hello (auto-registration);
  /// its `name` field is ignored.
  TenantConfig default_tenant{};
  /// When false, jobs from unregistered tenants are rejected instead of
  /// auto-registering them under default_tenant.
  bool auto_register = true;
};

/// Multi-tenant QoS dispatcher: per-tenant FIFO queues in front of the
/// farm, released by deficit-round-robin (weights), paced by token
/// buckets (rate/burst), bounded by admission quotas (max in-flight in
/// the farm) and pending bounds, with deadline-aware lane promotion.
///
/// The farm below stays tenant-blind: all fairness lives here, above the
/// three priority lanes, and a job the dispatcher releases is an ordinary
/// farm job — the determinism contract is untouched (DESIGN §15).
///
/// Threading: admit() is called from connection reader threads; the
/// dispatch thread releases jobs via Farm::submitCallback; result
/// callbacks arrive on worker/supervisor threads, update tenant
/// accounting, then invoke the caller's callback *outside* the dispatcher
/// lock (it may take a connection write lock, never farm or dispatcher
/// locks — no cycle).
class Dispatcher {
 public:
  using ResultFn = std::function<void(const farm::JobResult&, const DispatchInfo&)>;

  enum class Verdict { Accepted, RateLimited, QueueFull, Draining, UnknownTenant };

  Dispatcher(farm::Farm& farm, DispatcherOptions options);
  /// Fails every still-pending job (synthetic Error result) and joins the
  /// dispatch thread. Callers that want zero loss drain first.
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Registers (or reconfigures, preserving counters and queued jobs) a
  /// tenant. Part of config reload; safe while serving.
  void configureTenant(const TenantConfig& cfg);

  /// Admission: enqueue `job` for `tenant`. On Accepted, `on_result` fires
  /// exactly once with the terminal result, on a farm thread — it must not
  /// block. deadline_ms = 0 means no wall deadline (no promotion).
  Verdict admit(const std::string& tenant, farm::Job job, double deadline_ms,
                ResultFn on_result);

  /// Rolling drain: stop admitting (admit() returns Draining), keep
  /// dispatching and delivering everything already accepted.
  void beginDrain();
  [[nodiscard]] bool draining() const;

  /// Blocks until every accepted job has delivered its result. Only
  /// meaningful after beginDrain() (admission would keep it alive).
  void awaitDrained();

  /// Per-tenant snapshots (stable name order) for /metrics and gates.
  [[nodiscard]] std::vector<TenantStats> tenantStats() const;
  /// Accepted jobs not yet terminal (pending + in farm), all tenants.
  [[nodiscard]] std::size_t outstanding() const;

 private:
  struct Pending {
    farm::Job job;
    double deadline_ms = 0.0;
    std::chrono::steady_clock::time_point admitted{};
    bool promoted = false;
    ResultFn on_result;
  };

  struct Tenant {
    TenantConfig config;
    TokenBucket bucket;
    std::deque<Pending> pending;
    double deficit = 0.0;
    // cumulative counters + quantiles (snapshotted into TenantStats)
    std::uint64_t admitted = 0, shed_rate = 0, shed_queue = 0, dispatched = 0;
    std::uint64_t completed = 0, failed = 0, promoted = 0;
    int inflight = 0;
    Histogram latency, queue_age;
  };

  void threadMain();
  /// One DRR pass over all tenants; returns true when anything dispatched.
  /// Called and returns with `lk` held.
  bool dispatchRound(std::unique_lock<std::mutex>& lk);
  /// Promotes pending jobs whose slack fell below the threshold.
  void promotionScan(std::chrono::steady_clock::time_point now);
  /// Releases the front job of `t` into the farm. Returns false when the
  /// farm queue is full (job left at the front for the next round).
  bool releaseFront(Tenant& t);
  void failPending(Tenant& t, Pending&& p, const char* why);

  farm::Farm& farm_;
  const DispatcherOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< wakes the dispatch thread
  std::condition_variable drained_;   ///< signals outstanding_ == 0
  std::map<std::string, Tenant> tenants_;  ///< stable iteration order
  std::size_t outstanding_ = 0;  ///< accepted, not yet terminal
  bool draining_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace eclipse::serve
