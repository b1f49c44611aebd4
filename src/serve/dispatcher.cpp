#include "eclipse/serve/dispatcher.hpp"

#include <utility>

namespace eclipse::serve {

namespace {
using Clock = std::chrono::steady_clock;

/// Dispatch-thread wake period: bounds how stale token refills and
/// promotion scans can get when no admission/result activity wakes it.
constexpr std::chrono::milliseconds kPoll{2};

double msSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
}  // namespace

Dispatcher::Dispatcher(farm::Farm& farm, DispatcherOptions options)
    : farm_(farm), opts_(std::move(options)) {
  thread_ = std::thread([this] { threadMain(); });
}

Dispatcher::~Dispatcher() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();

  // Fail whatever never reached the farm, then wait for the farm to
  // deliver what did — its callbacks still land here, so the dispatcher
  // must not be torn down under them. (A drained server reaches this with
  // outstanding_ already 0.)
  std::vector<std::pair<Pending, std::string>> orphans;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [name, t] : tenants_) {
      while (!t.pending.empty()) {
        orphans.emplace_back(std::move(t.pending.front()), name);
        t.pending.pop_front();
        ++t.failed;
        --outstanding_;
      }
    }
  }
  for (auto& [p, name] : orphans) {
    farm::JobResult r;
    r.name = p.job.name;
    r.tenant = name;
    r.status = farm::JobStatus::Error;
    r.error = "dispatcher shut down before dispatch";
    if (p.on_result) {
      const auto now = Clock::now();
      p.on_result(r, DispatchInfo{msSince(p.admitted, now), msSince(p.admitted, now),
                                  p.promoted});
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  drained_.wait(lk, [&] { return outstanding_ == 0; });
}

void Dispatcher::configureTenant(const TenantConfig& cfg) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    Tenant& t = tenants_[cfg.name];  // creates on first sight
    t.config = cfg;
  }
  cv_.notify_all();  // new limits may unblock a stalled tenant
}

Dispatcher::Verdict Dispatcher::admit(const std::string& tenant, farm::Job job,
                                      double deadline_ms, ResultFn on_result) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ || stop_) return Verdict::Draining;
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      if (!opts_.auto_register) return Verdict::UnknownTenant;
      Tenant fresh;
      fresh.config = opts_.default_tenant;
      fresh.config.name = tenant;
      it = tenants_.emplace(tenant, std::move(fresh)).first;
    }
    Tenant& t = it->second;
    if (t.pending.size() >= t.config.max_pending) {
      ++t.shed_queue;
      return Verdict::QueueFull;
    }
    const auto now = Clock::now();
    if (t.config.policy == OverloadPolicy::Shed) {
      // Shed tenants pay their token at the door: over-rate traffic is
      // rejected immediately instead of buffering (Queue tenants pay at
      // dispatch and get paced instead).
      t.bucket.refill(t.config, now);
      if (!t.bucket.tryTake(t.config)) {
        ++t.shed_rate;
        return Verdict::RateLimited;
      }
    }
    Pending p;
    p.job = std::move(job);
    p.job.tenant = tenant;
    p.deadline_ms = deadline_ms;
    p.admitted = now;
    p.on_result = std::move(on_result);
    t.pending.push_back(std::move(p));
    ++t.admitted;
    ++outstanding_;
  }
  cv_.notify_all();
  return Verdict::Accepted;
}

void Dispatcher::beginDrain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

bool Dispatcher::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

void Dispatcher::awaitDrained() {
  std::unique_lock<std::mutex> lk(mu_);
  drained_.wait(lk, [&] { return outstanding_ == 0; });
}

std::vector<TenantStats> Dispatcher::tenantStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStats s;
    s.config = t.config;
    s.admitted = t.admitted;
    s.shed_rate = t.shed_rate;
    s.shed_queue = t.shed_queue;
    s.dispatched = t.dispatched;
    s.completed = t.completed;
    s.failed = t.failed;
    s.promoted = t.promoted;
    s.pending = t.pending.size();
    s.inflight = t.inflight;
    s.latency = t.latency;
    s.queue_age = t.queue_age;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t Dispatcher::outstanding() const {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_;
}

void Dispatcher::threadMain() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    promotionScan(Clock::now());
    const bool any = dispatchRound(lk);
    if (stop_) break;
    if (!any) {
      cv_.wait_for(lk, kPoll);
    }
  }
}

void Dispatcher::promotionScan(Clock::time_point now) {
  for (auto& [name, t] : tenants_) {
    for (Pending& p : t.pending) {
      if (p.deadline_ms <= 0.0 || p.promoted) continue;
      const double slack = p.deadline_ms - msSince(p.admitted, now);
      if (slack >= opts_.promote_slack_ms) continue;
      p.promoted = true;  // one promotion per job: urgency buys one lane
      if (p.job.priority != farm::Priority::High) {
        p.job.priority = farm::promoted(p.job.priority);
        ++t.promoted;
      }
    }
  }
}

bool Dispatcher::dispatchRound(std::unique_lock<std::mutex>& lk) {
  bool any = false;
  const auto now = Clock::now();
  for (auto& [name, t] : tenants_) {
    if (t.pending.empty()) {
      t.deficit = 0.0;  // classic DRR: no banking credit across idle spells
      continue;
    }
    t.bucket.refill(t.config, now);
    // Cap the deficit so a tenant parked on its quota cannot bank an
    // unbounded burst for later.
    t.deficit = std::min(t.deficit + t.config.weight, std::max(1.0, t.config.weight * 8.0));
    while (t.deficit >= 1.0 && !t.pending.empty()) {
      if (t.inflight >= t.config.max_inflight) break;
      // Queue-policy tenants are paced here; a drain bypasses pacing so
      // accepted work finishes as fast as the farm allows.
      const bool need_token = !draining_ && t.config.policy == OverloadPolicy::Queue;
      if (need_token && !t.bucket.tryTake(t.config)) break;
      if (!releaseFront(t)) {
        if (need_token) t.bucket.refund(t.config);
        return any;  // farm queue full: a global condition, end the round
      }
      t.deficit -= 1.0;
      any = true;
    }
  }
  (void)lk;
  return any;
}

bool Dispatcher::releaseFront(Tenant& t) {
  Pending p = std::move(t.pending.front());
  t.pending.pop_front();
  const auto now = Clock::now();
  const double queue_ms = msSince(p.admitted, now);

  Tenant* tp = &t;  // map nodes are stable; tenants are never erased
  // Shared so the callback can be reclaimed on the non-Accepted paths
  // below (std::function must be copyable, so a move-only capture is out).
  auto user = std::make_shared<ResultFn>(std::move(p.on_result));
  auto on_terminal = [this, tp, admitted = p.admitted, queue_ms, was_promoted = p.promoted,
                      user](const farm::JobResult& r) {
    DispatchInfo info;
    info.queue_ms = queue_ms;
    info.serve_ms = msSince(admitted, Clock::now());
    info.promoted = was_promoted;
    {
      std::lock_guard<std::mutex> lk(mu_);
      --tp->inflight;
      ++(r.status == farm::JobStatus::Completed ? tp->completed : tp->failed);
      tp->latency.record(info.serve_ms);
      --outstanding_;
      if (outstanding_ == 0) drained_.notify_all();
      // Notify *inside* the lock: past it this thread must not touch the
      // dispatcher again — a destructor woken by drained_ may free it.
      cv_.notify_all();  // a freed quota slot may unblock the next dispatch
    }
    if (*user) (*user)(r, info);
  };

  // Farm locks are taken briefly inside; the terminal callback never fires
  // synchronously (workers pop asynchronously), so holding mu_ here cannot
  // deadlock against on_terminal's lock acquisition.
  farm::SubmitTicket ticket = farm_.submitCallback(p.job, std::move(on_terminal));
  if (ticket.admission == farm::Admission::Accepted) {
    ++t.inflight;
    ++t.dispatched;
    t.queue_age.record(queue_ms);
    return true;
  }
  if (ticket.admission == farm::Admission::QueueFull) {
    // Back at the front: tenant FIFO order is part of the QoS contract.
    p.on_result = std::move(*user);
    t.pending.push_front(std::move(p));
    return false;
  }
  // ShuttingDown: the farm closed under us (server teardown). Terminal-fail
  // rather than strand the client (the callback runs under mu_ here — a
  // teardown-only path, and the callback only takes leaf locks).
  p.on_result = std::move(*user);
  failPending(t, std::move(p), "farm shutting down");
  return true;  // the round may continue; this tenant made "progress"
}

void Dispatcher::failPending(Tenant& t, Pending&& p, const char* why) {
  farm::JobResult r;
  r.name = p.job.name;
  r.tenant = p.job.tenant;
  r.status = farm::JobStatus::Error;
  r.error = why;
  ++t.failed;
  --outstanding_;
  if (outstanding_ == 0) drained_.notify_all();
  if (p.on_result) {
    const auto now = Clock::now();
    p.on_result(r, DispatchInfo{msSince(p.admitted, now), msSince(p.admitted, now),
                                p.promoted});
  }
}

}  // namespace eclipse::serve
