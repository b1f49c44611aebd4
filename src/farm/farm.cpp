#include "eclipse/farm/farm.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "eclipse/sim/prng.hpp"

namespace eclipse::farm {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

double retryBackoffMs(const RetryPolicy& p, std::uint64_t key, int attempt) {
  if (p.backoff_ms <= 0.0) return 0.0;
  double d = p.backoff_ms;
  for (int a = 2; a < attempt; ++a) {
    d *= 2.0;
    if (p.max_backoff_ms > 0.0 && d >= p.max_backoff_ms) break;
  }
  if (p.max_backoff_ms > 0.0) d = std::min(d, p.max_backoff_ms);
  // Jitter from a hash of (key, attempt): wall-clock-free, so a rerun of
  // the same job list spreads its retries identically.
  std::uint64_t state = key ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt));
  const std::uint64_t h = sim::splitmix64(state);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  d *= 1.0 + p.jitter_frac * u;
  if (p.max_backoff_ms > 0.0) d = std::min(d, p.max_backoff_ms * (1.0 + p.jitter_frac));
  return d;
}

Farm::Farm(FarmOptions options)
    : cache_(options.cache ? std::move(options.cache) : std::make_shared<WorkloadCache>()),
      queue_(options.queue_capacity),
      started_(Clock::now()) {
  int n = options.workers;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  supervisor_ = std::make_unique<Supervisor>(*this);
  std::lock_guard<std::mutex> lock(workers_mu_);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(i, queue_, *cache_, finishFn()));
  }
}

Worker::FinishFn Farm::finishFn() {
  // The worker calls this only after winning the completion claim, so it
  // owns fl->pj outright (promise included) and may move from it.
  return [this](std::shared_ptr<InFlight> fl, JobResult r) {
    disposition(std::move(fl->pj), std::move(r));
  };
}

Farm::~Farm() {
  close();
  // Join every worker thread — including zombies the supervisor may still
  // be minting while we drain. Two passes: snapshot-join (threads may be
  // mid-hang), then stop the supervisor (no further replacement) and join
  // whatever it added in between.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Worker*> snapshot;
    {
      std::lock_guard<std::mutex> lock(workers_mu_);
      for (auto& w : workers_) snapshot.push_back(w.get());
      for (auto& w : zombies_) snapshot.push_back(w.get());
    }
    for (Worker* w : snapshot) w->join();
    if (pass == 0) supervisor_->shutdown();  // flushes staged retries terminally
  }
}

int Farm::workerCount() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return static_cast<int>(workers_.size());
}

SubmitTicket Farm::admit(Job&& job, std::function<void(const JobResult&)> on_result,
                         std::chrono::milliseconds wait) {
  if (job.armsSupervision()) supervisor_->ensureRunning();
  PendingJob pj;
  pj.job = std::move(job);
  pj.submitted = Clock::now();
  pj.on_terminal = std::move(on_result);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pj.id = next_id_++;
    ++submitted_;
  }
  SubmitTicket t;
  t.result = pj.promise.get_future();
  t.admission = enqueue(std::move(pj), wait);
  if (t.admission != Admission::Accepted) t.result = {};
  return t;
}

Admission Farm::enqueue(PendingJob&& pj, std::chrono::milliseconds wait) {
  // A retry was counted when its first attempt got in.
  const bool first = pj.attempt == 1;
  // Count the acceptance before the push: once pushed, a worker may
  // deliver immediately, and drain() relies on accepted_ >= delivered_.
  if (first) {
    std::lock_guard<std::mutex> lock(mu_);
    ++accepted_;
  }
  const Admission a = queue_.push(std::move(pj), wait);
  if (first && a != Admission::Accepted) {
    std::lock_guard<std::mutex> lock(mu_);
    --accepted_;
    ++rejected_;
  }
  return a;
}

SubmitTicket Farm::submit(Job job) { return admit(std::move(job), {}, JobQueue::kNoWait); }

std::future<JobResult> Farm::submitWait(Job job) {
  SubmitTicket t = admit(std::move(job), {}, JobQueue::kWaitForever);
  if (t.admission != Admission::Accepted) {
    throw std::runtime_error("Farm: submission while shutting down");
  }
  return std::move(t.result);
}

SubmitTicket Farm::submitFor(Job job, std::chrono::milliseconds timeout) {
  return admit(std::move(job), {}, timeout);
}

SubmitTicket Farm::submitCallback(Job job, std::function<void(const JobResult&)> on_result) {
  return admit(std::move(job), std::move(on_result), JobQueue::kNoWait);
}

std::vector<std::future<JobResult>> Farm::submitBatch(std::vector<Job> jobs) {
  std::vector<std::future<JobResult>> futs;
  futs.reserve(jobs.size());
  for (Job& j : jobs) futs.push_back(submitWait(std::move(j)));
  return futs;
}

void Farm::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] { return delivered_ >= accepted_; });
}

void Farm::close() { queue_.close(); }

void Farm::disposition(PendingJob&& pj, JobResult&& r) {
  r.id = pj.id;
  r.name = pj.job.name;
  r.tenant = pj.job.tenant;
  r.attempts = pj.attempt;

  const int max_attempts = std::max(1, pj.job.retry.max_attempts);
  const bool quarantine = r.cause == JobError::WorkerLost && pj.worker_kills >= 2;
  const bool retryable = r.status != JobStatus::Completed && retryableError(r.cause) &&
                         pj.attempt < max_attempts && !quarantine;

  if (retryable && !queue_.closed()) {
    AttemptRecord a;
    a.attempt = pj.attempt;
    a.status = r.status;
    a.cause = r.cause;
    a.sim_cycles = r.sim_cycles;
    a.sim_events = r.sim_events;
    a.worker = r.worker;
    pj.history.push_back(a);
    pj.attempt += 1;
    pj.run_priority = demoted(pj.lane());
    const double delay = retryBackoffMs(pj.job.retry, pj.id, pj.attempt);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++retried_;
    }
    supervisor_->schedule(std::move(pj), delay);
    return;
  }

  if (quarantine) {
    r.status = JobStatus::Quarantined;
    if (!r.error.empty()) r.error += "; ";
    r.error += "quarantined: hung " + std::to_string(pj.worker_kills) + " workers";
  }
  deliverTerminal(std::move(pj), std::move(r));
}

void Farm::deliverTerminal(PendingJob&& pj, JobResult&& r) {
  r.attempts_log = std::move(pj.history);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++delivered_;
    if (r.status == JobStatus::Completed) {
      ++completed_;
      if (r.attempts > 1) ++retry_succeeded_;
    } else {
      ++failed_;
      switch (r.cause) {
        case JobError::DeadlineExceeded: ++deadline_exceeded_; break;
        case JobError::FaultLatched: ++fault_latched_; break;
        default: break;
      }
      if (r.status == JobStatus::Quarantined) {
        ++quarantined_count_;
        quarantine_.push_back(QuarantineRecord{r.id, r.name, r.attempts, pj.worker_kills, r.error});
      }
    }
    if (delivered_ >= accepted_) drained_.notify_all();
  }
  // The terminal hook (submitCallback) fires after metrics, outside every
  // farm lock (it may re-enter submit*), and before the future resolves.
  if (pj.on_terminal) {
    try {
      pj.on_terminal(r);
    } catch (...) {
      // A throwing result hook must not strand the promise.
    }
  }
  pj.promise.set_value(std::move(r));
}

Admission Farm::readmit(PendingJob& pj) { return enqueue(std::move(pj), JobQueue::kNoWait); }

void Farm::terminalFailStaged(PendingJob&& pj, const char* why) {
  JobResult r;
  r.id = pj.id;
  r.name = pj.job.name;
  r.tenant = pj.job.tenant;
  r.status = JobStatus::Error;
  // The staged retry never ran: report the cause that sent it to the
  // retry path (its last recorded attempt), and the attempts that did run.
  r.cause = pj.history.empty() ? JobError::WorkerLost : pj.history.back().cause;
  r.attempts = std::max(1, pj.attempt - 1);
  r.latency_ms = msSince(pj.submitted);
  r.error = why;
  PendingJob owned = std::move(pj);
  owned.attempt = r.attempts;
  deliverTerminal(std::move(owned), std::move(r));
}

void Farm::scanForHungWorkers(Clock::time_point now) {
  std::vector<std::pair<int, std::shared_ptr<InFlight>>> hung;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (auto& w : workers_) {
      std::shared_ptr<InFlight> fl = w->inflight();
      if (!fl || !fl->supervised.load(std::memory_order_acquire)) continue;
      if (fl->supervise_ms <= 0.0) continue;
      const auto now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
      const auto beat_ns = fl->last_beat_ns.load(std::memory_order_acquire);
      const double silent_ms = static_cast<double>(now_ns - beat_ns) / 1e6;
      if (silent_ms <= fl->supervise_ms) continue;
      // Claim the job: from here its completion belongs to the supervisor
      // and the worker's own result (if it ever wakes) is void.
      if (!fl->tryClaim()) continue;
      hung.emplace_back(w->index(), std::move(fl));
    }
  }
  for (auto& [index, fl] : hung) handleHungWorker(index, fl);
}

void Farm::handleHungWorker(int index, const std::shared_ptr<InFlight>& fl) {
  replaceWorker(index);
  // The hung worker thread may still be wedged *reading* fl->pj.job inside
  // the simulator, so copy the job and metadata; only the promise moves
  // (the claim loser never touches it again).
  PendingJob meta;
  meta.job = fl->pj.job;
  meta.id = fl->pj.id;
  meta.submitted = fl->pj.submitted;
  meta.attempt = fl->pj.attempt;
  meta.worker_kills = fl->pj.worker_kills + 1;
  meta.run_priority = fl->pj.run_priority;
  meta.history = fl->pj.history;
  meta.promise = std::move(fl->pj.promise);
  // Like the promise, the terminal hook belongs to the claim winner; the
  // wedged loser never reads it.
  meta.on_terminal = std::move(fl->pj.on_terminal);

  JobResult r;
  r.status = JobStatus::Error;
  r.cause = JobError::WorkerLost;
  r.worker = index;
  r.wall_ms = msSince(fl->started);
  r.latency_ms = msSince(meta.submitted);
  r.error = "worker " + std::to_string(index) + " hung (no heartbeat within " +
            std::to_string(fl->supervise_ms) + " ms); worker replaced";
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++worker_lost_;
  }
  disposition(std::move(meta), std::move(r));
}

void Farm::replaceWorker(int index) {
  std::lock_guard<std::mutex> lock(workers_mu_);
  // A concurrent resizeWorkers() may have shrunk the pool since the hang
  // was observed; the job still fail-fasts, but there is no slot to refill.
  if (index < 0 || static_cast<std::size_t>(index) >= workers_.size()) return;
  auto& slot = workers_[static_cast<std::size_t>(index)];
  slot->retire();
  zombies_.push_back(std::move(slot));
  slot = std::make_unique<Worker>(index, queue_, *cache_, finishFn());
  std::lock_guard<std::mutex> mlock(mu_);
  ++workers_replaced_;
}

void Farm::resizeWorkers(int n) {
  if (n < 1) n = 1;
  std::lock_guard<std::mutex> lock(workers_mu_);
  while (static_cast<int>(workers_.size()) > n) {
    // Retire from the top slot down: the worker finishes its current job
    // (retire() only takes effect at its next pop boundary), gets kicked
    // out of a blocked pop() by wake(), and parks on the zombie list with
    // its stats intact until the farm joins it at destruction.
    auto& slot = workers_.back();
    slot->retire();
    zombies_.push_back(std::move(slot));
    workers_.pop_back();
  }
  queue_.wake();
  while (static_cast<int>(workers_.size()) < n) {
    const int index = static_cast<int>(workers_.size());
    workers_.push_back(std::make_unique<Worker>(index, queue_, *cache_, finishFn()));
  }
}

std::vector<QuarantineRecord> Farm::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_;
}

FarmMetrics Farm::metrics() const {
  FarmMetrics m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    m.submitted = submitted_;
    m.accepted = accepted_;
    m.rejected = rejected_;
    m.completed = completed_;
    m.failed = failed_;
    m.deadline_exceeded = deadline_exceeded_;
    m.fault_latched = fault_latched_;
    m.worker_lost = worker_lost_;
    m.quarantined = quarantined_count_;
    m.retried = retried_;
    m.retry_succeeded = retry_succeeded_;
    m.workers_replaced = workers_replaced_;
  }
  m.queue_depth = queue_.depth();
  m.lanes = queue_.gauges();
  m.staged_retries = supervisor_->stagedDepth();
  m.elapsed_s = std::chrono::duration<double>(Clock::now() - started_).count();
  const double delivered = static_cast<double>(m.completed + m.failed);
  m.jobs_per_s = m.elapsed_s > 0 ? delivered / m.elapsed_s : 0.0;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    m.workers.reserve(workers_.size());
    for (const auto& w : workers_) m.workers.push_back(w->stats());
    m.zombies.reserve(zombies_.size());
    for (const auto& w : zombies_) m.zombies.push_back(w->stats());
  }
  return m;
}

}  // namespace eclipse::farm
