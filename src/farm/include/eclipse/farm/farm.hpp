#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eclipse/farm/job.hpp"
#include "eclipse/farm/job_queue.hpp"
#include "eclipse/farm/supervisor.hpp"
#include "eclipse/farm/worker.hpp"
#include "eclipse/farm/workload_cache.hpp"

namespace eclipse::farm {

struct FarmOptions {
  int workers = 0;  ///< 0 = std::thread::hardware_concurrency()
  std::size_t queue_capacity = 64;
  /// Has no effect: every job runs on one serial Simulator. Kept only
  /// because perfbench/src/main.cpp assigns it and perfbench/ is frozen as
  /// the benchmark harness (BENCHMARK.json `paths`); delete the field
  /// together with that assignment.
  int lane_threads = 0;
  /// Share a prepared-workload cache across farms (e.g. a bench sweeping
  /// worker counts pays video generation once). Null = private cache.
  std::shared_ptr<WorkloadCache> cache;
};

/// A job the farm refuses to run again: it hung (killed) two workers.
/// Terminal — its future resolved with status Quarantined and it will
/// never be re-admitted, however many retry attempts its policy had left.
struct QuarantineRecord {
  std::uint64_t id = 0;
  std::string name;
  int attempts = 0;      ///< attempts consumed before quarantine
  int worker_kills = 0;  ///< workers this job took down (>= 2)
  std::string error;
};

/// Aggregate farm metrics (host-side view; snapshot).
struct FarmMetrics {
  std::uint64_t submitted = 0;  ///< submit attempts
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  ///< QueueFull or ShuttingDown
  std::uint64_t completed = 0;  ///< results delivered with status Completed
  std::uint64_t failed = 0;     ///< terminal non-Completed results
  // Per-cause breakdown of the failure/retry traffic (see JobError):
  std::uint64_t deadline_exceeded = 0;  ///< terminal deadline failures
  std::uint64_t fault_latched = 0;      ///< terminal fault-latch failures
  std::uint64_t worker_lost = 0;     ///< hang events (each costs one worker)
  std::uint64_t quarantined = 0;     ///< jobs retired after killing 2 workers
  std::uint64_t retried = 0;         ///< re-admissions staged
  std::uint64_t retry_succeeded = 0;  ///< completions that needed > 1 attempt
  std::uint64_t workers_replaced = 0;  ///< fresh workers spawned for hung ones
  std::size_t queue_depth = 0;
  /// Per-lane *now* gauges (depth + oldest-job queue age), indexed by
  /// Priority — the cumulative counters above say what happened, these say
  /// what is waiting right now (the serving tier exports them live).
  std::array<LaneGauge, 3> lanes{};
  std::size_t staged_retries = 0;  ///< retries waiting out their backoff
  double elapsed_s = 0.0;   ///< since farm construction
  double jobs_per_s = 0.0;  ///< delivered results / elapsed
  std::vector<WorkerStats> workers;  ///< active workers
  std::vector<WorkerStats> zombies;  ///< retired (replaced) workers

  /// Jobs that ran under heartbeat slicing (0 on an unarmed farm: the
  /// chaos harness gates on exactly that to pin the zero-overhead claim).
  [[nodiscard]] std::uint64_t supervisedJobs() const {
    std::uint64_t n = 0;
    for (const WorkerStats& w : workers) n += w.supervised_jobs;
    for (const WorkerStats& w : zombies) n += w.supervised_jobs;
    return n;
  }
};

/// Outcome of a non-blocking submit: the future is valid only when the
/// job was Accepted.
struct SubmitTicket {
  Admission admission = Admission::ShuttingDown;
  std::future<JobResult> result;
};

/// The batch-serving front-end: N workers behind a bounded priority
/// queue. Deterministic by construction — all simulation state is private
/// to a job (each builds its own instance), so a job's simulated result
/// does not depend on worker count, placement, or interleaving (see
/// DESIGN §10).
///
/// Supervision tier (DESIGN §14): jobs may arm a simulated-cycle deadline,
/// a host wall-clock supervision timeout and a retry policy. The farm then
/// self-heals — hung workers are retired to a zombie list and replaced,
/// their in-flight jobs fail-fast to the retry path, retries re-admit on a
/// demoted lane after a deterministic backoff, and a job that kills two
/// workers is quarantined. Every accepted job's future resolves exactly
/// once, terminal, whatever happens; retried runs are bit-identical to a
/// clean first run in all simulated fields.
class Farm {
 public:
  explicit Farm(FarmOptions options = {});
  /// Closes the queue and joins the workers; queued jobs still run.
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  /// Non-blocking submission with admission control: a full queue rejects
  /// (QueueFull) instead of buffering unboundedly.
  SubmitTicket submit(Job job);

  /// Cooperating submission: blocks until the queue has room. Throws
  /// std::runtime_error when the farm is shutting down.
  std::future<JobResult> submitWait(Job job);

  /// Bounded-blocking submission: waits up to `timeout` for queue space
  /// and reports the admission outcome instead of blocking forever or
  /// throwing — QueueFull when the wait timed out, ShuttingDown when the
  /// farm closed while waiting. The ticket's future is valid only when
  /// Accepted. The serving tier's submission primitive.
  SubmitTicket submitFor(Job job, std::chrono::milliseconds timeout);

  /// Non-blocking submission with a terminal-result callback: `on_result`
  /// fires exactly once, after metrics are updated and just before the
  /// (still valid) future resolves, on whichever thread delivered the
  /// terminal result — it must not block. Lets the serving tier fan many
  /// thousand results back to connections without a waiter thread each.
  SubmitTicket submitCallback(Job job, std::function<void(const JobResult&)> on_result);

  /// Submits a batch with waiting admission; futures arrive in job order.
  std::vector<std::future<JobResult>> submitBatch(std::vector<Job> jobs);

  /// Blocks until every accepted job has delivered its terminal result
  /// (retried jobs count as delivered only once terminal).
  void drain();

  /// Stops admissions; workers finish the backlog and exit. Retries still
  /// in backoff terminal-fail instead of re-admitting.
  void close();

  /// Live worker-pool resize (config reload): grows by spawning fresh
  /// workers, shrinks by retiring the highest slots — each retiree
  /// finishes its current job, so no accepted work is dropped, and its
  /// stats are preserved on the zombie list. Clamped to >= 1; no-op when
  /// `n` equals the current count.
  void resizeWorkers(int n);

  [[nodiscard]] FarmMetrics metrics() const;
  /// Jobs retired for killing two workers (terminal; never re-admitted).
  [[nodiscard]] std::vector<QuarantineRecord> quarantined() const;
  [[nodiscard]] int workerCount() const;

 private:
  friend class Supervisor;

  /// Every submit* entry point: stamps a fresh PendingJob and enqueues it.
  SubmitTicket admit(Job&& job, std::function<void(const JobResult&)> on_result,
                     std::chrono::milliseconds wait);
  /// The one admission path (fresh jobs and retries): pushes with `wait`
  /// and keeps accepted_/rejected_ for first attempts. Leaves `pj`
  /// untouched unless Accepted.
  Admission enqueue(PendingJob&& pj, std::chrono::milliseconds wait);
  /// Terminal-or-retry decision for a finished attempt. Owns `pj` (and in
  /// particular its promise); every path resolves or re-stages it.
  void disposition(PendingJob&& pj, JobResult&& r);
  /// Terminal delivery: metrics, quarantine ledger, promise resolution.
  void deliverTerminal(PendingJob&& pj, JobResult&& r);
  /// Supervisor duties (called from the supervisor thread):
  Admission readmit(PendingJob& pj);
  void terminalFailStaged(PendingJob&& pj, const char* why);
  void scanForHungWorkers(std::chrono::steady_clock::time_point now);
  void handleHungWorker(int index, const std::shared_ptr<InFlight>& fl);
  /// Retires `workers_[index]` to the zombie list and spawns a fresh
  /// worker in its slot.
  void replaceWorker(int index);
  [[nodiscard]] Worker::FinishFn finishFn();

  std::shared_ptr<WorkloadCache> cache_;
  JobQueue queue_;
  std::chrono::steady_clock::time_point started_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t fault_latched_ = 0;
  std::uint64_t worker_lost_ = 0;
  std::uint64_t quarantined_count_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t retry_succeeded_ = 0;
  std::uint64_t workers_replaced_ = 0;
  std::vector<QuarantineRecord> quarantine_;

  // Lifetime order matters at teardown: the supervisor is shut down only
  // after every worker (and zombie) thread has been joined, and both
  // outlive the queue they reference.
  std::unique_ptr<Supervisor> supervisor_;
  mutable std::mutex workers_mu_;  ///< guards workers_ + zombies_ membership
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Worker>> zombies_;  ///< retired hung workers
};

}  // namespace eclipse::farm
