#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "eclipse/app/instance.hpp"
#include "eclipse/farm/job.hpp"
#include "eclipse/farm/job_queue.hpp"
#include "eclipse/farm/workload_cache.hpp"

namespace eclipse::farm {

/// Execution counters of one worker (snapshot; host-side quantities).
struct WorkerStats {
  int index = -1;
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;  ///< status == Completed
  std::uint64_t failed = 0;     ///< Incomplete or Error
  std::uint64_t reused = 0;     ///< jobs served by a recycled instance
  std::uint64_t cold_builds = 0;  ///< jobs that built a fresh instance
  std::uint64_t supervised_jobs = 0;  ///< jobs run under heartbeat slicing
  std::uint64_t abandoned = 0;  ///< runs whose job the Supervisor claimed away
  bool retired = false;         ///< replaced by the Supervisor (zombie)
  double busy_ms = 0.0;     ///< wall time spent inside jobs
  double build_ms = 0.0;    ///< wall time constructing instances (cold path)
  double recycle_ms = 0.0;  ///< wall time in teardown-settle-recycle (reuse path)
};

/// The job a worker is executing right now, shared with the Supervisor.
///
/// Ownership protocol: exactly one party — the worker on normal completion,
/// the Supervisor on a declared hang — wins the `claimed` CAS and from then
/// on exclusively owns the completion of `pj` (in particular its promise).
/// The loser never touches the promise again. The hung worker thread may
/// still be *reading* `pj.job` mid-simulation, so a claiming Supervisor
/// copies the Job and only moves the promise (which the worker, having
/// lost, will not touch); it must never move or mutate `pj.job` itself.
struct InFlight {
  PendingJob pj;
  std::chrono::steady_clock::time_point started{};
  double supervise_ms = 0.0;  ///< copy of pj.job.supervise_ms (lock-free read)
  std::atomic<bool> supervised{false};  ///< heartbeats armed (post-prep)
  std::atomic<std::int64_t> last_beat_ns{0};  ///< steady_clock ns of last beat
  std::atomic<bool> claimed{false};

  /// One-shot completion claim; true for exactly one caller.
  bool tryClaim() {
    bool expected = false;
    return claimed.compare_exchange_strong(expected, true, std::memory_order_acq_rel);
  }

  void beat() {
    last_beat_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_release);
  }
};

/// One farm worker: a host thread owning a private Simulator +
/// EclipseInstance, pulling jobs from the shared queue until it closes.
///
/// Instance reuse: after a clean job the instance is recycled (drain /
/// teardown / EclipseInstance::recycle()) and kept for the next job with
/// the same `Config` shape — bit-identical to a cold build by
/// construction. The worker falls back to a cold rebuild when the shape
/// changes, when the previous job armed faults or watchdogs, latched any
/// fault or stall, ended incomplete, or threw: auditing residual state is
/// never cheaper than rebuilding, and isolation must hold regardless.
///
/// Supervision: a job with `supervise_ms > 0` runs in bounded simulation
/// slices with a heartbeat published between slices. Slicing is
/// bit-identical to a single run by the Simulator::run(until) contract
/// (events at `until` execute; a resumed run continues the same dispatch
/// sequence), so supervised and unsupervised runs of a job agree exactly —
/// and unsupervised jobs take the original single-call path, keeping the
/// unarmed overhead at zero. A worker whose job is claimed away abandons
/// the run at the next slice boundary, discards its result and retires its
/// instance; `retire()` logically detaches the worker (it exits at the
/// next boundary instead of being destroyed mid-run).
class Worker {
 public:
  /// Terminal-result hand-off to the farm: the callee dispositions the
  /// attempt (deliver, retry, or quarantine) and owns the promise. Called
  /// only by the claim winner.
  using FinishFn = std::function<void(std::shared_ptr<InFlight>, JobResult)>;

  Worker(int index, JobQueue& queue, WorkloadCache& cache, FinishFn on_finish);
  ~Worker() { join(); }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Blocks until the worker thread exits (the queue must be closed or the
  /// worker retired). Idempotent and thread-safe.
  void join();

  /// Logical detach: the worker stops pulling jobs and exits at its next
  /// slice/pop boundary. Used by the Supervisor when replacing a hung
  /// worker — the thread is joined later (zombie list), never destroyed
  /// while possibly still inside the simulator.
  void retire();

  [[nodiscard]] int index() const { return index_; }

  /// Snapshot of the job currently executing (null when idle). The
  /// Supervisor uses this for hang detection; see InFlight for the
  /// ownership protocol.
  [[nodiscard]] std::shared_ptr<InFlight> inflight() const;

  [[nodiscard]] WorkerStats stats() const;

 private:
  /// Thrown out of the run loop when the Supervisor claimed the job away.
  struct Abandoned {};

  void threadMain();
  /// Runs one job, plain or scheduled: a scheduled job is one multi-mode
  /// DecodeApp with a live switchSegment transition at every boundary.
  JobResult runJob(InFlight& fl);
  /// Runs the simulation to `budget_end`: one call when unsupervised,
  /// bounded slices with heartbeats when supervised. Throws Abandoned
  /// when the job was claimed away mid-run.
  void runToBudget(InFlight& fl, sim::Cycle budget_end);
  /// Failure-cause classification of a finished (non-throwing) run.
  static JobError classifyRun(const Job& job, const JobResult& r, bool all_done,
                              sim::Cycle ran);
  /// Chaos hook: wedge (sleep without heartbeating) per Job::chaos. Throws
  /// Abandoned when the Supervisor claims the job away during the wedge.
  void injectHostHang(InFlight& fl);
  /// Reuses the recycled instance when the Config shape matches, builds a
  /// cold one otherwise; records the choice in `r` and the stats.
  void acquireInstance(const Job& job, JobResult& r);
  /// Quiesce/teardown the finished job and recycle the instance for
  /// reuse; on any doubt, retire the instance (next job builds cold).
  void retireOrRecycle(bool healthy);
  /// Simulated-cycle stop point for the job: min(deadline, max_cycles)
  /// past `c0`, kForever when unbounded.
  static sim::Cycle budgetEnd(const Job& job, sim::Cycle c0);

  const int index_;
  JobQueue& queue_;
  WorkloadCache& cache_;
  FinishFn on_finish_;
  std::atomic<bool> retired_{false};

  // Owned by the worker thread exclusively (one thread per Simulator).
  std::unique_ptr<app::EclipseInstance> inst_;
  std::string shape_;  ///< Config::toString() of the live instance

  mutable std::mutex inflight_mu_;
  std::shared_ptr<InFlight> inflight_;

  mutable std::mutex stats_mu_;
  WorkerStats stats_;

  mutable std::mutex join_mu_;  ///< serializes join() callers
  std::thread thread_;          // last member: starts after everything is ready
};

}  // namespace eclipse::farm
