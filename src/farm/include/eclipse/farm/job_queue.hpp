#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>

#include "eclipse/farm/job.hpp"

namespace eclipse::farm {

/// A job admitted to the farm, waiting for (or owned by) a worker.
///
/// Retry metadata rides along: the id, the submission timestamp (latency
/// covers every attempt) and the promise survive re-admission, while
/// `attempt`/`worker_kills`/`history` accumulate and `run_priority`
/// carries the demoted lane of a retry without touching the user's Job.
struct PendingJob {
  Job job;
  std::uint64_t id = 0;
  std::chrono::steady_clock::time_point submitted{};
  /// When this pending entered the queue it currently sits in (re-stamped
  /// on every push, including retry re-admissions) — the queue-age gauges
  /// measure from here, while `submitted` anchors end-to-end latency.
  std::chrono::steady_clock::time_point queued{};
  std::promise<JobResult> promise;
  /// Optional terminal-result hook (Farm::submitCallback): invoked exactly
  /// once, by the claim winner, after metrics and just before the promise
  /// resolves. The serving tier routes results back to connections here
  /// without parking a thread per future.
  std::function<void(const JobResult&)> on_terminal;

  int attempt = 1;       ///< 1-based; incremented on each re-admission
  int worker_kills = 0;  ///< workers this job has hung (2 => quarantine)
  std::optional<Priority> run_priority;     ///< demoted lane of a retry
  std::vector<AttemptRecord> history;       ///< prior failed attempts

  /// Lane this pending job queues on: the retry-demoted lane when set,
  /// the job's submitted priority otherwise.
  [[nodiscard]] Priority lane() const { return run_priority.value_or(job.priority); }
};

/// Current state of one priority lane: how many jobs are queued on it and
/// how long the one at the head (the oldest) has been waiting. Gauges, not
/// counters — they describe *now*, complementing FarmMetrics' cumulative
/// view, and feed the serving tier's telemetry endpoint.
struct LaneGauge {
  std::size_t depth = 0;
  double oldest_ms = 0.0;  ///< queue age of the lane's head job (0 if empty)
};

/// Bounded multi-producer / multi-consumer queue with three priority
/// lanes. Admission control is explicit: push() reports QueueFull when the
/// bound is hit and its wait runs out, so callers can shed load (reject
/// upstream) instead of buffering without limit; a cooperating producer
/// passes a longer wait, or kWaitForever, to block for space instead.
class JobQueue {
 public:
  /// push() waits: never block, or block until a slot opens or the queue
  /// closes.
  static constexpr std::chrono::milliseconds kNoWait{0};
  static constexpr std::chrono::milliseconds kWaitForever = std::chrono::milliseconds::max();

  explicit JobQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The one admission: waits up to `wait` for a free slot (0 never
  /// blocks; kWaitForever waits for a slot or close()). QueueFull when
  /// no slot opened in time, ShuttingDown when the queue is (or got)
  /// closed; on anything but Accepted the job is left untouched in `pj`.
  Admission push(PendingJob&& pj, std::chrono::milliseconds wait);

  /// Blocks for the next job, highest priority lane first (FIFO within a
  /// lane). Returns nullopt once the queue is closed *and* empty, letting
  /// workers drain the backlog before exiting — or, when `stop` is given,
  /// as soon as it reads true with nothing popped (a retiring worker
  /// leaves without waiting for the queue to close; see wake()).
  std::optional<PendingJob> pop(const std::atomic<bool>* stop = nullptr);

  /// Stops admissions; pop() keeps draining what was already accepted.
  void close();

  /// Wakes every blocked pop() so stop-flagged poppers can re-check their
  /// flag (used when retiring a worker without closing the queue).
  void wake();

  [[nodiscard]] std::size_t depth() const;
  /// Per-lane depth + oldest-job age, indexed by Priority.
  [[nodiscard]] std::array<LaneGauge, 3> gauges() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool closed() const;

 private:
  [[nodiscard]] std::size_t depthLocked() const {
    return lanes_[0].size() + lanes_[1].size() + lanes_[2].size();
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<PendingJob> lanes_[3];  // indexed by Priority
  bool closed_ = false;
};

}  // namespace eclipse::farm
