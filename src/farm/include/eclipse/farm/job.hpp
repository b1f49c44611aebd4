#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eclipse/sim/config.hpp"
#include "eclipse/sim/fault.hpp"
#include "eclipse/sim/types.hpp"

namespace eclipse::farm {

/// Deterministic recipe for a job's media workload: the synthetic clip is
/// generated (and encoded to a golden bitstream) from these parameters
/// alone, so two jobs with equal descriptors share one prepared workload
/// (see WorkloadCache) and any worker reproduces it exactly.
struct WorkloadDesc {
  int width = 96;
  int height = 80;
  int frames = 5;
  std::uint64_t seed = 3;
  int qscale = 14;
  int gop_n = 9;
  int gop_m = 3;
  int detail = 8;
  double noise_level = 0.0;
  int motion_speed = 4;

  /// Cache key: every field, in a fixed order.
  [[nodiscard]] std::string key() const;
};

enum class AppKind { Decode, Encode };

[[nodiscard]] constexpr const char* appKindName(AppKind k) {
  return k == AppKind::Decode ? "decode" : "encode";
}

/// One application to configure onto the job's instance. A job may carry
/// several (the Section-6 mixes: two decodes, encode + decode, ...); they
/// run simultaneously on the same instance, time-sharing the coprocessors.
struct AppSpec {
  AppKind kind = AppKind::Decode;
  WorkloadDesc workload{};
};

enum class Priority { High = 0, Normal = 1, Low = 2 };

[[nodiscard]] constexpr const char* priorityName(Priority p) {
  switch (p) {
    case Priority::High: return "high";
    case Priority::Normal: return "normal";
    case Priority::Low: return "low";
  }
  return "?";
}

/// One lane lower (retried jobs yield the fast lanes to fresh traffic).
[[nodiscard]] constexpr Priority demoted(Priority p) {
  return p == Priority::Low ? Priority::Low
                            : static_cast<Priority>(static_cast<int>(p) + 1);
}

/// One lane higher (clamped at High) — the serving tier's mirror of
/// demoted(): a job whose deadline slack has shrunk below the promotion
/// threshold overtakes fresh traffic on the next lane up.
[[nodiscard]] constexpr Priority promoted(Priority p) {
  return p == Priority::High ? Priority::High
                             : static_cast<Priority>(static_cast<int>(p) - 1);
}

/// One segment of an adaptive (mode-scheduled) decode job: the clip
/// generated from `workload` is decoded under the named mode of the job's
/// decode mode family ("sd" / "hd"; see the worker's mode table). At each
/// segment boundary the worker performs a live diff-based transition
/// (DecodeApp::switchSegment) instead of tearing the application down.
struct ModeSegment {
  std::string mode = "sd";
  WorkloadDesc workload{};
};

/// How a failed attempt is retried. Retried runs execute on a recycled or
/// cold instance under the same recycle() contract as first runs, so every
/// attempt of a job is bit-identical in its simulated fields to a clean
/// first run — retries never change *what* a job computes, only how often
/// the farm is willing to compute it.
struct RetryPolicy {
  /// Total attempts, including the first. 1 = never retry.
  int max_attempts = 1;
  /// Host-side delay before re-admission of attempt 2 (exponential from
  /// there). 0 = immediate re-admission.
  double backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  /// Upper bound on any single backoff (0 = uncapped).
  double max_backoff_ms = 250.0;
  /// Deterministic per-(job, attempt) jitter: the backoff is stretched by
  /// up to this fraction, derived from the job seed — never wall-clock
  /// entropy — so a rerun of the same job list spreads retries the same
  /// way every time.
  double jitter_frac = 0.25;
  /// Re-admit retries one priority lane lower (clamped at Low), so a
  /// flapping job cannot starve the lane it was submitted on.
  bool demote_lane = true;
};

/// Deterministic backoff for `attempt` (>= 2) of a job: exponential in the
/// attempt number, jittered by a hash of (key, attempt). Pure function.
[[nodiscard]] double retryBackoffMs(const RetryPolicy& p, std::uint64_t key, int attempt);

/// Host-side fault injection for the chaos harness and the supervision
/// tests: the worker thread wedges (sleeps without heartbeating) for
/// `hang_ms` at the start of every attempt <= `attempts`, emulating a host
/// thread lost to a runaway syscall or scheduler pathology. Purely
/// host-side: it never touches the simulation, so a job that survives via
/// retry stays bit-identical to a clean run.
struct HostHangSpec {
  double hang_ms = 0.0;
  int attempts = 0;  ///< hang on attempts 1..attempts (0 = never)
};

/// One unit of farm work: a set of applications on one instance shape.
///
/// The determinism contract: every *simulated* field of the JobResult is a
/// pure function of this struct — independent of worker count, submission
/// order, retry count, or whether the executing instance is cold or
/// recycled.
struct Job {
  std::string name;
  /// Owning tenant (serving tier). Pure pass-through for the farm — it
  /// never affects scheduling here (per-tenant QoS lives in eclipse::serve,
  /// *above* the lanes) and is echoed back in JobResult::tenant so results
  /// can be routed and accounted per tenant. Empty for batch jobs.
  std::string tenant;
  std::vector<AppSpec> apps = std::vector<AppSpec>(1);  ///< default: one decode application
  sim::Config config{};                  ///< instance parameters (shape key)
  std::uint64_t seed = 0;  ///< recorded; keys the retry-backoff jitter
  Priority priority = Priority::Normal;
  sim::FaultPlan faults{};     ///< non-empty => instance retired after the job
  sim::Cycle watchdog_timeout = 0;  ///< arm per-shell watchdogs when > 0
  sim::Cycle max_cycles = 50'000'000;  ///< simulated-cycle budget (0 = unbounded)
  bool verify = true;  ///< bit-exact (decode) / PSNR (encode) checks

  /// Simulated-cycle deadline (0 = none). Unlike `max_cycles` (a safety
  /// budget that marks the job Incomplete), a deadline is a QoS bound: a
  /// job still unfinished after `deadline` cycles stops *at exactly that
  /// cycle* on every worker and fails with JobError::DeadlineExceeded —
  /// deterministic, hence retryable under the bit-identity contract.
  /// Meaningful only when <= max_cycles.
  sim::Cycle deadline = 0;

  /// Host wall-clock supervision timeout in milliseconds (0 = unarmed).
  /// When armed, the worker heartbeats between bounded simulation slices
  /// and the farm's Supervisor declares the worker hung — replacing it and
  /// fail-fasting this job to the retry path with JobError::WorkerLost —
  /// if no heartbeat lands within this window. Should comfortably exceed
  /// the host cost of one slice (see DESIGN §14; >= 100 ms recommended).
  double supervise_ms = 0.0;

  /// Retry policy for deterministic failures (deadline, stall, latched
  /// fault) and host-side losses (hung worker).
  RetryPolicy retry{};

  /// Chaos-harness hook (host-side worker hang injection; test-only).
  HostHangSpec chaos{};

  /// Adaptive-decode schedule. When non-empty, `apps` is ignored and the
  /// job runs ONE multi-mode decode application through the segments in
  /// order, switching modes live at each boundary. The simulated fields of
  /// the result stay under the determinism contract: the whole scheduled
  /// run is a pure function of this vector.
  std::vector<ModeSegment> schedule;

  /// True when this job ever interacts with the supervision tier (needs
  /// the Supervisor thread running).
  [[nodiscard]] bool armsSupervision() const {
    return supervise_ms > 0.0 || retry.max_attempts > 1 || chaos.attempts > 0;
  }
};

/// Admission-control outcome of a submit.
enum class Admission { Accepted, QueueFull, ShuttingDown };

[[nodiscard]] constexpr const char* admissionName(Admission a) {
  switch (a) {
    case Admission::Accepted: return "accepted";
    case Admission::QueueFull: return "queue-full";
    case Admission::ShuttingDown: return "shutting-down";
  }
  return "?";
}

enum class JobStatus {
  Completed,    ///< every application finished (verification may still fail)
  Incomplete,   ///< stopped without finishing (budget, stall, fault abort)
  Error,        ///< configuration/runtime error before or during the run
  Quarantined,  ///< killed two workers; barred from further execution
};

[[nodiscard]] constexpr const char* jobStatusName(JobStatus s) {
  switch (s) {
    case JobStatus::Completed: return "completed";
    case JobStatus::Incomplete: return "incomplete";
    case JobStatus::Error: return "error";
    case JobStatus::Quarantined: return "quarantined";
  }
  return "?";
}

/// Structured failure taxonomy — the *cause* behind a non-Completed status
/// (the status says how far the job got; the cause says why it stopped).
enum class JobError {
  None,              ///< completed (or never ran into a classified failure)
  DeadlineExceeded,  ///< hit Job::deadline at a deterministic cycle
  Stall,             ///< quiesced without finishing: starved/deadlocked/budget
  FaultLatched,      ///< a task latched a fault register (PR-4 containment)
  Config,            ///< deterministic configuration/runtime error (no retry)
  WorkerLost,        ///< the executing worker hung; job fail-fasted by the
                     ///< Supervisor (host-side, invisible to the simulation)
};

[[nodiscard]] constexpr const char* jobErrorName(JobError e) {
  switch (e) {
    case JobError::None: return "none";
    case JobError::DeadlineExceeded: return "deadline-exceeded";
    case JobError::Stall: return "stall";
    case JobError::FaultLatched: return "fault-latched";
    case JobError::Config: return "config";
    case JobError::WorkerLost: return "worker-lost";
  }
  return "?";
}

/// Causes eligible for re-admission under a RetryPolicy. Config errors are
/// deterministic rejections (same spec => same throw) and never retried.
[[nodiscard]] constexpr bool retryableError(JobError e) {
  return e == JobError::DeadlineExceeded || e == JobError::Stall ||
         e == JobError::FaultLatched || e == JobError::WorkerLost;
}

/// One prior attempt of a retried job (carried into the terminal result so
/// tests and the chaos gate can assert per-attempt determinism: failed
/// attempts of a deterministic failure are bit-identical in their
/// simulated fields, whatever worker ran them).
struct AttemptRecord {
  int attempt = 1;
  JobStatus status = JobStatus::Error;
  JobError cause = JobError::None;
  sim::Cycle sim_cycles = 0;
  std::uint64_t sim_events = 0;
  int worker = -1;  ///< host-side: which worker ran the attempt
};

/// Per-job outcome. Simulated fields are covered by the determinism
/// contract; host-side fields (worker, reuse, wall/latency times, attempt
/// count) describe this particular execution and may vary run to run.
struct JobResult {
  std::uint64_t id = 0;
  std::string name;
  std::string tenant;  ///< echo of Job::tenant (empty for batch jobs)
  JobStatus status = JobStatus::Error;
  JobError cause = JobError::None;  ///< why status != Completed

  // --- simulated (bit-identical for a given Job) ---
  sim::Cycle sim_cycles = 0;      ///< cycles from launch to stop
  std::uint64_t sim_events = 0;   ///< kernel events dispatched in that span
  std::uint64_t macroblocks = 0;  ///< decoded MBs across the job's apps
  bool bit_exact = false;         ///< decode outputs match the golden frames
  double psnr_db = 0.0;           ///< min luma PSNR across encode apps
  std::uint64_t faults_latched = 0;
  std::uint64_t stalls_latched = 0;
  std::uint64_t fault_triggers = 0;  ///< injected faults that actually fired
  std::uint64_t frames_dropped = 0;
  std::uint64_t mode_switches = 0;       ///< live transitions (scheduled jobs)
  std::uint64_t switch_mmio_writes = 0;  ///< control-plane writes spent on them
  std::string quiescence;  ///< classification when incomplete

  // --- host-side (execution facts, outside the contract) ---
  int worker = -1;
  bool reused_instance = false;
  int attempts = 1;  ///< attempts consumed (1 = succeeded/failed first try)
  std::vector<AttemptRecord> attempts_log;  ///< prior (non-terminal) attempts
  double wall_ms = 0.0;     ///< run time on the worker (terminal attempt)
  double latency_ms = 0.0;  ///< submission to terminal result, all attempts
  std::string error;
};

}  // namespace eclipse::farm
