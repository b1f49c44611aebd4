// eclipse_farm supervision tier (DESIGN §14): deadlines, deterministic
// retries, hung-worker replacement and quarantine.
//
// The load-bearing properties checked here:
//  * a simulated-cycle deadline fails at *exactly* that cycle on every
//    worker, every attempt — deterministic, hence retryable;
//  * retried runs are bit-identical to a clean first run in all simulated
//    fields (every attempt builds its own instance, as a first run does);
//  * a worker that stops heartbeating is replaced and its job fail-fasts
//    to the retry path (WorkerLost) without touching any simulated field;
//  * a job that kills two workers is quarantined — terminal, never
//    re-admitted, recorded in the ledger;
//  * none of this costs anything unless a job arms it: an unarmed farm
//    never enters the sliced heartbeat path and stays on the decode pin.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/sim/fault.hpp"

#include "decode_pin.hpp"

using namespace eclipse;
using farm::Job;
using farm::JobError;
using farm::JobResult;
using farm::JobStatus;
using farm::RetryPolicy;

namespace {

constexpr sim::Cycle kPinCycles = pin::kDecodePinCycles;
constexpr std::uint64_t kPinEvents = pin::kDecodePinEvents;
constexpr std::uint64_t kPinMacroblocks = pin::kDecodePinMacroblocks;

Job pinJob(std::string name) {
  Job j;
  j.name = std::move(name);
  return j;
}

void expectOnPin(const JobResult& r) {
  EXPECT_EQ(r.status, JobStatus::Completed) << r.error;
  EXPECT_EQ(r.sim_cycles, kPinCycles);
  EXPECT_EQ(r.sim_events, kPinEvents);
  EXPECT_EQ(r.macroblocks, kPinMacroblocks);
  EXPECT_TRUE(r.bit_exact);
}

JobResult runOne(Job job, int workers = 1) {
  farm::FarmOptions opts;
  opts.workers = workers;
  farm::Farm f(opts);
  return f.submitWait(std::move(job)).get();
}

TEST(FarmSupervision, DeadlineFailsAtExactCycleOnEveryWorkerCount) {
  JobResult ref;
  for (int workers : {1, 2}) {
    Job j = pinJob("deadline");
    j.deadline = 60'000;  // the pin decode needs 144885 cycles
    const JobResult r = runOne(std::move(j), workers);
    EXPECT_EQ(r.status, JobStatus::Incomplete);
    EXPECT_EQ(r.cause, JobError::DeadlineExceeded);
    EXPECT_EQ(r.sim_cycles, 60'000u);
    if (workers == 1) {
      ref = r;
    } else {
      EXPECT_EQ(r.sim_events, ref.sim_events);
      EXPECT_EQ(r.macroblocks, ref.macroblocks);
    }
  }
}

TEST(FarmSupervision, RetriedDeadlineAttemptsAreBitIdentical) {
  Job j = pinJob("deadline-retry");
  j.deadline = 60'000;
  j.retry.max_attempts = 3;
  j.retry.backoff_ms = 0.5;
  const JobResult r = runOne(std::move(j), 2);
  EXPECT_EQ(r.status, JobStatus::Incomplete);
  EXPECT_EQ(r.cause, JobError::DeadlineExceeded);
  EXPECT_EQ(r.attempts, 3);
  ASSERT_EQ(r.attempts_log.size(), 2u);
  for (const farm::AttemptRecord& a : r.attempts_log) {
    EXPECT_EQ(a.cause, JobError::DeadlineExceeded);
    EXPECT_EQ(a.sim_cycles, r.sim_cycles);
    EXPECT_EQ(a.sim_events, r.sim_events);
  }
}

TEST(FarmSupervision, RetryReadmissionIsNotANewAdmission) {
  // Fresh submissions and retries share one admission path; only a first
  // attempt counts as accepted, or drain() would wait for a delivery that
  // never comes.
  farm::FarmOptions opts;
  opts.workers = 1;
  farm::Farm f(opts);
  Job j = pinJob("deadline-readmit");
  j.deadline = 60'000;
  j.retry.max_attempts = 3;
  j.retry.backoff_ms = 0.5;
  const JobResult r = f.submitWait(std::move(j)).get();
  EXPECT_EQ(r.attempts, 3);
  const farm::FarmMetrics m = f.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.retried, 2u);
  ASSERT_EQ(m.accepted, 1u);
  f.drain();  // returns: the one accepted job is delivered
}

TEST(FarmSupervision, SupervisedCleanRunStaysOnPin) {
  farm::FarmOptions opts;
  opts.workers = 2;
  farm::Farm f(opts);
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) {
    Job j = pinJob("clean-" + std::to_string(i));
    j.supervise_ms = 5'000.0;  // armed, but no worker ever goes silent
    j.retry.max_attempts = 2;
    jobs.push_back(std::move(j));
  }
  auto futs = f.submitBatch(std::move(jobs));
  for (auto& fut : futs) {
    const JobResult r = fut.get();
    expectOnPin(r);
    EXPECT_EQ(r.attempts, 1);
  }
  const farm::FarmMetrics m = f.metrics();
  EXPECT_EQ(m.supervisedJobs(), 4u);  // heartbeat-sliced, same result
  EXPECT_EQ(m.workers_replaced, 0u);
  EXPECT_EQ(m.worker_lost, 0u);
}

TEST(FarmSupervision, UnarmedFarmNeverEntersTheSlicedPath) {
  farm::FarmOptions opts;
  opts.workers = 2;
  farm::Farm f(opts);
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(pinJob("plain-" + std::to_string(i)));
  auto futs = f.submitBatch(std::move(jobs));
  for (auto& fut : futs) expectOnPin(fut.get());
  EXPECT_EQ(f.metrics().supervisedJobs(), 0u);
}

TEST(FarmSupervision, HungWorkerIsReplacedAndTheRetryLandsOnThePin) {
  farm::FarmOptions opts;
  opts.workers = 2;
  farm::Farm f(opts);
  Job j = pinJob("hang-once");
  // Generous margins so sanitizer-built slices never false-positive: the
  // injected hang (2.5 s of heartbeat silence) is well past the 1 s
  // supervision window, which itself is far above any slice cost.
  j.chaos.hang_ms = 2'500.0;
  j.chaos.attempts = 1;
  j.supervise_ms = 1'000.0;
  j.retry.max_attempts = 3;
  const JobResult r = f.submitWait(std::move(j)).get();
  expectOnPin(r);
  EXPECT_GE(r.attempts, 2);  // attempt 1 died with its worker
  ASSERT_FALSE(r.attempts_log.empty());
  EXPECT_EQ(r.attempts_log.front().cause, JobError::WorkerLost);
  const farm::FarmMetrics m = f.metrics();
  EXPECT_GE(m.worker_lost, 1u);
  EXPECT_GE(m.workers_replaced, 1u);
  EXPECT_GE(m.retried, 1u);
  EXPECT_GE(m.retry_succeeded, 1u);
  EXPECT_FALSE(m.zombies.empty());
  EXPECT_EQ(f.workerCount(), 2);  // the pool is back to strength
}

TEST(FarmSupervision, JobThatKillsTwoWorkersIsQuarantined) {
  farm::FarmOptions opts;
  opts.workers = 2;
  farm::Farm f(opts);
  Job j = pinJob("hang-always");
  j.chaos.hang_ms = 2'500.0;
  j.chaos.attempts = 99;  // every attempt wedges its worker
  j.supervise_ms = 1'000.0;
  j.retry.max_attempts = 6;  // budget left over: quarantine overrides it
  const JobResult r = f.submitWait(std::move(j)).get();
  EXPECT_EQ(r.status, JobStatus::Quarantined);
  EXPECT_EQ(r.cause, JobError::WorkerLost);
  EXPECT_EQ(r.attempts, 2);  // two kills, then barred
  const auto ledger = f.quarantined();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.front().name, "hang-always");
  EXPECT_GE(ledger.front().worker_kills, 2);
  const farm::FarmMetrics m = f.metrics();
  EXPECT_EQ(m.quarantined, 1u);
  EXPECT_GE(m.workers_replaced, 2u);
}

TEST(FarmSupervision, ConfigErrorsAreNeverRetried) {
  Job j;
  j.name = "bad-mode";
  j.schedule.push_back(farm::ModeSegment{"no-such-mode", farm::WorkloadDesc{}});
  j.retry.max_attempts = 5;
  const JobResult r = runOne(std::move(j));
  EXPECT_EQ(r.status, JobStatus::Error);
  EXPECT_EQ(r.cause, JobError::Config);
  EXPECT_EQ(r.attempts, 1);  // deterministic rejection: retrying is futile
  EXPECT_TRUE(r.attempts_log.empty());
}

TEST(FarmSupervision, FaultLatchRetriesAreBitIdenticalToACleanRun) {
  // A seeded task-hang storm against per-shell watchdogs: the fault
  // latches at a deterministic cycle, so a retry must reproduce the
  // failure bit for bit — and match an unsupervised clean first run.
  Job j = pinJob("storm");
  sim::FaultSpec spec;
  spec.kind = sim::FaultKind::TaskHang;
  spec.shell = 0;
  spec.task = 0;
  spec.at_cycle = 10'000;
  spec.delay_cycles = 120'000;
  j.faults.faults.push_back(spec);
  j.watchdog_timeout = 20'000;
  j.max_cycles = 800'000;

  Job oracle_job = j;  // unarmed: the clean-first-run oracle
  const JobResult oracle = runOne(std::move(oracle_job));
  EXPECT_NE(oracle.status, JobStatus::Completed);
  EXPECT_GT(oracle.faults_latched, 0u);

  j.retry.max_attempts = 2;
  j.retry.backoff_ms = 0.5;
  j.supervise_ms = 5'000.0;
  const JobResult r = runOne(std::move(j), 2);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.cause, JobError::FaultLatched);
  EXPECT_EQ(r.sim_cycles, oracle.sim_cycles);
  EXPECT_EQ(r.sim_events, oracle.sim_events);
  EXPECT_EQ(r.faults_latched, oracle.faults_latched);
  ASSERT_EQ(r.attempts_log.size(), 1u);
  EXPECT_EQ(r.attempts_log.front().sim_cycles, r.sim_cycles);
  EXPECT_EQ(r.attempts_log.front().sim_events, r.sim_events);
}

TEST(FarmSupervision, BackoffIsDeterministicBoundedAndGrows) {
  RetryPolicy p;
  p.backoff_ms = 2.0;
  p.max_backoff_ms = 100.0;
  p.jitter_frac = 0.25;
  for (int attempt = 2; attempt <= 8; ++attempt) {
    const double a = farm::retryBackoffMs(p, 42, attempt);
    const double b = farm::retryBackoffMs(p, 42, attempt);
    EXPECT_EQ(a, b);  // pure function of (policy, key, attempt)
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, p.max_backoff_ms * (1.0 + p.jitter_frac));
  }
  // Different keys jitter differently (the whole point of the hash).
  bool any_differs = false;
  for (std::uint64_t key = 0; key < 16; ++key) {
    if (farm::retryBackoffMs(p, key, 2) != farm::retryBackoffMs(p, key + 16, 2)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
  // Exponential growth below the cap.
  p.jitter_frac = 0.0;
  EXPECT_LT(farm::retryBackoffMs(p, 7, 2), farm::retryBackoffMs(p, 7, 4));
}

// The jitter hash (sim::splitmix64 of key and attempt) and the doubling
// are pinned: a rerun of a job list spreads its retries exactly as before.
TEST(FarmSupervision, RetryBackoffValuesArePinned) {
  RetryPolicy p;  // 1 ms base, 250 ms cap, 25% jitter
  EXPECT_DOUBLE_EQ(farm::retryBackoffMs(p, 1, 2), 1.242750688396699);
  EXPECT_DOUBLE_EQ(farm::retryBackoffMs(p, 42, 3), 2.1977983625306581);
  EXPECT_DOUBLE_EQ(farm::retryBackoffMs(p, 0xdeadbeef, 5), 8.7126147333989081);
  p.backoff_ms = 100.0;  // 400 ms capped at 250, then jittered
  EXPECT_DOUBLE_EQ(farm::retryBackoffMs(p, 7, 4), 294.0981655605982);
}

TEST(FarmSupervision, LaneDemotionClampsAtLow) {
  EXPECT_EQ(farm::demoted(farm::Priority::High), farm::Priority::Normal);
  EXPECT_EQ(farm::demoted(farm::Priority::Normal), farm::Priority::Low);
  EXPECT_EQ(farm::demoted(farm::Priority::Low), farm::Priority::Low);
}

}  // namespace
