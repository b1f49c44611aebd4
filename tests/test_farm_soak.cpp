// Farm-level supervised soak (ctest -L soak; DESIGN §14).
//
// Four seeds, seven job classes per seed — a clean supervised decode,
// three fault storms through the fault injector against per-shell watchdogs
// (task hang, payload corruption, dropped putspace credits), a deadline
// miss, a host-side worker hang on the first attempt and one on every
// attempt — all running at once on a multi-worker supervised farm with
// retries armed. Clean jobs stay on the decode pin. For every simulated
// failure the unarmed 1-worker run is the oracle: whatever the storm or
// deadline does (latch a fault, stall, stop, complete dirty), the
// supervised, retried, possibly worker-hopping run must reproduce it bit
// for bit in every simulated field, per attempt. Hang-once jobs recover on
// the pin, and the quarantine ledger must hold exactly the hang-always
// jobs, each with two worker kills: any other entry is a leak. Timing
// margins are generous on purpose — this file also runs on the
// ThreadSanitizer CI leg, where a heartbeat slice costs ~10x.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/sim/fault.hpp"
#include "eclipse/sim/prng.hpp"

#include "decode_pin.hpp"

using namespace eclipse;
using farm::Job;
using farm::JobError;
using farm::JobResult;
using farm::JobStatus;

namespace {

/// Simulated fields under the determinism contract.
struct SimFields {
  sim::Cycle cycles;
  std::uint64_t events, macroblocks;
  bool bit_exact;
  std::uint64_t faults, stalls;
  bool operator==(const SimFields&) const = default;
};

SimFields fieldsOf(const JobResult& r) {
  return {r.sim_cycles, r.sim_events,     r.macroblocks,
          r.bit_exact,  r.faults_latched, r.stalls_latched};
}

Job stormJob(std::uint64_t seed, sim::FaultKind kind) {
  // The test_fuzz seeding idiom: every spec field is derived from the
  // (seed, kind) Prng stream, so a seed list reproduces the same storms.
  sim::Prng rng(seed * 977 + static_cast<std::uint64_t>(kind));
  sim::FaultSpec spec;
  spec.kind = kind;
  spec.at_cycle = 2'000 + rng.below(60'000);
  if (kind == sim::FaultKind::TaskHang) {
    spec.shell = static_cast<std::uint32_t>(rng.below(4));
    spec.task = 0;
    spec.delay_cycles = 10'000 + rng.below(100'000);
  } else if (kind == sim::FaultKind::CorruptPayload) {  // at the VLD coefficient output
    spec.shell = 0;
    spec.task = 0;
    spec.port = 0;
    spec.xor_mask = static_cast<std::uint8_t>(1 + rng.below(255));
  } else {  // DropPutspace: three credits lost from one shell
    spec.shell = static_cast<std::uint32_t>(rng.below(4));
    spec.count = 3;
  }
  Job j;
  j.name = "storm-" + std::string(sim::faultKindName(kind)) + "-s" + std::to_string(seed);
  j.faults.seed = seed;
  j.faults.faults.push_back(spec);
  j.watchdog_timeout = 20'000;
  j.max_cycles = 800'000;
  return j;
}

Job deadlineJob(std::uint64_t seed) {
  // The pin decode needs 144885 cycles: every attempt stops at exactly
  // this deadline.
  Job j;
  j.name = "deadline-s" + std::to_string(seed);
  j.deadline = 60'000;
  return j;
}

/// A job whose worker wedges on attempts 1..`attempts`.
Job hangJob(const std::string& cls, std::uint64_t seed, int attempts) {
  Job j;
  j.name = cls + "-s" + std::to_string(seed);
  j.chaos.hang_ms = 5'000.0;
  j.chaos.attempts = attempts;
  j.supervise_ms = 2'000.0;
  return j;
}

/// What each job must end as.
enum class Expect {
  Pin,         ///< completes on the decode pin
  Oracle,      ///< simulated fields equal the unarmed 1-worker run
  FailOracle,  ///< as Oracle, and the run must not complete
  HangOnce,    ///< completes on the pin after losing its first worker
  Quarantine,  ///< quarantined after killing two workers
};

TEST(FarmSoak, SeededChaosRetriesAreDeterministicAndNothingLeaks) {
  const std::uint64_t seeds[] = {11, 23, 47, 91};
  std::vector<Job> armed;
  std::vector<Expect> expect;
  for (std::uint64_t seed : seeds) {
    Job clean;
    clean.name = "clean-s" + std::to_string(seed);
    armed.push_back(clean);
    expect.push_back(Expect::Pin);
    for (sim::FaultKind kind : {sim::FaultKind::TaskHang, sim::FaultKind::CorruptPayload,
                                sim::FaultKind::DropPutspace}) {
      armed.push_back(stormJob(seed, kind));
      expect.push_back(Expect::Oracle);
    }
    armed.push_back(deadlineJob(seed));
    expect.push_back(Expect::FailOracle);
    armed.push_back(hangJob("hang-once", seed, 1));
    expect.push_back(Expect::HangOnce);
    armed.push_back(hangJob("hang-always", seed, 99));
    expect.push_back(Expect::Quarantine);
  }

  // Oracle pass: every job unarmed (no retries, no supervision, no hang)
  // on a single worker — the clean-first-run reference.
  auto cache = std::make_shared<farm::WorkloadCache>();
  std::vector<SimFields> oracle;
  {
    farm::FarmOptions opts;
    opts.workers = 1;
    opts.queue_capacity = armed.size() + 1;
    opts.cache = cache;
    farm::Farm f(opts);
    std::vector<Job> jobs;
    for (const Job& j : armed) {
      Job o = j;
      o.retry = farm::RetryPolicy{};
      o.supervise_ms = 0.0;
      o.chaos = farm::HostHangSpec{};
      jobs.push_back(std::move(o));
    }
    auto futs = f.submitBatch(std::move(jobs));
    for (auto& fut : futs) oracle.push_back(fieldsOf(fut.get()));
    EXPECT_EQ(f.metrics().supervisedJobs(), 0u);
  }

  // Chaos pass: everything armed, all classes interleaved across workers.
  farm::FarmOptions opts;
  opts.workers = 4;
  opts.queue_capacity = armed.size() + 8;
  opts.cache = cache;
  farm::Farm f(opts);
  std::vector<std::string> expect_quarantine;
  std::size_t hang_once_jobs = 0;
  for (std::size_t i = 0; i < armed.size(); ++i) {
    Job& j = armed[i];
    // Three attempts: a hang-always job is barred after its second kill
    // with retry budget left over (quarantine overrides the policy).
    j.retry.max_attempts = 3;
    j.retry.backoff_ms = 0.5;
    if (j.supervise_ms == 0.0) j.supervise_ms = 2'000.0;
    if (expect[i] == Expect::Quarantine) expect_quarantine.push_back(j.name);
    if (expect[i] == Expect::HangOnce) ++hang_once_jobs;
  }
  auto futs = f.submitBatch(std::move(armed));
  // Bounded waits, not blocking gets: a lost promise or a wedged farm
  // fails the test instead of hanging it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(600);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_until(deadline), std::future_status::ready) << "job " << i;
    const JobResult r = futs[i].get();
    switch (expect[i]) {
      case Expect::Pin:
        // Armed (retries + heartbeat slicing) but nothing injected.
        EXPECT_EQ(r.status, JobStatus::Completed) << r.name << ": " << r.error;
        EXPECT_EQ(r.sim_cycles, pin::kDecodePinCycles) << r.name;
        EXPECT_EQ(r.sim_events, pin::kDecodePinEvents) << r.name;
        EXPECT_EQ(r.macroblocks, pin::kDecodePinMacroblocks) << r.name;
        EXPECT_TRUE(r.bit_exact) << r.name;
        break;
      case Expect::FailOracle:
        EXPECT_NE(r.status, JobStatus::Completed) << r.name;
        [[fallthrough]];
      case Expect::Oracle:
        EXPECT_NE(r.status, JobStatus::Quarantined) << r.name;
        EXPECT_EQ(fieldsOf(r) == oracle[i], true) << r.name;
        break;
      case Expect::HangOnce:
        // Attempt 1 dies with its worker, the retry completes on the pin:
        // the hang is host-side noise, invisible to the sim.
        EXPECT_EQ(r.status, JobStatus::Completed) << r.name << ": " << r.error;
        EXPECT_GE(r.attempts, 2) << r.name;
        EXPECT_EQ(r.sim_cycles, pin::kDecodePinCycles) << r.name;
        EXPECT_EQ(r.sim_events, pin::kDecodePinEvents) << r.name;
        EXPECT_TRUE(r.bit_exact) << r.name;
        break;
      case Expect::Quarantine:
        EXPECT_EQ(r.status, JobStatus::Quarantined) << r.name << ": " << r.error;
        break;
    }
    // Per-attempt determinism: every prior attempt that actually ran the
    // simulation carries the terminal attempt's simulated fields.
    if (r.cause != JobError::WorkerLost && r.status != JobStatus::Quarantined) {
      for (const farm::AttemptRecord& a : r.attempts_log) {
        if (a.cause == JobError::WorkerLost) continue;
        EXPECT_EQ(a.sim_cycles, r.sim_cycles) << r.name << " attempt " << a.attempt;
        EXPECT_EQ(a.sim_events, r.sim_events) << r.name << " attempt " << a.attempt;
      }
    }
  }

  // The quarantine ledger holds exactly the hang-always jobs, each with two
  // worker kills on record, and the counter agrees: no leak either way.
  const std::vector<farm::QuarantineRecord> ledger = f.quarantined();
  const farm::FarmMetrics m = f.metrics();
  EXPECT_EQ(ledger.size(), expect_quarantine.size());
  EXPECT_EQ(m.quarantined, ledger.size());
  for (const farm::QuarantineRecord& q : ledger) {
    EXPECT_NE(std::find(expect_quarantine.begin(), expect_quarantine.end(), q.name),
              expect_quarantine.end())
        << q.name << " was quarantined";
    EXPECT_GE(q.worker_kills, 2) << q.name;
  }
  EXPECT_EQ(m.completed + m.failed, m.accepted);
  // One kill per hang-once job, two per hang-always job.
  const std::uint64_t kills = hang_once_jobs + 2 * expect_quarantine.size();
  EXPECT_GE(m.worker_lost, kills);
  EXPECT_GE(m.workers_replaced, kills);
  EXPECT_EQ(f.workerCount(), 4);  // the pool recovered to strength
}

}  // namespace
