// eclipse_farm: deterministic batch serving on worker threads (DESIGN §10).
//
// The load-bearing property checked here is the determinism contract: a
// job's *simulated* result (cycles, events, macroblocks, bit-exactness) is
// a pure function of the Job — independent of worker count, submission
// order, and which jobs ran on the same worker before it (every job builds
// its own instance). The pinned decode job must land on the same 144885
// cycles / 48109 events the rest of the suite pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/farm/farm.hpp"
#include "eclipse/sim/fault.hpp"

#include "decode_pin.hpp"

using namespace eclipse;
using farm::Admission;
using farm::AppKind;
using farm::AppSpec;
using farm::Job;
using farm::JobResult;
using farm::JobStatus;

namespace {

// The suite-wide decode pin (tests/decode_pin.hpp): default 96x80x5
// workload on the default instance.
constexpr sim::Cycle kPinCycles = pin::kDecodePinCycles;
constexpr std::uint64_t kPinEvents = pin::kDecodePinEvents;
constexpr std::uint64_t kPinMacroblocks = pin::kDecodePinMacroblocks;

constexpr std::chrono::milliseconds kNoWait = farm::JobQueue::kNoWait;

Job decodeJob(std::string name, int qscale = 14) {
  Job j;
  j.name = std::move(name);
  j.apps = {AppSpec{AppKind::Decode, farm::WorkloadDesc{}}};
  j.apps[0].workload.qscale = qscale;
  return j;
}

Job encodeJob(std::string name) {
  Job j;
  j.name = std::move(name);
  j.apps = {AppSpec{AppKind::Encode, farm::WorkloadDesc{}}};
  return j;
}

/// A mixed job list exercising decode, encode, a dual-decode mix with a
/// different instance shape, and a distinct workload descriptor.
std::vector<Job> mixedJobs() {
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(decodeJob("dec-" + std::to_string(i)));
  for (int i = 0; i < 2; ++i) jobs.push_back(decodeJob("dec-q20-" + std::to_string(i), 20));
  for (int i = 0; i < 2; ++i) jobs.push_back(encodeJob("enc-" + std::to_string(i)));
  for (int i = 0; i < 2; ++i) {
    Job j;
    j.name = "dual-dec-" + std::to_string(i);
    j.apps = {AppSpec{}, AppSpec{}};
    j.config.set("sram.size_bytes", std::int64_t{64 * 1024});
    jobs.push_back(j);
  }
  return jobs;
}

struct SimFields {
  JobStatus status;
  sim::Cycle cycles;
  std::uint64_t events;
  std::uint64_t macroblocks;
  bool bit_exact;
  double psnr_db;
  std::uint64_t faults_latched;
  std::uint64_t stalls_latched;

  bool operator==(const SimFields&) const = default;
};

SimFields simFields(const JobResult& r) {
  return {r.status,    r.sim_cycles, r.sim_events,     r.macroblocks,
          r.bit_exact, r.psnr_db,    r.faults_latched, r.stalls_latched};
}

std::map<std::string, SimFields> runAll(std::vector<Job> jobs, int workers,
                                        std::shared_ptr<farm::WorkloadCache> cache = {}) {
  farm::FarmOptions opts;
  opts.workers = workers;
  opts.queue_capacity = jobs.size() + 1;
  opts.cache = std::move(cache);
  farm::Farm f(opts);
  auto futs = f.submitBatch(std::move(jobs));
  std::map<std::string, SimFields> out;
  for (auto& fut : futs) {
    const JobResult r = fut.get();
    out.emplace(r.name, simFields(r));
  }
  return out;
}

// Shared across tests: video generation + golden encode is the dominant
// cost of these small jobs, and the descriptors repeat.
std::shared_ptr<farm::WorkloadCache> sharedCache() {
  static auto cache = std::make_shared<farm::WorkloadCache>();
  return cache;
}

}  // namespace

TEST(Farm, DecodePinOnSingleWorker) {
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  auto t = f.submit(decodeJob("pin"));
  ASSERT_EQ(t.admission, Admission::Accepted);
  const JobResult r = t.result.get();
  EXPECT_EQ(r.status, JobStatus::Completed);
  EXPECT_EQ(r.sim_cycles, kPinCycles);
  EXPECT_EQ(r.sim_events, kPinEvents);
  EXPECT_EQ(r.macroblocks, kPinMacroblocks);
  EXPECT_TRUE(r.bit_exact);
  EXPECT_EQ(r.worker, 0);
}

TEST(Farm, BitIdenticalAcrossWorkerCountsAndOrder) {
  const std::vector<Job> jobs = mixedJobs();
  const auto serial = runAll(jobs, 1, sharedCache());

  std::vector<Job> reversed(jobs.rbegin(), jobs.rend());
  const auto parallel = runAll(std::move(reversed), 4, sharedCache());
  const auto pair = runAll(jobs, 2, sharedCache());

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), pair.size());
  for (const auto& [name, fields] : serial) {
    auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name;
    EXPECT_EQ(fields, it->second) << "simulated result diverged for job " << name;
    EXPECT_EQ(fields, pair.at(name)) << "simulated result diverged on 2 workers for job " << name;
    EXPECT_EQ(fields.status, JobStatus::Completed) << name;
    EXPECT_TRUE(fields.bit_exact || fields.psnr_db > 25.0) << name;
  }
  // The pinned decode jobs land on the pinned numbers in both sweeps.
  EXPECT_EQ(serial.at("dec-0").cycles, kPinCycles);
  EXPECT_EQ(serial.at("dec-0").events, kPinEvents);
  EXPECT_EQ(parallel.at("dec-3").cycles, kPinCycles);
}

TEST(Farm, InstanceReuseIsBitIdenticalToColdBuild) {
  // Jobs of the same shape back to back on one worker: no instance is
  // reused, each job builds its own, and every one lands on the pin.
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  auto futs = f.submitBatch({decodeJob("first"), decodeJob("second"), decodeJob("third")});
  std::vector<JobResult> rs;
  for (auto& fut : futs) rs.push_back(fut.get());

  for (const JobResult& r : rs) {
    EXPECT_EQ(r.sim_cycles, kPinCycles) << r.name;
    EXPECT_EQ(r.sim_events, kPinEvents) << r.name;
    EXPECT_TRUE(r.bit_exact) << r.name;
  }
  const farm::FarmMetrics m = f.metrics();
  ASSERT_EQ(m.workers.size(), 1u);
  EXPECT_EQ(m.workers[0].cold_builds, 3u);
  EXPECT_EQ(m.workers[0].reused, 0u);
}

TEST(Farm, ShapeChangeForcesColdRebuild) {
  // One worker runs pinned, narrow-bus, pinned, pinned: neither the shape
  // change nor a job of the same shape before it moves a pinned job.
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  Job narrow = decodeJob("narrow");
  narrow.config.set("sram.bus_width_bytes", std::int64_t{8});
  auto futs =
      f.submitBatch({decodeJob("a"), std::move(narrow), decodeJob("b"), decodeJob("c")});
  std::vector<JobResult> rs;
  for (auto& fut : futs) rs.push_back(fut.get());

  for (const JobResult& r : rs) EXPECT_TRUE(r.bit_exact) << r.name;
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(rs[i].sim_cycles, kPinCycles) << rs[i].name;
    EXPECT_EQ(rs[i].sim_events, kPinEvents) << rs[i].name;
  }
  EXPECT_GT(rs[1].sim_cycles, kPinCycles) << "narrow bus must cost cycles";
}

TEST(Farm, MultiAppMixJobMatchesDirectRun) {
  // The dual-decode Section-6 mix as one farm job vs. the same mix run
  // directly on a hand-built instance.
  Job j;
  j.name = "dual";
  j.apps = {AppSpec{}, AppSpec{}};
  j.config.set("sram.size_bytes", std::int64_t{64 * 1024});

  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  const JobResult r = f.submit(std::move(j)).result.get();
  ASSERT_EQ(r.status, JobStatus::Completed);

  const auto w = sharedCache()->get(farm::WorkloadDesc{});
  app::InstanceParams ip;
  ip.sram.size_bytes = 64 * 1024;
  app::EclipseInstance inst(ip);
  app::DecodeApp a(inst, w->bitstream);
  app::DecodeApp b(inst, w->bitstream);
  const sim::Cycle cycles = inst.run();
  ASSERT_TRUE(a.done() && b.done());
  EXPECT_EQ(r.sim_cycles, cycles);
  EXPECT_EQ(r.macroblocks, a.macroblocksDecoded() + b.macroblocksDecoded());
}

TEST(Farm, BackpressureRejectsThenAcceptsAfterDrain) {
  // Queue-level admission is deterministic; check it directly first.
  farm::JobQueue q(2);
  farm::PendingJob pj;
  EXPECT_EQ(q.push(std::move(pj), kNoWait), Admission::Accepted);
  EXPECT_EQ(q.push(std::move(pj), kNoWait), Admission::Accepted);
  EXPECT_EQ(q.push(std::move(pj), kNoWait), Admission::QueueFull);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_EQ(q.push(std::move(pj), kNoWait), Admission::Accepted);
  q.close();
  EXPECT_EQ(q.push(std::move(pj), kNoWait), Admission::ShuttingDown);

  // Farm-level: a single slow worker behind a capacity-1 queue must shed
  // load from a fast submission burst, then accept again once drained.
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  std::vector<std::future<JobResult>> accepted;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto t = f.submit(decodeJob("burst-" + std::to_string(i)));
    if (t.admission == Admission::Accepted) {
      accepted.push_back(std::move(t.result));
    } else {
      EXPECT_EQ(t.admission, Admission::QueueFull);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1) << "burst of 10 into a capacity-1 queue must shed load";
  for (auto& fut : accepted) EXPECT_EQ(fut.get().status, JobStatus::Completed);
  auto t = f.submit(decodeJob("after-drain"));
  EXPECT_EQ(t.admission, Admission::Accepted);
  EXPECT_EQ(t.result.get().sim_cycles, kPinCycles);
  const farm::FarmMetrics m = f.metrics();
  EXPECT_EQ(m.rejected, static_cast<std::uint64_t>(rejected));
  // Every job that ran built its own instance; none was reused.
  std::uint64_t builds = 0, reused = 0;
  for (const auto* ws : {&m.workers, &m.zombies}) {
    for (const farm::WorkerStats& w : *ws) {
      builds += w.cold_builds;
      reused += w.reused;
    }
  }
  EXPECT_EQ(builds, accepted.size() + 1);
  EXPECT_EQ(reused, 0u);
}

TEST(Farm, PriorityLanesPopInOrder) {
  farm::JobQueue q(8);
  auto push = [&](const char* name, farm::Priority p) {
    farm::PendingJob pj;
    pj.job.name = name;
    pj.job.priority = p;
    ASSERT_EQ(q.push(std::move(pj), kNoWait), Admission::Accepted);
  };
  push("low-0", farm::Priority::Low);
  push("normal-0", farm::Priority::Normal);
  push("high-0", farm::Priority::High);
  push("normal-1", farm::Priority::Normal);
  push("high-1", farm::Priority::High);

  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) order.push_back(q.pop()->job.name);
  EXPECT_EQ(order,
            (std::vector<std::string>{"high-0", "high-1", "normal-0", "normal-1", "low-0"}));
}

TEST(Farm, FaultyJobFailsInIsolation) {
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);

  const JobResult before = f.submit(decodeJob("before")).result.get();
  ASSERT_EQ(before.sim_cycles, kPinCycles);

  // A task hang long enough that the armed watchdog latches Hang; the
  // job reports its faults and must not poison the worker for successors.
  Job faulty = decodeJob("faulty");
  {
    sim::FaultSpec hang;
    hang.kind = sim::FaultKind::TaskHang;
    hang.shell = 1;  // rlsq; the single decode app's task sits in slot 0
    hang.task = 0;
    hang.at_cycle = 10'000;
    hang.delay_cycles = 600'000;  // well past the watchdog timeout
    faulty.faults.faults.push_back(hang);
  }
  faulty.watchdog_timeout = 20'000;
  faulty.max_cycles = 800'000;
  const JobResult rf = f.submit(std::move(faulty)).result.get();
  EXPECT_GT(rf.faults_latched + rf.stalls_latched, 0u)
      << "injected hang must be observed by the health summary";

  const JobResult after = f.submit(decodeJob("after")).result.get();
  EXPECT_EQ(after.status, JobStatus::Completed);
  EXPECT_EQ(after.sim_cycles, kPinCycles);
  EXPECT_EQ(after.sim_events, kPinEvents);
  EXPECT_TRUE(after.bit_exact);
}

TEST(Farm, ConfigurationErrorIsContainedPerJob) {
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);

  Job tiny = decodeJob("tiny-sram");
  tiny.config.set("sram.size_bytes", std::int64_t{4096});  // graph cannot fit
  const JobResult re = f.submit(std::move(tiny)).result.get();
  EXPECT_EQ(re.status, JobStatus::Error);
  EXPECT_FALSE(re.error.empty());

  const JobResult ok = f.submit(decodeJob("recovered")).result.get();
  EXPECT_EQ(ok.status, JobStatus::Completed);
  EXPECT_EQ(ok.sim_cycles, kPinCycles);
}

TEST(Farm, UnknownSetupKeyIsAConfigErrorNamingTheKey) {
  // A misspelt instance key must not silently run the default instance.
  std::string err;
  std::optional<Job> typo = farm::parseJob(
      "typo kind=decode width=48 height=32 frames=2 config:sram.size_byte=65536", err);
  ASSERT_TRUE(typo) << err;
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  const JobResult r = f.submit(std::move(*typo)).result.get();
  EXPECT_EQ(r.status, JobStatus::Error);
  EXPECT_EQ(r.cause, farm::JobError::Config);
  EXPECT_NE(r.error.find("'sram.size_byte'"), std::string::npos) << r.error;
}

TEST(Farm, SubmitForBoundsTheWaitAndReportsTheOutcome) {
  // Queue level, where the full/closed states are under test control (no
  // worker draining behind our back): a bounded wait on a full queue times
  // out as QueueFull with the job returned untouched; once the queue
  // closes, the same call reports ShuttingDown instead of blocking.
  {
    farm::JobQueue q(1);
    farm::PendingJob filler;
    filler.job = decodeJob("filler");
    ASSERT_EQ(q.push(std::move(filler), kNoWait), Admission::Accepted);

    farm::PendingJob waiter;
    waiter.job = decodeJob("impatient");
    EXPECT_EQ(q.push(std::move(waiter), std::chrono::milliseconds(5)),
              Admission::QueueFull);
    EXPECT_EQ(waiter.job.name, "impatient") << "a timed-out job is returned untouched";

    q.close();
    EXPECT_EQ(q.push(std::move(waiter), std::chrono::milliseconds(5)),
              Admission::ShuttingDown);
  }

  // Farm level: the happy path is Accepted with a live future, and after
  // close() the ticket is ShuttingDown with a dead one.
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  farm::SubmitTicket t = f.submitFor(decodeJob("patient"), std::chrono::seconds(60));
  ASSERT_EQ(t.admission, Admission::Accepted);
  ASSERT_TRUE(t.result.valid());
  const JobResult r = t.result.get();
  EXPECT_EQ(r.status, JobStatus::Completed);
  EXPECT_EQ(r.sim_cycles, kPinCycles);

  f.close();
  farm::SubmitTicket late = f.submitFor(decodeJob("late"), std::chrono::milliseconds(5));
  EXPECT_EQ(late.admission, Admission::ShuttingDown);
  EXPECT_FALSE(late.result.valid());
}

TEST(Farm, ForeverPushWaitsForASlotOrTheClose) {
  // A forever push on a full queue blocks; a pop that frees the slot
  // admits it.
  farm::JobQueue q(1);
  farm::PendingJob filler;
  filler.job.name = "filler";
  ASSERT_EQ(q.push(std::move(filler), kNoWait), Admission::Accepted);
  farm::PendingJob waiter;
  waiter.job.name = "patient";
  auto pushed = std::async(std::launch::async, [&] {
    return q.push(std::move(waiter), farm::JobQueue::kWaitForever);
  });
  EXPECT_EQ(pushed.wait_for(std::chrono::milliseconds(20)), std::future_status::timeout)
      << "a push on a full queue must wait for a slot";
  EXPECT_EQ(q.pop()->job.name, "filler");
  EXPECT_EQ(pushed.get(), Admission::Accepted);
  EXPECT_EQ(q.depth(), 1u);

  // Full again: a forever push still waiting when the queue closes gives
  // up with ShuttingDown and leaves its job untouched.
  farm::PendingJob late;
  late.job.name = "late";
  auto refused = std::async(std::launch::async, [&] {
    return q.push(std::move(late), farm::JobQueue::kWaitForever);
  });
  EXPECT_EQ(refused.wait_for(std::chrono::milliseconds(20)), std::future_status::timeout);
  q.close();
  EXPECT_EQ(refused.get(), Admission::ShuttingDown);
  EXPECT_EQ(late.job.name, "late");
  EXPECT_EQ(q.pop()->job.name, "patient");
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Farm, LaneGaugesTrackQueuedDepthsAndDrainToZero) {
  // Queue level first — no worker racing the reads, so depths are exact.
  farm::JobQueue q(8);
  auto pend = [](std::string name, farm::Priority p) {
    farm::PendingJob pj;
    pj.job.name = std::move(name);
    pj.job.priority = p;
    pj.queued = std::chrono::steady_clock::now();
    return pj;
  };
  ASSERT_EQ(q.push(pend("h", farm::Priority::High), kNoWait), Admission::Accepted);
  ASSERT_EQ(q.push(pend("n-0", farm::Priority::Normal), kNoWait), Admission::Accepted);
  ASSERT_EQ(q.push(pend("n-1", farm::Priority::Normal), kNoWait), Admission::Accepted);
  ASSERT_EQ(q.push(pend("l", farm::Priority::Low), kNoWait), Admission::Accepted);

  const auto g = q.gauges();
  EXPECT_EQ(g[static_cast<int>(farm::Priority::High)].depth, 1u);
  EXPECT_EQ(g[static_cast<int>(farm::Priority::Normal)].depth, 2u);
  EXPECT_EQ(g[static_cast<int>(farm::Priority::Low)].depth, 1u);
  EXPECT_GE(g[static_cast<int>(farm::Priority::Normal)].oldest_ms, 0.0)
      << "a non-empty lane reports its head job's age";
  for (int i = 0; i < 4; ++i) (void)q.pop();
  for (const farm::LaneGauge& lg : q.gauges()) {
    EXPECT_EQ(lg.depth, 0u);
    EXPECT_EQ(lg.oldest_ms, 0.0);
  }

  // Farm level: metrics() surfaces the same gauges, and a drained farm
  // reads all-zero.
  farm::FarmOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 8;
  opts.cache = sharedCache();
  farm::Farm f(opts);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(f.submit(decodeJob("g-" + std::to_string(i))).result);
  for (auto& fut : futs) EXPECT_EQ(fut.get().status, JobStatus::Completed);
  f.drain();
  for (const farm::LaneGauge& lg : f.metrics().lanes) {
    EXPECT_EQ(lg.depth, 0u);
    EXPECT_EQ(lg.oldest_ms, 0.0);
  }
}

TEST(Farm, CloseRacingConcurrentSubmittersLosesNothing) {
  // Three producer threads hammer the three admission paths (submitWait,
  // submitFor, submitBatch) while the main thread closes the farm.
  // Whatever the interleaving: every future handed out resolves
  // terminally, and the metrics ledger balances exactly.
  farm::FarmOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 4;
  opts.cache = sharedCache();
  farm::Farm f(opts);

  auto tiny = [](std::string name) {
    Job j;
    j.name = std::move(name);
    j.apps = {AppSpec{AppKind::Decode, farm::WorkloadDesc{}}};
    j.apps[0].workload.width = 32;
    j.apps[0].workload.height = 32;
    j.apps[0].workload.frames = 1;
    return j;
  };

  std::vector<std::future<JobResult>> futs[3];
  std::thread producers[3];
  for (int t = 0; t < 3; ++t) {
    producers[t] = std::thread([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string name = "race-" + std::to_string(t) + "-" + std::to_string(i);
        try {
          if (t == 0) {
            futs[t].push_back(f.submitWait(tiny(name)));
          } else if (t == 1) {
            farm::SubmitTicket tk = f.submitFor(tiny(name), std::chrono::milliseconds(20));
            if (tk.admission == Admission::ShuttingDown) break;
            if (tk.admission == Admission::Accepted) futs[t].push_back(std::move(tk.result));
          } else {
            // NB: a close landing mid-batch throws out of submitBatch and
            // strands the handle to an already-accepted first job — the job
            // itself still runs and is delivered, which is exactly what the
            // ledger assertions below pin down (resolved <= accepted).
            auto batch = f.submitBatch({tiny(name + "a"), tiny(name + "b")});
            for (auto& fut : batch) futs[t].push_back(std::move(fut));
          }
        } catch (const std::runtime_error&) {
          break;  // submitWait/submitBatch throw once the farm is closing
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  f.close();
  for (auto& p : producers) p.join();

  std::uint64_t resolved = 0;
  for (auto& lane : futs) {
    for (auto& fut : lane) {
      const JobResult r = fut.get();  // must not hang or break the promise
      EXPECT_EQ(r.status, JobStatus::Completed) << r.name << ": " << r.error;
      ++resolved;
    }
  }
  EXPECT_GT(resolved, 0u) << "the race must admit at least something before close";
  f.drain();  // wait for delivery of accepted jobs whose batch handle was stranded
  const farm::FarmMetrics m = f.metrics();
  EXPECT_LE(resolved, m.accepted) << "no future without an accepted job behind it";
  EXPECT_EQ(m.completed + m.failed, m.accepted) << "every accepted job resolved terminally";
  EXPECT_EQ(m.failed, 0u) << "close never fails an already-accepted job";
}

// --------------------------------------------------------------- job line --

namespace {

/// The two front ends' hooks, as farm_driver and the server define them.
farm::JobKeyHook repeatHook(int& repeat) {
  return [&repeat](const std::string& key, const std::string& val) {
    if (key != "repeat") return false;
    repeat = std::stoi(val);
    return true;
  };
}

farm::JobKeyHook deadlineHook(double& deadline_ms) {
  return [&deadline_ms](const std::string& key, const std::string& val) {
    if (key != "deadline_ms") return false;
    deadline_ms = std::stod(val);
    return true;
  };
}

}  // namespace

TEST(FarmJobLine, ParsesTheFarmDriverGrammarPlusServeExtensions) {
  double deadline_ms = 0.0;
  std::string err;
  const std::optional<Job> job = farm::parseJob(
      "clip kind=decode+encode width=48 height=32 frames=2 seed=9 qscale=20 "
      "priority=high retries=2 deadline_ms=250 config:sram.size_bytes=65536",
      err, {}, deadlineHook(deadline_ms));
  ASSERT_TRUE(job) << err;
  EXPECT_EQ(job->name, "clip");
  ASSERT_EQ(job->apps.size(), 2u);
  EXPECT_EQ(job->apps[0].kind, farm::AppKind::Decode);
  EXPECT_EQ(job->apps[1].kind, farm::AppKind::Encode);
  EXPECT_EQ(job->apps[0].workload.width, 48);
  EXPECT_EQ(job->apps[0].workload.frames, 2);
  EXPECT_EQ(job->apps[0].workload.seed, 9u);
  EXPECT_EQ(job->priority, farm::Priority::High);
  EXPECT_EQ(deadline_ms, 250.0);
}

TEST(FarmJobLine, RejectsMalformedSpecs) {
  std::string err;
  EXPECT_FALSE(farm::parseJob("", err));
  EXPECT_FALSE(farm::parseJob("   ", err));
  EXPECT_FALSE(farm::parseJob("j width=banana", err));
  EXPECT_FALSE(farm::parseJob("j nosuchkey=1", err));
  EXPECT_FALSE(farm::parseJob("j shards=2", err));
  EXPECT_FALSE(err.empty());
  // Numbers are whole tokens: no trailing text, no fraction for an
  // integer key, no minus sign wrapped into an unsigned one.
  for (const char* line : {"j width=32x", "j frames=2.9", "j seed=-1", "j max_cycles=-5"}) {
    EXPECT_FALSE(farm::parseJob(line, err)) << line;
    EXPECT_EQ(err.rfind("bad value for ", 0), 0u) << line << ": " << err;
  }
}

TEST(FarmJobLine, DefaultSpecIsThePinnedDecode) {
  std::string err;
  std::optional<Job> job = farm::parseJob("pin", err);
  ASSERT_TRUE(job) << err;
  farm::FarmOptions fo;
  fo.workers = 1;
  fo.cache = sharedCache();
  farm::Farm f(fo);
  const JobResult r = f.submitWait(std::move(*job)).get();
  EXPECT_EQ(r.status, JobStatus::Completed);
  EXPECT_EQ(r.sim_cycles, kPinCycles);
  EXPECT_EQ(r.sim_events, kPinEvents);
  EXPECT_EQ(r.macroblocks, kPinMacroblocks);
  EXPECT_TRUE(r.bit_exact);
}

// Every key that either front end's parser used to own lands on the same
// Job field it set there.
TEST(FarmJobLine, EveryKeySetsItsJobField) {
  std::string err;
  const std::optional<Job> job = farm::parseJob(
      "all kind=encode width=48 height=32 frames=2 seed=9 qscale=20 gop=6,2 detail=5 "
      "motion=3 noise=1.5 priority=low max_cycles=123456 verify=0 retries=3 backoff_ms=7.5 "
      "deadline=99999 supervise_ms=250 storm=corrupt storm_seed=11 watchdog=20000 "
      "hang_ms=40 hang_attempts=2 config:sram.size_bytes=65536",
      err);
  ASSERT_TRUE(job) << err;
  EXPECT_EQ(job->name, "all");
  ASSERT_EQ(job->apps.size(), 1u);
  EXPECT_EQ(job->apps[0].kind, AppKind::Encode);
  const farm::WorkloadDesc& wd = job->apps[0].workload;
  EXPECT_EQ(wd.width, 48);
  EXPECT_EQ(wd.height, 32);
  EXPECT_EQ(wd.frames, 2);
  EXPECT_EQ(wd.seed, 9u);
  EXPECT_EQ(wd.qscale, 20);
  EXPECT_EQ(wd.gop_n, 6);
  EXPECT_EQ(wd.gop_m, 2);
  EXPECT_EQ(wd.detail, 5);
  EXPECT_EQ(wd.motion_speed, 3);
  EXPECT_EQ(wd.noise_level, 1.5);
  EXPECT_EQ(job->priority, farm::Priority::Low);
  EXPECT_EQ(job->max_cycles, 123456u);
  EXPECT_FALSE(job->verify);
  EXPECT_EQ(job->retry.max_attempts, 3);
  EXPECT_EQ(job->retry.backoff_ms, 7.5);
  EXPECT_EQ(job->deadline, 99999u);
  EXPECT_EQ(job->supervise_ms, 250.0);
  EXPECT_EQ(job->faults.seed, 11u);
  ASSERT_EQ(job->faults.faults.size(), 1u);
  EXPECT_EQ(job->faults.faults[0].kind, sim::FaultKind::CorruptPayload);
  EXPECT_EQ(job->watchdog_timeout, 20000u);
  EXPECT_EQ(job->chaos.hang_ms, 40.0);
  EXPECT_EQ(job->chaos.attempts, 2);
  EXPECT_EQ(job->config.getInt("sram.size_bytes"), 65536);
}

TEST(FarmJobLine, LineKeysOverrideBaseDefaults) {
  Job base;
  base.retry.max_attempts = 4;
  base.deadline = 1'000'000;
  base.supervise_ms = 500.0;
  std::string err;
  const std::optional<Job> plain = farm::parseJob("plain", err, base);
  ASSERT_TRUE(plain) << err;
  EXPECT_EQ(plain->retry.max_attempts, 4);
  EXPECT_EQ(plain->deadline, 1'000'000u);
  EXPECT_EQ(plain->supervise_ms, 500.0);
  const std::optional<Job> own =
      farm::parseJob("own retries=1 deadline=0 supervise_ms=0", err, base);
  ASSERT_TRUE(own) << err;
  EXPECT_EQ(own->retry.max_attempts, 1);
  EXPECT_EQ(own->deadline, 0u);
  EXPECT_EQ(own->supervise_ms, 0.0);
}

TEST(FarmJobLine, BlankOrCommentLineYieldsNoJob) {
  std::string err = "stale";
  for (const char* line : {"", "   ", "\t", "# a comment", "  #indented width=banana"}) {
    EXPECT_FALSE(farm::parseJob(line, err)) << line;
    EXPECT_TRUE(err.empty()) << line << ": " << err;
  }
}

// Each front end's own key reaches only its hook; to the other front end
// (and to a parse with no hook) it is an unknown field.
TEST(FarmJobLine, EachFrontEndHookOwnsOnlyItsKey) {
  int repeat = 1;
  double deadline_ms = 0.0;
  std::string err;
  ASSERT_TRUE(farm::parseJob("r repeat=3", err, {}, repeatHook(repeat))) << err;
  EXPECT_EQ(repeat, 3);
  ASSERT_TRUE(farm::parseJob("d deadline_ms=75", err, {}, deadlineHook(deadline_ms))) << err;
  EXPECT_EQ(deadline_ms, 75.0);

  EXPECT_FALSE(farm::parseJob("r deadline_ms=75", err, {}, repeatHook(repeat)));
  EXPECT_EQ(err, "unknown field: deadline_ms");
  EXPECT_FALSE(farm::parseJob("d repeat=3", err, {}, deadlineHook(deadline_ms)));
  EXPECT_EQ(err, "unknown field: repeat");
  EXPECT_FALSE(farm::parseJob("n repeat=3", err));
  EXPECT_EQ(err, "unknown field: repeat");
  // A hook's bad value fails like a built-in key's.
  EXPECT_FALSE(farm::parseJob("r repeat=many", err, {}, repeatHook(repeat)));
  EXPECT_EQ(err, "bad value for repeat: many");
}
