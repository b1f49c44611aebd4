#include "eclipse/farm/worker.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <vector>

#include "eclipse/app/decode_app.hpp"
#include "eclipse/app/encode_app.hpp"
#include "eclipse/media/codec.hpp"
#include "eclipse/media/metrics.hpp"

namespace eclipse::farm {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Slice length of a supervised run: big enough that the heartbeat load
/// is negligible (a decode job is a handful of slices), small enough that
/// a heartbeat lands every few host milliseconds on any sane config.
constexpr sim::Cycle kBeatSlice = 32'768;

/// One application instantiated on the job's instance, kept alive across
/// the run.
struct RunningApp {
  AppKind kind = AppKind::Decode;
  /// Prepared workload of each segment, in order: one for every
  /// application of a plain job, the schedule's for a scheduled decode.
  std::vector<std::shared_ptr<const PreparedWorkload>> segs;
  std::unique_ptr<app::DecodeApp> dec;
  std::unique_ptr<app::EncodeApp> enc;

  [[nodiscard]] bool done() const { return dec ? dec->done() : enc->done(); }
  [[nodiscard]] app::AppHandle& handle() { return dec ? dec->handle() : enc->handle(); }
};

/// Buffer shapes of the farm's decode mode family. "sd" is the default
/// (pinned) decode graph; "hd" widens the FIFOs for higher-rate segments,
/// so an sd<->hd boundary exercises the stream-rebinding transition path.
app::DecodeAppConfig decodeModeConfig(const std::string& mode) {
  if (mode == "sd") return {};
  if (mode == "hd") {
    app::DecodeAppConfig cfg;
    cfg.coef_buffer = 6144;
    cfg.blocks_buffer = 3072;
    cfg.res_buffer = 3072;
    cfg.pix_buffer = 3072;
    return cfg;
  }
  throw std::invalid_argument("unknown decode mode in schedule: " + mode);
}

}  // namespace

Worker::Worker(int index, JobQueue& queue, WorkloadCache& cache, FinishFn on_finish)
    : index_(index),
      queue_(queue),
      cache_(cache),
      on_finish_(std::move(on_finish)) {
  stats_.index = index;
  thread_ = std::thread([this] { threadMain(); });
}

void Worker::join() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (thread_.joinable()) thread_.join();
}

void Worker::retire() {
  retired_.store(true, std::memory_order_release);
  // A retiree idling in pop() must be kicked awake to notice the flag
  // (shrinking resize); a hung one ignores the notify, which is fine.
  queue_.wake();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.retired = true;
}

std::shared_ptr<InFlight> Worker::inflight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_;
}

WorkerStats Worker::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Worker::threadMain() {
  while (!retired_.load(std::memory_order_acquire)) {
    auto popped = queue_.pop(&retired_);
    if (!popped) break;
    auto fl = std::make_shared<InFlight>();
    fl->pj = std::move(*popped);
    fl->started = Clock::now();
    fl->supervise_ms = fl->pj.job.supervise_ms;
    fl->beat();
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_ = fl;
    }
    const Clock::time_point t0 = Clock::now();
    JobResult r = runJob(*fl);
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.reset();
    }
    if (!fl->tryClaim()) {
      // The Supervisor declared this worker hung and owns the job's
      // completion now: whatever this run produced is void (the retry will
      // recompute the identical simulated result). The abandon path
      // already dropped the instance; this thread exits on `retired_`.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.abandoned;
      continue;
    }
    r.id = fl->pj.id;
    r.name = fl->pj.job.name;
    r.worker = index_;
    r.wall_ms = msSince(t0);
    r.latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - fl->pj.submitted).count();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs;
      r.status == JobStatus::Completed ? ++stats_.completed : ++stats_.failed;
      stats_.busy_ms += r.wall_ms;
    }
    // Farm disposition (deliver / retry / quarantine) owns the promise
    // from here; metrics are updated before the future resolves.
    on_finish_(std::move(fl), std::move(r));
  }
}

sim::Cycle Worker::budgetEnd(const Job& job) {
  sim::Cycle cap = job.max_cycles;
  if (job.deadline > 0 && (cap == 0 || job.deadline < cap)) cap = job.deadline;
  return cap == 0 ? sim::Simulator::kForever : cap;
}

JobError Worker::classifyRun(const Job& job, const JobResult& r, bool all_done,
                             sim::Cycle ran) {
  if (all_done) return JobError::None;
  // The deadline is what stopped the run: the budget was clamped to it, so
  // reaching it is exact (same cycle on every worker, every attempt).
  if (job.deadline > 0 && ran >= job.deadline) return JobError::DeadlineExceeded;
  if (r.faults_latched > 0) return JobError::FaultLatched;
  return JobError::Stall;
}

void Worker::runToBudget(InFlight& fl, app::EclipseInstance& inst, sim::Cycle budget_end) {
  sim::Simulator& sim = inst.simulator();
  // Unsupervised jobs take the original single-call path: zero overhead.
  if (!fl.supervised.load(std::memory_order_relaxed)) {
    inst.run(budget_end);
    return;
  }
  // Supervised: bounded slices with a heartbeat between them. Bit-identical
  // to the single call — Simulator::run(until) executes events *at* `until`
  // and a resumed run continues the same dispatch sequence, so the slice
  // boundaries are invisible to the simulation (asserted by the pin tests).
  sim::Cycle now = sim.now();
  for (;;) {
    const sim::Cycle next = budget_end - now > kBeatSlice ? now + kBeatSlice : budget_end;
    now = inst.run(next);
    fl.beat();
    if (fl.claimed.load(std::memory_order_acquire)) throw Abandoned{};
    if (inst.pendingApps() <= 0) break;
    if (now >= budget_end) break;
    if (sim.quiescent()) break;
  }
}

void Worker::injectHostHang(InFlight& fl) {
  const HostHangSpec& h = fl.pj.job.chaos;
  if (h.hang_ms <= 0.0 || fl.pj.attempt > h.attempts) return;
  // Wedge without heartbeating. Sleeping in chunks lets the abandoned
  // thread notice the claim and exit promptly — the Supervisor has already
  // declared it hung either way (no beat landed).
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double, std::milli>(h.hang_ms));
  while (Clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (fl.claimed.load(std::memory_order_acquire)) throw Abandoned{};
  }
}

JobResult Worker::runJob(InFlight& fl) {
  const Job& job = fl.pj.job;
  JobResult r;
  try {
    // The job's own instance, dropped when this scope ends on every path.
    // Declared before the applications so it outlives them.
    std::unique_ptr<app::EclipseInstance> inst;
    // Workload preparation first (host-side; cache hit after the first
    // job with a given descriptor), so no instance is built if the
    // descriptor or a scheduled mode is bad. A scheduled job is one decode
    // application with a segment per schedule entry; every application of
    // a plain job has one segment.
    std::vector<RunningApp> apps;
    std::vector<app::DecodeApp::Mode> modes;
    if (job.schedule.empty()) {
      apps.reserve(job.apps.size());
      for (const AppSpec& s : job.apps) {
        RunningApp ra;
        ra.kind = s.kind;
        ra.segs.push_back(cache_.get(s.workload));
        apps.push_back(std::move(ra));
      }
    } else {
      RunningApp ra;
      for (const ModeSegment& s : job.schedule) ra.segs.push_back(cache_.get(s.workload));
      apps.push_back(std::move(ra));
      // The decode mode family: distinct mode names in first-seen order,
      // so the first segment's mode is the one the constructor applies.
      for (const ModeSegment& s : job.schedule) {
        bool seen = false;
        for (const app::DecodeApp::Mode& m : modes) seen = seen || m.first == s.mode;
        if (!seen) modes.push_back({s.mode, decodeModeConfig(s.mode)});
      }
    }
    const std::size_t segments = job.schedule.empty() ? 1 : job.schedule.size();

    const Clock::time_point tb = Clock::now();
    inst = std::make_unique<app::EclipseInstance>(app::InstanceParams::fromConfig(job.config));
    const double build_ms = msSince(tb);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.cold_builds;
      stats_.build_ms += build_ms;
    }

    // Supervision arms only now: preparation may legitimately block on
    // another worker's cache build, and an instance build is real work —
    // neither is a hang.
    if (job.supervise_ms > 0.0) {
      fl.beat();
      fl.supervised.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.supervised_jobs;
    }
    injectHostHang(fl);

    for (RunningApp& ra : apps) {
      const PreparedWorkload& w = *ra.segs.front();
      if (ra.kind == AppKind::Encode) {
        ra.enc = std::make_unique<app::EncodeApp>(*inst, w.frames, w.codec);
      } else if (modes.empty()) {
        ra.dec = std::make_unique<app::DecodeApp>(*inst, w.bitstream);
      } else {
        ra.dec = std::make_unique<app::DecodeApp>(*inst, w.bitstream, modes);
      }
    }

    const bool armed = !job.faults.faults.empty();
    if (armed) inst->armFaults(job.faults);
    if (job.watchdog_timeout > 0) inst->armWatchdogs(job.watchdog_timeout);

    // Run each segment to completion and verify it while its output is
    // still current, then transition live into the next segment's mode:
    // the application is never torn down mid-job.
    const sim::Cycle budget = budgetEnd(job);
    bool all_done = true;
    bool decode_exact = true;
    double min_psnr = std::numeric_limits<double>::infinity();
    for (std::size_t seg = 0; seg < segments; ++seg) {
      runToBudget(fl, *inst, budget);
      for (const RunningApp& ra : apps) all_done = all_done && ra.done();
      if (!all_done) break;
      if (job.verify) {
        for (RunningApp& ra : apps) {
          const PreparedWorkload& w = *ra.segs[seg];
          if (ra.dec) {
            const auto out = ra.dec->frames();
            bool ok = out.size() == w.golden.size();
            for (std::size_t i = 0; ok && i < out.size(); ++i) ok = out[i] == w.golden[i];
            decode_exact = decode_exact && ok;
          } else {
            media::Decoder check;
            min_psnr = std::min(min_psnr,
                                media::averagePsnr(w.frames, check.decode(ra.enc->bitstream())));
          }
        }
      }
      if (seg + 1 < segments) {
        // Only a scheduled job has a next segment: its one decode app.
        RunningApp& ra = apps.front();
        const app::TransitionStats st =
            ra.dec->switchSegment(job.schedule[seg + 1].mode, ra.segs[seg + 1]->bitstream);
        ++r.mode_switches;
        r.switch_mmio_writes += st.mmio_writes;
      }
    }
    // A fresh instance starts at cycle 0 with no event dispatched.
    r.sim_cycles = inst->simulator().now();
    r.sim_events = inst->simulator().eventsDispatched();
    r.status = all_done ? JobStatus::Completed : JobStatus::Incomplete;
    if (!all_done) r.quiescence = app::quiescenceName(inst->classifyQuiescence());

    // Measurements. A decode's macroblocks accumulate across its segments;
    // an unfinished application counts none.
    bool any_encode = false;
    for (RunningApp& ra : apps) {
      const app::AppHealth h = ra.handle().health();
      r.faults_latched += h.faults.size();
      r.stalls_latched += h.stalls.size();
      any_encode = any_encode || ra.enc != nullptr;
      if (!ra.done()) continue;
      if (ra.dec) {
        r.macroblocks += ra.dec->macroblocksDecoded();
        r.frames_dropped += ra.dec->framesDropped();
      } else {
        r.macroblocks += ra.segs.front()->macroblocks_per_clip;
      }
    }
    r.bit_exact = job.verify && all_done && decode_exact;
    r.psnr_db = any_encode && job.verify && all_done ? min_psnr : 0.0;
    if (armed) r.fault_triggers = inst->faults().triggers().size();
    r.cause = classifyRun(job, r, all_done, r.sim_cycles);
  } catch (const Abandoned&) {
    // Claimed away mid-run: the result is discarded by threadMain (claim
    // lost).
  } catch (const std::exception& e) {
    r.status = JobStatus::Error;
    r.cause = JobError::Config;
    r.error = e.what();
  }
  return r;
}

}  // namespace eclipse::farm
