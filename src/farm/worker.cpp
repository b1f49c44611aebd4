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

/// Simulated-cycle allowance for draining residual events after a job
/// (parked control loops, in-flight putspaces). Generous: a healthy
/// torn-down graph settles in a few hundred cycles.
constexpr sim::Cycle kSettleCap = 1'000'000;

/// Slice length of a supervised run: big enough that the heartbeat load
/// is negligible (a decode job is a handful of slices), small enough that
/// a heartbeat lands every few host milliseconds on any sane config.
constexpr sim::Cycle kBeatSlice = 32'768;

/// One application instantiated on the worker's instance for the current
/// job, kept alive across the run.
struct RunningApp {
  AppKind kind = AppKind::Decode;
  std::shared_ptr<const PreparedWorkload> w;
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
      // already retired the instance; this thread exits on `retired_`.
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

sim::Cycle Worker::budgetEnd(const Job& job, sim::Cycle c0) {
  sim::Cycle cap = job.max_cycles;
  if (job.deadline > 0 && (cap == 0 || job.deadline < cap)) cap = job.deadline;
  if (cap == 0 || c0 > sim::Simulator::kForever - cap) return sim::Simulator::kForever;
  return c0 + cap;
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

sim::Cycle Worker::runToBudget(InFlight& fl, sim::Cycle budget_end) {
  sim::Simulator& sim = inst_->simulator();
  // Unsupervised jobs take the original single-call path: zero overhead.
  if (!fl.supervised.load(std::memory_order_relaxed)) return inst_->run(budget_end);
  // Supervised: bounded slices with a heartbeat between them. Bit-identical
  // to the single call — Simulator::run(until) executes events *at* `until`
  // and a resumed run continues the same dispatch sequence, so the slice
  // boundaries are invisible to the simulation (asserted by the pin tests).
  sim::Cycle now = sim.now();
  for (;;) {
    const sim::Cycle next = budget_end - now > kBeatSlice ? now + kBeatSlice : budget_end;
    now = inst_->run(next);
    fl.beat();
    if (fl.claimed.load(std::memory_order_acquire)) throw Abandoned{};
    if (inst_->pendingApps() <= 0) break;
    if (now >= budget_end) break;
    if (sim.quiescent()) break;
  }
  return now;
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
    if (!job.schedule.empty()) {
      runScheduled(fl, r);
      return r;
    }

    // Workload preparation first (host-side; cache hit after the first
    // job with a given descriptor), so instance state is untouched if the
    // descriptor is degenerate.
    std::vector<std::shared_ptr<const PreparedWorkload>> prepared;
    prepared.reserve(job.apps.size());
    for (const AppSpec& s : job.apps) prepared.push_back(cache_.get(s.workload));

    acquireInstance(job, r);

    // Supervision arms only now: preparation may legitimately block on
    // another worker's cache build, and a cold instance build is real
    // work — neither is a hang.
    if (job.supervise_ms > 0.0) {
      fl.beat();
      fl.supervised.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.supervised_jobs;
    }
    injectHostHang(fl);

    sim::Simulator& sim = inst_->simulator();
    const sim::Cycle c0 = sim.now();
    const std::uint64_t e0 = sim.eventsDispatched();

    std::vector<RunningApp> apps;
    apps.reserve(job.apps.size());
    for (std::size_t i = 0; i < job.apps.size(); ++i) {
      RunningApp ra;
      ra.kind = job.apps[i].kind;
      ra.w = prepared[i];
      if (ra.kind == AppKind::Decode) {
        ra.dec = std::make_unique<app::DecodeApp>(*inst_, ra.w->bitstream);
      } else {
        ra.enc = std::make_unique<app::EncodeApp>(*inst_, ra.w->frames, ra.w->codec);
      }
      apps.push_back(std::move(ra));
    }

    const bool armed = !job.faults.faults.empty();
    if (armed) inst_->armFaults(job.faults);
    if (job.watchdog_timeout > 0) inst_->armWatchdogs(job.watchdog_timeout);

    const sim::Cycle end = runToBudget(fl, budgetEnd(job, c0));
    r.sim_cycles = end - c0;
    r.sim_events = sim.eventsDispatched() - e0;

    bool all_done = true;
    for (RunningApp& ra : apps) all_done = all_done && ra.done();
    r.status = all_done ? JobStatus::Completed : JobStatus::Incomplete;
    if (!all_done) r.quiescence = app::quiescenceName(inst_->classifyQuiescence());

    // Measurements and verification (health before teardown: the fault
    // and stall registers live in the rows teardown resets).
    bool decode_exact = true;
    double min_psnr = std::numeric_limits<double>::infinity();
    bool any_encode = false;
    for (RunningApp& ra : apps) {
      const app::AppHealth h = ra.handle().health();
      r.faults_latched += h.faults.size();
      r.stalls_latched += h.stalls.size();
      if (ra.kind == AppKind::Decode) {
        if (!ra.done()) {
          decode_exact = false;
          continue;
        }
        r.macroblocks += ra.dec->macroblocksDecoded();
        r.frames_dropped += ra.dec->framesDropped();
        if (job.verify) {
          const auto out = ra.dec->frames();
          bool ok = out.size() == ra.w->golden.size();
          for (std::size_t i = 0; ok && i < out.size(); ++i) ok = out[i] == ra.w->golden[i];
          decode_exact = decode_exact && ok;
        }
      } else {
        any_encode = true;
        if (!ra.done()) continue;
        r.macroblocks += ra.w->macroblocks_per_clip;
        if (job.verify) {
          media::Decoder check;
          const auto out = check.decode(ra.enc->bitstream());
          min_psnr = std::min(min_psnr, media::averagePsnr(ra.w->frames, out));
        }
      }
    }
    r.bit_exact = job.verify && all_done && decode_exact;
    r.psnr_db = any_encode && job.verify && all_done ? min_psnr : 0.0;
    if (armed) r.fault_triggers = inst_->faults().triggers().size();
    r.cause = classifyRun(job, r, all_done, r.sim_cycles);

    // Quiesce and tear down so the instance can be recycled. Anything
    // suspicious retires the instance instead — correctness over reuse.
    bool healthy = all_done && !armed && job.watchdog_timeout == 0 &&
                   r.faults_latched == 0 && r.stalls_latched == 0;
    const Clock::time_point tr = Clock::now();
    if (healthy) {
      if (!sim.quiescent()) inst_->run(sim.now() + kSettleCap);
      healthy = sim.quiescent();
      if (healthy) {
        for (RunningApp& ra : apps) ra.handle().teardown();
      }
    }
    retireOrRecycle(healthy);
    if (healthy) {
      const double recycle_ms = msSince(tr);
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.recycle_ms += recycle_ms;
    }
  } catch (const Abandoned&) {
    // Claimed away mid-run: the instance is mid-simulation and must not
    // be reused. The result is discarded by threadMain (claim lost).
    retireOrRecycle(false);
  } catch (const std::exception& e) {
    r.status = JobStatus::Error;
    r.cause = JobError::Config;
    r.error = e.what();
    retireOrRecycle(false);
  }
  return r;
}

void Worker::runScheduled(InFlight& fl, JobResult& r) {
  const Job& job = fl.pj.job;
  // Per-segment prepared workloads (host-side; the cache is shared, so a
  // schedule reusing one descriptor pays its preparation once).
  std::vector<std::shared_ptr<const PreparedWorkload>> segs;
  segs.reserve(job.schedule.size());
  for (const ModeSegment& s : job.schedule) segs.push_back(cache_.get(s.workload));

  // The decode mode family: distinct mode names in first-seen order, so
  // the first segment's mode is the one the constructor applies.
  std::vector<app::DecodeApp::Mode> modes;
  for (const ModeSegment& s : job.schedule) {
    bool seen = false;
    for (const app::DecodeApp::Mode& m : modes) seen = seen || m.first == s.mode;
    if (!seen) modes.push_back({s.mode, decodeModeConfig(s.mode)});
  }

  acquireInstance(job, r);

  if (job.supervise_ms > 0.0) {
    fl.beat();
    fl.supervised.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.supervised_jobs;
  }
  injectHostHang(fl);

  sim::Simulator& sim = inst_->simulator();
  const sim::Cycle c0 = sim.now();
  const std::uint64_t e0 = sim.eventsDispatched();

  const bool armed = !job.faults.faults.empty();
  if (armed) inst_->armFaults(job.faults);
  if (job.watchdog_timeout > 0) inst_->armWatchdogs(job.watchdog_timeout);

  app::DecodeApp dec(*inst_, segs.front()->bitstream, modes);

  const sim::Cycle budget = budgetEnd(job, c0);

  // Decode each segment to completion, verify it against its own golden
  // frames while they are still current, then transition live into the
  // next segment's mode — the application is never torn down mid-job.
  bool all_exact = true;
  bool completed = true;
  for (std::size_t i = 0; i < job.schedule.size(); ++i) {
    runToBudget(fl, budget);
    if (!dec.done()) {
      completed = false;
      break;
    }
    if (job.verify) {
      const auto out = dec.frames();
      bool ok = out.size() == segs[i]->golden.size();
      for (std::size_t f = 0; ok && f < out.size(); ++f) ok = out[f] == segs[i]->golden[f];
      all_exact = all_exact && ok;
    }
    if (i + 1 < job.schedule.size()) {
      const app::TransitionStats st =
          dec.switchSegment(job.schedule[i + 1].mode, segs[i + 1]->bitstream);
      ++r.mode_switches;
      r.switch_mmio_writes += st.mmio_writes;
    }
  }
  r.sim_cycles = sim.now() - c0;
  r.sim_events = sim.eventsDispatched() - e0;
  r.status = completed ? JobStatus::Completed : JobStatus::Incomplete;
  if (!completed) r.quiescence = app::quiescenceName(inst_->classifyQuiescence());

  const app::AppHealth h = dec.handle().health();
  r.faults_latched = h.faults.size();
  r.stalls_latched = h.stalls.size();
  r.macroblocks = dec.macroblocksDecoded();  // cumulative across segments
  r.frames_dropped = dec.framesDropped();
  r.bit_exact = job.verify && completed && all_exact;
  if (armed) r.fault_triggers = inst_->faults().triggers().size();
  r.cause = classifyRun(job, r, completed, r.sim_cycles);

  bool healthy = completed && !armed && job.watchdog_timeout == 0 &&
                 r.faults_latched == 0 && r.stalls_latched == 0;
  const Clock::time_point tr = Clock::now();
  if (healthy) {
    if (!sim.quiescent()) inst_->run(sim.now() + kSettleCap);
    healthy = sim.quiescent();
    if (healthy) dec.handle().teardown();
  }
  retireOrRecycle(healthy);
  if (healthy) {
    const double recycle_ms = msSince(tr);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.recycle_ms += recycle_ms;
  }
}

void Worker::acquireInstance(const Job& job, JobResult& r) {
  // Reuse the recycled instance only for an identical parameter shape.
  const std::string shape = job.config.toString();
  // Fault-armed jobs are fully isolated on both sides: they already retire
  // the instance afterwards (retireOrRecycle(false)), and they must also
  // *start* cold — FaultSpec::at_cycle windows (and bit-flip events) are
  // absolute simulator cycles, so running on a recycled instance whose
  // clock is already advanced would shift every injection window and break
  // the job-purity contract (retried storms would diverge per worker
  // history; the chaos gate pins this).
  const bool reuse = inst_ != nullptr && shape == shape_ && job.faults.faults.empty();
  if (reuse) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reused;
  } else {
    const Clock::time_point tb = Clock::now();
    inst_.reset();
    inst_ = std::make_unique<app::EclipseInstance>(app::InstanceParams::fromConfig(job.config));
    shape_ = shape;
    const double build_ms = msSince(tb);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.cold_builds;
    stats_.build_ms += build_ms;
  }
  r.reused_instance = reuse;
}

void Worker::retireOrRecycle(bool healthy) {
  if (healthy && inst_ != nullptr && inst_->recycle()) return;
  inst_.reset();
  shape_.clear();
}

}  // namespace eclipse::farm
