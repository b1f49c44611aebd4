// farm_driver — batch-serve simulation jobs across worker threads.
//
// Reads a job list (one job per line: a name followed by key=value
// fields), runs it through an eclipse::farm::Farm, and writes per-job
// results as CSV and/or JSON plus an aggregate summary. See
// tools/farm_jobs.example and README.md ("Batch serving") for the format.
//
// Exit status: 0 when every accepted job completed (and verified when
// verification was on), 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/sim/config.hpp"
#include "flag_number.hpp"

using namespace eclipse;

namespace {

void usage() {
  std::printf(
      "usage: farm_driver (--jobs FILE | --demo [N]) [options]\n"
      "  --jobs FILE    job list, one job per line (see tools/farm_jobs.example)\n"
      "  --demo [N]     built-in mixed list of N jobs (default 12)\n"
      "  --workers N    worker threads (default: hardware concurrency)\n"
      "  --queue N      queue capacity for admission control (default 64)\n"
      "  --retries N    default retry attempts per job, incl. the first (job lines\n"
      "                 override with retries=; default 1 = never retry)\n"
      "  --deadline N   default simulated-cycle deadline per job (deadline=; 0 = none)\n"
      "  --supervise-ms X  default hung-worker supervision timeout in wall-clock ms\n"
      "                    (supervise_ms=; 0 = unsupervised)\n"
      "  --submit-timeout-ms N  bounded-blocking admission: give up on a job\n"
      "                    whose queue slot does not open within N ms instead of\n"
      "                    blocking (0 = block forever, the default)\n"
      "  --csv FILE     write per-job results as CSV\n"
      "  --json FILE    write per-job results + farm metrics as JSON\n"
      "  --quiet        suppress the per-job progress lines\n"
      "\n"
      "job line:   <name> [key=value ...]   (grammar: farm::parseJob)\n"
      "  kind=decode|encode|decode+decode+...   applications on one instance\n"
      "  width= height= frames= seed= qscale= gop=N,M detail= motion= noise=\n"
      "  priority=high|normal|low   max_cycles=N   verify=0|1\n"
      "  retries=N   backoff_ms=X   deadline=N   supervise_ms=X\n"
      "  storm=hang|corrupt   storm_seed=N   one seeded injected fault\n"
      "  watchdog=N                 per-shell watchdog timeout in cycles\n"
      "  hang_ms=X   hang_attempts=N   host-side worker-hang injection\n"
      "  config:KEY=VALUE           instance parameter (e.g. config:sram.size_bytes=65536)\n"
      "  repeat=N                   N copies of the line, named <name>-0..N-1\n"
      "\n"
      "exit status: 0 only when every job ends Completed (quarantined, deadline-\n"
      "exceeded, stalled or errored jobs all fail the run).\n");
}

std::vector<farm::Job> demoJobs(int n, const farm::Job& base) {
  std::vector<farm::Job> jobs;
  for (int i = 0; i < n; ++i) {
    farm::Job j = base;
    j.name = "demo-" + std::to_string(i);
    switch (i % 4) {
      case 0:  // pinned decode
        break;
      case 1:  // decode of a different clip
        j.apps[0].workload.qscale = 20;
        break;
      case 2:  // encode
        j.apps[0].kind = farm::AppKind::Encode;
        break;
      case 3:  // dual-decode mix on a larger SRAM
        j.apps.push_back(farm::AppSpec{});
        j.config.set("sram.size_bytes", std::int64_t{64 * 1024});
        break;
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void writeCsv(const std::string& path, const std::vector<farm::JobResult>& results) {
  std::ofstream os(path);
  os << "id,name,tenant,status,cause,attempts,sim_cycles,sim_events,macroblocks,bit_exact,"
        "psnr_db,faults,stalls,worker,wall_ms,latency_ms,error\n";
  for (const auto& r : results) {
    os << r.id << ',' << r.name << ',' << r.tenant << ',' << farm::jobStatusName(r.status) << ','
       << farm::jobErrorName(r.cause) << ',' << r.attempts << ',' << r.sim_cycles
       << ',' << r.sim_events << ',' << r.macroblocks << ',' << (r.bit_exact ? 1 : 0) << ','
       << r.psnr_db << ',' << r.faults_latched << ',' << r.stalls_latched << ',' << r.worker
       << ',' << r.wall_ms << ',' << r.latency_ms << ',' << r.error << '\n';
  }
}

/// Submission-to-result latency percentiles over the collected results.
struct Latency {
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;

  explicit Latency(const std::vector<farm::JobResult>& results) {
    std::vector<double> sorted;
    sorted.reserve(results.size());
    for (const farm::JobResult& r : results) sorted.push_back(r.latency_ms);
    std::sort(sorted.begin(), sorted.end());
    // Linear interpolation between the two nearest ranks.
    auto at = [&sorted](double p) {
      if (sorted.empty()) return 0.0;
      const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
    };
    p50_ms = at(50);
    p95_ms = at(95);
    p99_ms = at(99);
  }
};

void writeJson(const std::string& path, const std::vector<farm::JobResult>& results,
               const farm::FarmMetrics& m, const Latency& lat, int workers) {
  std::ofstream os(path);
  os << "{\n  \"schema\": \"eclipse-farm-results-v1\",\n";
  os << "  \"workers\": " << workers << ",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"id\": " << r.id << ", \"name\": \"" << jsonEscape(r.name)
       << (r.tenant.empty() ? "" : "\", \"tenant\": \"" + jsonEscape(r.tenant))
       << "\", \"status\": \"" << farm::jobStatusName(r.status)
       << "\", \"cause\": \"" << farm::jobErrorName(r.cause)
       << "\", \"attempts\": " << r.attempts
       << ", \"sim_cycles\": " << r.sim_cycles << ", \"sim_events\": " << r.sim_events
       << ", \"macroblocks\": " << r.macroblocks
       << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false")
       << ", \"psnr_db\": " << r.psnr_db << ", \"worker\": " << r.worker
       << ", \"wall_ms\": " << r.wall_ms << ", \"latency_ms\": " << r.latency_ms
       << (r.error.empty() ? "" : ", \"error\": \"" + jsonEscape(r.error) + "\"") << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"metrics\": {\"accepted\": " << m.accepted << ", \"rejected\": " << m.rejected
     << ", \"completed\": " << m.completed << ", \"failed\": " << m.failed
     << ", \"deadline_exceeded\": " << m.deadline_exceeded
     << ", \"fault_latched\": " << m.fault_latched << ", \"worker_lost\": " << m.worker_lost
     << ", \"quarantined\": " << m.quarantined << ", \"retried\": " << m.retried
     << ", \"retry_succeeded\": " << m.retry_succeeded
     << ", \"workers_replaced\": " << m.workers_replaced
     << ", \"jobs_per_s\": " << m.jobs_per_s << ", \"p50_ms\": " << lat.p50_ms
     << ", \"p95_ms\": " << lat.p95_ms << ", \"p99_ms\": " << lat.p99_ms << "},\n";
  // Per-lane *now* gauges: 0/0 after a drained run, but live snapshots
  // (e.g. from the serving tier's telemetry) show depth + head age here.
  static const char* kLaneNames[3] = {"high", "normal", "low"};
  os << "  \"lanes\": [";
  for (int i = 0; i < 3; ++i) {
    const farm::LaneGauge& g = m.lanes[static_cast<std::size_t>(i)];
    os << (i > 0 ? ", " : "") << "{\"lane\": \"" << kLaneNames[i]
       << "\", \"depth\": " << g.depth << ", \"oldest_ms\": " << g.oldest_ms << "}";
  }
  os << "]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string jobs_path, csv_path, json_path;
  int demo = 0;
  int submit_timeout_ms = 0;
  bool quiet = false;
  farm::Job base;  // CLI defaults; a job line's own keys override them
  farm::FarmOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--jobs") {
      jobs_path = next();
    } else if (a == "--demo") {
      demo = i + 1 < argc && argv[i + 1][0] != '-' ? flagNumber<int>(a, argv[++i]) : 12;
    } else if (a == "--workers") {
      opts.workers = flagNumber<int>(a, next());
    } else if (a == "--queue") {
      opts.queue_capacity = flagNumber<std::size_t>(a, next());
    } else if (a == "--retries") {
      base.retry.max_attempts = flagNumber<int>(a, next());
    } else if (a == "--deadline") {
      base.deadline = flagNumber<std::uint64_t>(a, next());
    } else if (a == "--supervise-ms") {
      base.supervise_ms = flagNumber<double>(a, next());
    } else if (a == "--submit-timeout-ms") {
      submit_timeout_ms = flagNumber<int>(a, next());
    } else if (a == "--csv") {
      csv_path = next();
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      usage();
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }
  if (jobs_path.empty() && demo == 0) {
    usage();
    return 2;
  }

  std::vector<farm::Job> jobs;
  if (!jobs_path.empty()) {
    std::ifstream is(jobs_path);
    if (!is) {
      std::fprintf(stderr, "farm_driver: cannot open %s\n", jobs_path.c_str());
      return 2;
    }
    std::string line, err;
    int line_no = 0;
    while (std::getline(is, line)) {
      ++line_no;
      int repeat = 1;  // farm_driver's own key: N copies named <name>-0..N-1
      auto repeatKey = [&repeat](const std::string& key, const std::string& val) {
        if (key != "repeat") return false;
        repeat = sim::parseNumber<int>(val).value();  // a bad value throws
        return true;
      };
      const std::optional<farm::Job> job = farm::parseJob(line, err, base, repeatKey);
      if (!err.empty()) {
        std::fprintf(stderr, "farm_driver: %s:%d: %s\n", jobs_path.c_str(), line_no,
                     err.c_str());
        return 2;
      }
      if (!job) continue;  // blank or comment
      for (int k = 0; k < repeat; ++k) {
        jobs.push_back(*job);
        if (repeat > 1) jobs.back().name += "-" + std::to_string(k);
      }
    }
  } else {
    jobs = demoJobs(demo, base);
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "farm_driver: no jobs\n");
    return 2;
  }

  farm::Farm f(opts);
  const int workers = f.workerCount();
  std::printf("farm_driver: %zu job(s) on %d worker(s), queue capacity %zu\n", jobs.size(),
              workers, opts.queue_capacity);

  std::vector<std::future<farm::JobResult>> futs;
  bool all_ok = true;
  if (submit_timeout_ms > 0) {
    // Bounded-blocking admission: a job that cannot get a queue slot in
    // time is dropped (and fails the run) instead of stalling the feed.
    futs.reserve(jobs.size());
    for (auto& job : jobs) {
      const std::string name = job.name;
      farm::SubmitTicket t =
          f.submitFor(std::move(job), std::chrono::milliseconds(submit_timeout_ms));
      if (t.admission == farm::Admission::Accepted) {
        futs.push_back(std::move(t.result));
      } else {
        all_ok = false;
        std::printf("  [%s] %-16s admission timed out after %d ms\n",
                    farm::admissionName(t.admission), name.c_str(), submit_timeout_ms);
      }
    }
    jobs.clear();
  } else {
    futs = f.submitBatch(std::move(jobs));
  }
  std::vector<farm::JobResult> results;
  results.reserve(futs.size());
  for (auto& fut : futs) {
    farm::JobResult r = fut.get();
    // Strict: any terminal state other than a clean Completed (quarantine,
    // deadline, stall, latched fault, config error) fails the run.
    const bool ok = r.status == farm::JobStatus::Completed && r.error.empty() &&
                    r.faults_latched == 0;
    all_ok = all_ok && ok;
    if (!quiet) {
      std::printf("  [%s] %-16s %10llu cycles %8llu MBs  worker %d attempt%s %d%s%s%s\n",
                  farm::jobStatusName(r.status), r.name.c_str(),
                  static_cast<unsigned long long>(r.sim_cycles),
                  static_cast<unsigned long long>(r.macroblocks), r.worker,
                  r.attempts == 1 ? "" : "s", r.attempts,
                  r.cause == farm::JobError::None ? "" : " cause: ",
                  r.cause == farm::JobError::None ? "" : farm::jobErrorName(r.cause),
                  r.error.empty() ? "" : " error: ");
      if (!quiet && !r.error.empty()) std::printf("      %s\n", r.error.c_str());
    }
    results.push_back(std::move(r));
  }

  const farm::FarmMetrics m = f.metrics();
  const Latency lat(results);
  std::printf(
      "summary: %llu completed, %llu failed, %llu rejected | %.1f jobs/s | "
      "latency p50 %.1f ms p95 %.1f ms p99 %.1f ms\n",
      static_cast<unsigned long long>(m.completed), static_cast<unsigned long long>(m.failed),
      static_cast<unsigned long long>(m.rejected), m.jobs_per_s, lat.p50_ms, lat.p95_ms,
      lat.p99_ms);
  std::printf(
      "causes: %llu deadline-exceeded, %llu fault-latched, %llu worker-lost, "
      "%llu quarantined | %llu retried, %llu retry-succeeded, %llu workers replaced\n",
      static_cast<unsigned long long>(m.deadline_exceeded),
      static_cast<unsigned long long>(m.fault_latched),
      static_cast<unsigned long long>(m.worker_lost),
      static_cast<unsigned long long>(m.quarantined),
      static_cast<unsigned long long>(m.retried),
      static_cast<unsigned long long>(m.retry_succeeded),
      static_cast<unsigned long long>(m.workers_replaced));
  for (const farm::QuarantineRecord& q : f.quarantined()) {
    std::printf("quarantined: job %llu (%s) after %d attempt(s), %d worker(s) killed\n",
                static_cast<unsigned long long>(q.id), q.name.c_str(), q.attempts,
                q.worker_kills);
  }

  if (!csv_path.empty()) writeCsv(csv_path, results);
  if (!json_path.empty()) writeJson(json_path, results, m, lat, workers);
  return all_ok ? 0 : 1;
}
