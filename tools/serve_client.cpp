// serve_client — load generator / e2e driver for eclipse_serve.
//
// Submits jobs over the line protocol with open-loop Poisson arrivals
// (seeded, wall-clock-free jitter: exponential inter-arrival gaps from a
// splitmix64 stream) spread round-robin across one connection per tenant,
// then collects every result and prints per-tenant latency.
//
// --spawn PATH runs the whole serving lifecycle in one process: fork/exec
// the daemon on an ephemeral port, drive the load, SIGTERM it mid-flight,
// and verify the rolling drain delivered every accepted result and the
// daemon exited 0 — the CI smoke leg in a single command.
//
// Exit status: 0 when every accepted job returned a result (and, with
// --spawn, the daemon drained cleanly).

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "eclipse/serve/client.hpp"
#include "eclipse/serve/histogram.hpp"
#include "eclipse/sim/config.hpp"
#include "eclipse/sim/prng.hpp"
#include "flag_number.hpp"

using namespace eclipse;

namespace {

void usage() {
  std::printf(
      "usage: serve_client [options]\n"
      "  --host H          server host (default 127.0.0.1)\n"
      "  --port N          server port (required unless --spawn)\n"
      "  --tenant NAME     add a tenant connection (repeatable;\n"
      "                    default: alice bob carol)\n"
      "  --jobs N          total submissions, round-robin over tenants (default 50)\n"
      "  --rate X          open-loop Poisson arrival rate in jobs/s\n"
      "                    (0 = back-to-back; default 0)\n"
      "  --seed N          arrival-jitter seed (default 1)\n"
      "  --spec S          job line for every submission (default: a small decode)\n"
      "  --deadline-ms X   append deadline_ms=X to every spec (lane promotion)\n"
      "  --metrics         fetch and print /metrics before disconnecting\n"
      "  --spawn PATH      fork/exec the eclipse_serve binary at PATH on an\n"
      "                    ephemeral port, drive it, SIGTERM mid-flight, check\n"
      "                    the drain (ignores --host/--port)\n"
      "  --quiet           per-result lines off\n");
}

/// Exponential inter-arrival gap for a Poisson process at `rate` jobs/s.
double expGapMs(std::uint64_t& state, double rate) {
  const double u =
      (static_cast<double>(sim::splitmix64(state) >> 11) + 1.0) / 9007199254740993.0;  // (0,1]
  return -std::log(u) / rate * 1000.0;
}

struct SpawnedServer {
  pid_t pid = -1;
  int out_fd = -1;  ///< daemon stdout (read the port line; drain it after)
  std::uint16_t port = 0;
};

/// fork/exec the daemon with --port 0 and parse the bound port from its
/// startup line.
bool spawnServer(const std::string& path, SpawnedServer& out) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    ::execl(path.c_str(), path.c_str(), "--port", "0", "--workers", "2", "--quiet",
            static_cast<char*>(nullptr));
    std::perror("serve_client: exec eclipse_serve");
    _exit(127);
  }
  ::close(pipefd[1]);
  out.pid = pid;
  out.out_fd = pipefd[0];

  // Read the "listening on 127.0.0.1:PORT" line.
  std::string line;
  char c;
  while (::read(out.out_fd, &c, 1) == 1) {
    if (c == '\n') {
      const auto pos = line.rfind("127.0.0.1:");
      if (pos != std::string::npos) {
        const std::string_view rest = std::string_view(line).substr(pos + 10);
        out.port = sim::parseNumber<std::uint16_t>(rest.substr(0, rest.find(' '))).value_or(0);
        return out.port != 0;
      }
      line.clear();
    } else {
      line += c;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string spec = "clip width=48 height=32 frames=2";
  std::string spawn_path;
  std::vector<std::string> tenants;
  int port = 0, jobs = 50;
  double rate = 0.0, deadline_ms = 0.0;
  std::uint64_t seed = 1;
  bool quiet = false, want_metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--host") {
      host = next();
    } else if (a == "--port") {
      port = flagNumber<std::uint16_t>(a, next());
    } else if (a == "--tenant") {
      tenants.emplace_back(next());
    } else if (a == "--jobs") {
      jobs = flagNumber<int>(a, next());
    } else if (a == "--rate") {
      rate = flagNumber<double>(a, next());
    } else if (a == "--seed") {
      seed = flagNumber<std::uint64_t>(a, next());
    } else if (a == "--spec") {
      spec = next();
    } else if (a == "--deadline-ms") {
      deadline_ms = flagNumber<double>(a, next());
    } else if (a == "--metrics") {
      want_metrics = true;
    } else if (a == "--spawn") {
      spawn_path = next();
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      usage();
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }
  if (tenants.empty()) tenants = {"alice", "bob", "carol"};

  SpawnedServer daemon;
  if (!spawn_path.empty()) {
    if (!spawnServer(spawn_path, daemon)) {
      std::fprintf(stderr, "serve_client: failed to spawn %s\n", spawn_path.c_str());
      return 1;
    }
    host = "127.0.0.1";
    port = daemon.port;
    std::printf("serve_client: spawned eclipse_serve pid %d on port %d\n",
                static_cast<int>(daemon.pid), port);
  }
  if (port <= 0) {
    usage();
    return 2;
  }

  int exit_code = 0;
  {
    std::vector<serve::Client> clients(tenants.size());
    try {
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        clients[i].connect(host, static_cast<std::uint16_t>(port), tenants[i]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_client: %s\n", e.what());
      return 1;
    }

    std::string full_spec = spec;
    if (deadline_ms > 0.0) full_spec += " deadline_ms=" + std::to_string(deadline_ms);

    // Open-loop submission: the arrival clock never waits for results.
    std::vector<std::uint64_t> accepted(tenants.size(), 0), rejected(tenants.size(), 0);
    std::uint64_t jitter = seed;
    const auto t0 = std::chrono::steady_clock::now();
    for (int n = 0; n < jobs; ++n) {
      const std::size_t c = static_cast<std::size_t>(n) % tenants.size();
      try {
        const auto s = clients[c].submit(full_spec + " seed=" + std::to_string(n % 4));
        if (s.accepted) {
          ++accepted[c];
        } else {
          ++rejected[c];
          if (!quiet)
            std::printf("  [rejected] %s #%llu: %s %s\n", tenants[c].c_str(),
                        static_cast<unsigned long long>(s.req_id),
                        serve::rejectReasonName(s.reason), s.detail.c_str());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_client: submit failed: %s\n", e.what());
        return 1;
      }
      if (rate > 0.0 && n + 1 < jobs) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(expGapMs(jitter, rate)));
      }
    }

    // Mid-flight drain test: signal the daemon while results are pending.
    // The rolling drain must still deliver every accepted result below.
    if (daemon.pid > 0) {
      std::printf("serve_client: SIGTERM with results still in flight...\n");
      ::kill(daemon.pid, SIGTERM);
    }

    std::uint64_t results = 0, completed = 0;
    serve::Histogram latency;
    std::vector<serve::Histogram> per_tenant(tenants.size());
    try {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        for (const serve::WireResult& r : clients[c].awaitAll()) {
          ++results;
          if (r.status == farm::JobStatus::Completed) ++completed;
          latency.record(r.serve_ms);
          per_tenant[c].record(r.serve_ms);
          if (!quiet)
            std::printf("  [%s] %s #%llu %s\n", farm::jobStatusName(r.status),
                        tenants[c].c_str(), static_cast<unsigned long long>(r.req_id),
                        serve::formatResultLine(r).c_str());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_client: awaiting results: %s\n", e.what());
      exit_code = 1;
    }

    if (want_metrics && exit_code == 0 && daemon.pid < 0) {
      try {
        std::printf("%s", clients[0].metricsText().c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_client: metrics: %s\n", e.what());
      }
    }

    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::uint64_t total_accepted = 0, total_rejected = 0;
    for (std::size_t c = 0; c < tenants.size(); ++c) {
      total_accepted += accepted[c];
      total_rejected += rejected[c];
      std::printf("tenant %-12s accepted=%llu rejected=%llu p50=%.1fms p95=%.1fms p99=%.1fms\n",
                  tenants[c].c_str(), static_cast<unsigned long long>(accepted[c]),
                  static_cast<unsigned long long>(rejected[c]), per_tenant[c].percentile(0.5),
                  per_tenant[c].percentile(0.95), per_tenant[c].percentile(0.99));
    }
    std::printf("summary: %llu submitted, %llu accepted, %llu rejected, %llu results "
                "(%llu completed) in %.2fs | p50 %.1f ms p95 %.1f ms p99 %.1f ms\n",
                static_cast<unsigned long long>(jobs),
                static_cast<unsigned long long>(total_accepted),
                static_cast<unsigned long long>(total_rejected),
                static_cast<unsigned long long>(results),
                static_cast<unsigned long long>(completed), elapsed_s, latency.percentile(0.5),
                latency.percentile(0.95), latency.percentile(0.99));

    // Zero loss: every accepted job must have produced a result.
    if (results != total_accepted) {
      std::fprintf(stderr, "serve_client: LOST RESULTS: accepted=%llu results=%llu\n",
                   static_cast<unsigned long long>(total_accepted),
                   static_cast<unsigned long long>(results));
      exit_code = 1;
    }
  }  // clients disconnect here

  if (daemon.pid > 0) {
    // Drain the daemon's remaining stdout (its drained-summary lines), then
    // require a clean exit: 0 means its drain also saw zero dropped results.
    char buf[4096];
    ssize_t k;
    while ((k = ::read(daemon.out_fd, buf, sizeof buf)) > 0) {
      ::fwrite(buf, 1, static_cast<std::size_t>(k), stdout);
    }
    ::close(daemon.out_fd);
    int status = 0;
    ::waitpid(daemon.pid, &status, 0);
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::printf("serve_client: daemon %s\n", clean ? "drained cleanly (exit 0)" : "FAILED");
    if (!clean) exit_code = 1;
  }
  return exit_code;
}
