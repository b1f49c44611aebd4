// eclipse_serve — the network-facing serving daemon (DESIGN §15).
//
// Listens on loopback, speaks the line protocol (HELLO / SUBMIT / PING /
// QUIT / GET /metrics; serve::Client, nc and curl all use it), and serves
// submitted jobs through the multi-tenant QoS dispatcher over an
// eclipse::farm::Farm.
//
// Signals:
//   SIGTERM / SIGINT  rolling drain: stop admitting, finish every accepted
//                     job, flush its result to its connection, exit.
//   SIGHUP            reload --config (tenant quotas / worker count) live.
//
// Exit status: 0 only when the drain lost nothing — every accepted job
// delivered its result to a still-connected client.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eclipse/serve/server.hpp"
#include "flag_number.hpp"

using namespace eclipse;

namespace {

volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_reload = 0;

void onDrainSignal(int) { g_drain = 1; }
void onReloadSignal(int) { g_reload = 1; }

void usage() {
  std::printf(
      "usage: eclipse_serve [options]\n"
      "  --port N            TCP port on 127.0.0.1 (default 0 = ephemeral;\n"
      "                      the bound port is printed on startup)\n"
      "  --workers N         farm worker threads (default: hardware concurrency)\n"
      "  --queue N           farm queue capacity (default 64)\n"
      "  --tenant SPEC       register a tenant: name[:rate=X,burst=X,quota=N,\n"
      "                      pending=N,weight=X,policy=shed|queue]; repeatable\n"
      "  --default SPEC      QoS template for auto-registered tenants\n"
      "                      (fields only, e.g. rate=20,quota=2,policy=shed)\n"
      "  --no-auto-register  reject jobs from unregistered tenants\n"
      "  --promote-slack-ms X  deadline slack threshold for lane promotion\n"
      "                        (default 100)\n"
      "  --max-connections N   accepted-connection bound (default 64)\n"
      "  --accept-backlog N    kernel accept backlog (default 16)\n"
      "  --config FILE       config file (reloaded on SIGHUP): lines\n"
      "                      'workers N', 'tenant SPEC', 'default FIELDS',\n"
      "                      '#' comments\n"
      "  --quiet             suppress the periodic status line\n");
}

/// Parses the config file into a reload payload (tenants + workers).
/// Startup also applies 'workers' as the farm size.
bool parseConfigFile(const std::string& path, serve::ReloadConfig& out,
                     serve::TenantConfig* default_tenant, std::string& err) {
  std::ifstream is(path);
  if (!is) {
    err = "cannot open " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd) || cmd[0] == '#') continue;
    if (cmd == "workers") {
      if (!(ls >> out.workers) || out.workers < 1) {
        err = path + ":" + std::to_string(line_no) + ": bad worker count";
        return false;
      }
    } else if (cmd == "tenant") {
      std::string spec;
      ls >> spec;
      serve::TenantConfig cfg;
      std::string terr;
      if (!serve::parseTenantSpec(spec, cfg, terr)) {
        err = path + ":" + std::to_string(line_no) + ": " + terr;
        return false;
      }
      out.tenants.push_back(std::move(cfg));
    } else if (cmd == "default") {
      std::string fields;
      ls >> fields;
      serve::TenantConfig cfg;
      std::string terr;
      if (!serve::parseTenantSpec("default:" + fields, cfg, terr)) {
        err = path + ":" + std::to_string(line_no) + ": " + terr;
        return false;
      }
      if (default_tenant != nullptr) *default_tenant = cfg;
    } else {
      err = path + ":" + std::to_string(line_no) + ": unknown directive " + cmd;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions opts;
  opts.default_tenant.name = "default";
  std::string config_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::string err;
    if (a == "--port") {
      opts.port = flagNumber<std::uint16_t>(a, next());
    } else if (a == "--workers") {
      opts.farm.workers = flagNumber<int>(a, next());
    } else if (a == "--queue") {
      opts.farm.queue_capacity = flagNumber<std::size_t>(a, next());
    } else if (a == "--tenant") {
      serve::TenantConfig cfg;
      if (!serve::parseTenantSpec(next(), cfg, err)) {
        std::fprintf(stderr, "eclipse_serve: %s\n", err.c_str());
        return 2;
      }
      opts.tenants.push_back(std::move(cfg));
    } else if (a == "--default") {
      if (!serve::parseTenantSpec(std::string("default:") + next(), opts.default_tenant, err)) {
        std::fprintf(stderr, "eclipse_serve: %s\n", err.c_str());
        return 2;
      }
    } else if (a == "--no-auto-register") {
      opts.auto_register = false;
    } else if (a == "--promote-slack-ms") {
      opts.promote_slack_ms = flagNumber<double>(a, next());
    } else if (a == "--max-connections") {
      opts.max_connections = flagNumber<int>(a, next());
    } else if (a == "--accept-backlog") {
      opts.accept_backlog = flagNumber<int>(a, next());
    } else if (a == "--config") {
      config_path = next();
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      usage();
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }

  if (!config_path.empty()) {
    serve::ReloadConfig file_cfg;
    std::string err;
    if (!parseConfigFile(config_path, file_cfg, &opts.default_tenant, err)) {
      std::fprintf(stderr, "eclipse_serve: %s\n", err.c_str());
      return 2;
    }
    if (file_cfg.workers > 0) opts.farm.workers = file_cfg.workers;
    for (auto& t : file_cfg.tenants) opts.tenants.push_back(std::move(t));
  }

  struct sigaction sa {};
  sa.sa_handler = onDrainSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = onReloadSignal;
  sigaction(SIGHUP, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  serve::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eclipse_serve: %s\n", e.what());
    return 1;
  }
  // serve_client --spawn parses this line for the (possibly ephemeral) port.
  std::printf("eclipse_serve: listening on 127.0.0.1:%u (%d workers)\n",
              static_cast<unsigned>(server.port()), server.farm().workerCount());
  std::fflush(stdout);

  int status_tick = 0;
  while (g_drain == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (g_reload != 0) {
      g_reload = 0;
      if (config_path.empty()) {
        std::printf("eclipse_serve: SIGHUP with no --config; ignored\n");
      } else {
        serve::ReloadConfig cfg;
        std::string err;
        if (!parseConfigFile(config_path, cfg, nullptr, err)) {
          std::fprintf(stderr, "eclipse_serve: reload failed: %s\n", err.c_str());
        } else {
          server.reload(cfg);
          std::printf("eclipse_serve: reloaded %s (%zu tenant(s)%s)\n", config_path.c_str(),
                      cfg.tenants.size(),
                      cfg.workers > 0 ? (", workers=" + std::to_string(cfg.workers)).c_str()
                                      : "");
        }
      }
      std::fflush(stdout);
    }
    if (!quiet && ++status_tick % 100 == 0) {  // every ~10 s
      const farm::FarmMetrics m = server.farm().metrics();
      std::printf("eclipse_serve: %llu completed, %llu failed, %zu queued, %d conn(s)\n",
                  static_cast<unsigned long long>(m.completed),
                  static_cast<unsigned long long>(m.failed), m.queue_depth,
                  server.connectionCount());
      std::fflush(stdout);
    }
  }

  std::printf("eclipse_serve: draining...\n");
  std::fflush(stdout);
  server.shutdown();  // finishes + flushes every accepted job

  const farm::FarmMetrics m = server.farm().metrics();
  const std::uint64_t dropped = server.resultsDropped();
  std::printf("eclipse_serve: drained. accepted=%llu completed=%llu failed=%llu dropped=%llu\n",
              static_cast<unsigned long long>(m.accepted),
              static_cast<unsigned long long>(m.completed),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(dropped));
  for (const serve::TenantStats& t : server.dispatcher().tenantStats()) {
    std::printf("  tenant %-12s admitted=%llu shed=%llu completed=%llu failed=%llu "
                "promoted=%llu p50=%.1fms p95=%.1fms p99=%.1fms\n",
                t.config.name.c_str(), static_cast<unsigned long long>(t.admitted),
                static_cast<unsigned long long>(t.shed()),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.promoted), t.latency.percentile(0.5),
                t.latency.percentile(0.95), t.latency.percentile(0.99));
  }
  std::fflush(stdout);
  return dropped == 0 ? 0 : 1;
}
