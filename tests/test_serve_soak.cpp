// Serving-tier soak (ctest -L soak; DESIGN §15 over §14).
//
// A chaos tenant submits seeded fault storms (task hangs, payload
// corruption through the PR-4 injector against per-shell watchdogs) and
// host-side worker hangs over the wire, with retries armed — while clean
// tenants stream the pinned reference decode through the same server. The
// properties under test:
//   * every served chaos result is bit-identical in all simulated fields
//     (and terminal status) to its unarmed 1-worker in-process oracle —
//     the serving tier adds nothing to the §14 determinism story;
//   * the clean tenants land exactly on the suite-wide decode pin, every
//     single job, no matter what the chaos tenant does to the workers;
//   * the quarantine ledger ends empty (hang-once jobs recover; storms
//     are simulation-side) and the drain loses nothing.
// Margins are generous: this file also runs on the ThreadSanitizer leg.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/serve/client.hpp"
#include "eclipse/serve/server.hpp"

#include "decode_pin.hpp"

using namespace eclipse;

namespace {

/// Simulated fields under the determinism contract.
struct SimFields {
  farm::JobStatus status;
  sim::Cycle cycles;
  std::uint64_t events, macroblocks;
  bool bit_exact;
  std::uint64_t faults, stalls, frames_dropped;
  std::string quiescence;
  bool operator==(const SimFields&) const = default;
};

SimFields fieldsOf(const farm::JobResult& r) {
  return {r.status,         r.sim_cycles,     r.sim_events,     r.macroblocks, r.bit_exact,
          r.faults_latched, r.stalls_latched, r.frames_dropped, r.quiescence};
}

SimFields fieldsOf(const serve::WireResult& r) {
  return {r.status,         static_cast<sim::Cycle>(r.sim_cycles),
          r.sim_events,     r.macroblocks,
          r.bit_exact,      r.faults_latched,
          r.stalls_latched, r.frames_dropped,
          r.quiescence};
}

}  // namespace

TEST(ServeSoak, ChaosTenantOverTheWireMatchesOraclesAndStarvesNobody) {
  // The same (seed, kind) -> spec derivation the farm soak uses lives in
  // the job-line grammar (storm= / storm_seed=), so the wire spec and the
  // in-process oracle build the *same* Job value by construction.
  const std::uint64_t seeds[] = {11, 23};
  std::vector<std::string> chaos_specs;
  for (std::uint64_t seed : seeds) {
    const std::string s = std::to_string(seed);
    chaos_specs.push_back("storm-hang-s" + s + " storm=hang storm_seed=" + s +
                          " watchdog=20000 max_cycles=800000 retries=2 backoff_ms=50");
    chaos_specs.push_back("storm-corrupt-s" + s + " storm=corrupt storm_seed=" + s +
                          " watchdog=20000 max_cycles=800000 retries=2 backoff_ms=50");
    chaos_specs.push_back("hang-once-s" + s +
                          " hang_ms=5000 hang_attempts=1 supervise_ms=2000 retries=2");
  }
  const int clean_jobs = 6;

  // Oracle pass: each chaos spec parsed, then *disarmed* (no retries, no
  // host supervision, no injected worker hang — exactly the farm soak's
  // clean-first-run reference) on an unarmed 1-worker farm.
  auto cache = std::make_shared<farm::WorkloadCache>();
  std::map<std::string, SimFields> oracle;
  {
    farm::FarmOptions fo;
    fo.workers = 1;
    fo.queue_capacity = chaos_specs.size() + 1;
    fo.cache = cache;
    farm::Farm f(fo);
    for (const std::string& spec : chaos_specs) {
      std::string err;
      std::optional<farm::Job> job = farm::parseJob(spec, err);
      ASSERT_TRUE(job) << spec << ": " << err;
      farm::Job o = std::move(*job);
      const std::string name = o.name;
      o.retry = farm::RetryPolicy{};
      o.supervise_ms = 0.0;
      o.chaos = farm::HostHangSpec{};
      oracle.emplace(name, fieldsOf(f.submitWait(std::move(o)).get()));
    }
  }

  // Serve pass: chaos and clean tenants share one server. The chaos
  // tenant's quota keeps it to a bounded worker share even while it is
  // busy killing them.
  serve::ServeOptions so;
  so.farm.workers = 3;
  so.farm.queue_capacity = 32;
  so.farm.cache = cache;
  serve::TenantConfig chaos_cfg;
  chaos_cfg.name = "chaos";
  chaos_cfg.max_inflight = 2;
  chaos_cfg.max_pending = 32;
  serve::TenantConfig clean_cfg;
  clean_cfg.name = "clean";
  clean_cfg.max_inflight = 2;
  clean_cfg.max_pending = 32;
  clean_cfg.weight = 2.0;
  so.tenants = {chaos_cfg, clean_cfg};
  serve::Server server(so);
  server.start();

  serve::Client chaos, clean;
  chaos.connect("127.0.0.1", server.port(), "chaos");
  clean.connect("127.0.0.1", server.port(), "clean");

  std::map<std::uint64_t, std::string> chaos_sent;
  for (const std::string& spec : chaos_specs) {
    const auto s = chaos.submit(spec);
    ASSERT_TRUE(s.accepted) << spec << ": " << serve::rejectReasonName(s.reason);
    chaos_sent.emplace(s.req_id, spec.substr(0, spec.find(' ')));
  }
  for (int i = 0; i < clean_jobs; ++i) {
    ASSERT_TRUE(clean.submit("clean-" + std::to_string(i)).accepted);
  }

  // Every served chaos result must be bit-identical to its oracle.
  std::size_t chaos_results = 0, quiescent = 0;
  for (const serve::WireResult& r : chaos.awaitAll()) {
    ++chaos_results;
    if (!r.quiescence.empty()) ++quiescent;
    const auto it = chaos_sent.find(r.req_id);
    ASSERT_NE(it, chaos_sent.end());
    const auto ref = oracle.find(it->second);
    ASSERT_NE(ref, oracle.end()) << it->second;
    EXPECT_TRUE(fieldsOf(r) == ref->second)
        << it->second << ": served (status=" << farm::jobStatusName(r.status)
        << " cycles=" << r.sim_cycles << " events=" << r.sim_events
        << " faults=" << r.faults_latched << " quiescence=" << r.quiescence
        << ") diverged from its unarmed oracle (status="
        << farm::jobStatusName(ref->second.status) << " cycles=" << ref->second.cycles
        << " events=" << ref->second.events << " faults=" << ref->second.faults
        << " quiescence=" << ref->second.quiescence << ")";
  }
  EXPECT_EQ(chaos_results, chaos_specs.size());
  EXPECT_GT(quiescent, 0u) << "storms that end incomplete carry their quiescence";

  // The clean tenant must land on the pin, every job, despite the storm.
  std::size_t clean_results = 0;
  for (const serve::WireResult& r : clean.awaitAll()) {
    ++clean_results;
    EXPECT_EQ(r.status, farm::JobStatus::Completed);
    EXPECT_EQ(r.sim_cycles, pin::kDecodePinCycles);
    EXPECT_EQ(r.sim_events, pin::kDecodePinEvents);
    EXPECT_EQ(r.macroblocks, pin::kDecodePinMacroblocks);
    EXPECT_TRUE(r.bit_exact);
  }
  EXPECT_EQ(clean_results, static_cast<std::size_t>(clean_jobs));

  // Nothing leaks: no quarantined jobs (hang-once recovers, storms are
  // simulation-side), and the drain delivers everything.
  EXPECT_TRUE(server.farm().quarantined().empty());
  chaos.close();
  clean.close();
  server.shutdown();
  EXPECT_EQ(server.resultsDropped(), 0u);
}
