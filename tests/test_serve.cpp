// eclipse_serve: the network-facing multi-tenant serving tier (DESIGN §15).
//
// The load-bearing properties checked here:
//   * wire fidelity — a RESULT line parses back to exactly the result it
//     was written from, and a torn or short line throws instead of
//     mis-parsing;
//   * served identity — a result that traveled admission -> QoS queue ->
//     farm -> RESULT line is bit-identical in every simulated field to a
//     direct Farm::submitWait of the same job line (the pinned decode lands
//     exactly on the suite-wide pin constants);
//   * QoS — quotas, token buckets and DRR weights shed/pace a misbehaving
//     tenant without starving a compliant one, and deadline slack promotes
//     a waiting job one farm lane (the mirror of retry demotion);
//   * lifecycle — a rolling drain delivers every accepted result and a
//     live reload (tenant quotas + worker resize) drops nothing.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eclipse/farm/farm.hpp"
#include "eclipse/serve/client.hpp"
#include "eclipse/serve/dispatcher.hpp"
#include "eclipse/serve/histogram.hpp"
#include "eclipse/serve/protocol.hpp"
#include "eclipse/serve/server.hpp"
#include "eclipse/serve/tenant.hpp"

#include "decode_pin.hpp"

using namespace eclipse;

namespace {

/// Shared prepared-workload cache: video generation + golden encodes are
/// the dominant cost of these tiny jobs, and the descriptors repeat.
std::shared_ptr<farm::WorkloadCache> sharedCache() {
  static auto cache = std::make_shared<farm::WorkloadCache>();
  return cache;
}

constexpr const char* kTinySpec = "tiny width=32 height=32 frames=1";

serve::ServeOptions baseOptions(int workers = 2) {
  serve::ServeOptions so;
  so.farm.workers = workers;
  so.farm.queue_capacity = 32;
  so.farm.cache = sharedCache();
  return so;
}

}  // namespace

// ---------------------------------------------------------------- wire --

namespace {

/// Every field a RESULT line carries (all of WireResult but req_id).
void expectSameResult(const serve::WireResult& out, const serve::WireResult& in) {
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.cause, in.cause);
  EXPECT_EQ(out.sim_cycles, in.sim_cycles);
  EXPECT_EQ(out.sim_events, in.sim_events);
  EXPECT_EQ(out.macroblocks, in.macroblocks);
  EXPECT_EQ(out.bit_exact, in.bit_exact);
  EXPECT_EQ(out.psnr_db, in.psnr_db);
  EXPECT_EQ(out.faults_latched, in.faults_latched);
  EXPECT_EQ(out.stalls_latched, in.stalls_latched);
  EXPECT_EQ(out.frames_dropped, in.frames_dropped);
  EXPECT_EQ(out.mode_switches, in.mode_switches);
  EXPECT_EQ(out.quiescence, in.quiescence);
  EXPECT_EQ(out.attempts, in.attempts);
  EXPECT_EQ(out.wall_ms, in.wall_ms);
  EXPECT_EQ(out.latency_ms, in.latency_ms);
  EXPECT_EQ(out.queue_ms, in.queue_ms);
  EXPECT_EQ(out.serve_ms, in.serve_ms);
  EXPECT_EQ(out.promoted, in.promoted);
  EXPECT_EQ(out.error, in.error);
}

/// A result with every field off its default.
serve::WireResult everyFieldSet() {
  serve::WireResult r;
  r.req_id = 991;
  r.name = "job-x";
  r.tenant = "alice";
  r.status = farm::JobStatus::Incomplete;
  r.cause = farm::JobError::Stall;
  r.sim_cycles = pin::kDecodePinCycles;
  r.sim_events = pin::kDecodePinEvents;
  r.macroblocks = pin::kDecodePinMacroblocks;
  r.bit_exact = true;
  r.psnr_db = std::nextafter(37.25, 100.0);  // 37.250000000000007: 17 digits
  r.faults_latched = 2;
  r.stalls_latched = 1;
  r.frames_dropped = 4;
  r.mode_switches = 3;
  r.quiescence = "starved";
  r.attempts = 3;
  r.wall_ms = 12.5;
  r.latency_ms = 20.25;
  r.queue_ms = 5.75;
  r.serve_ms = 26.0;
  r.promoted = true;
  r.error = "stalled after 3 attempts: starved";
  return r;
}

}  // namespace

TEST(ServeProtocol, ResultBlobRoundTrips) {
  const serve::WireResult in = everyFieldSet();
  ASSERT_NE(std::stod(std::to_string(in.psnr_db)), in.psnr_db)
      << "the psnr must need more digits than the stream default";
  const std::string line = serve::formatResultLine(in);
  const serve::WireResult out = serve::parseResultLine(line);
  expectSameResult(out, in);
  EXPECT_EQ(out.req_id, 0u) << "req_id travels after RESULT, not in the tail";
  EXPECT_EQ(line.rfind("name=job-x tenant=alice status=incomplete cause=stall ", 0), 0u)
      << line;
}

TEST(ServeProtocol, ByteCodecRoundTrips) {
  serve::WireResult in;
  in.name = "edge";
  in.tenant = "tenant/α";
  in.sim_cycles = UINT64_MAX;
  in.psnr_db = std::numeric_limits<double>::infinity();  // a lossless encode
  in.wall_ms = std::numeric_limits<double>::denorm_min();
  in.latency_ms = -0.0;
  const std::string line = serve::formatResultLine(in);
  EXPECT_NE(line.find(" cycles=18446744073709551615 "), std::string::npos) << line;
  EXPECT_NE(line.find(" psnr=inf "), std::string::npos) << line;
  EXPECT_NE(line.find(" quiescence= "), std::string::npos) << line;
  EXPECT_EQ(line.substr(line.size() - 7), " error=") << line;
  const serve::WireResult out = serve::parseResultLine(line);
  expectSameResult(out, in);
  EXPECT_TRUE(std::signbit(out.latency_ms));

  // A line break in an error must not split the RESULT line.
  in.error = "two\nlines";
  EXPECT_EQ(serve::parseResultLine(serve::formatResultLine(in)).error, "two lines");
}

TEST(ServeProtocol, UnderrunThrowsInsteadOfMisparsing) {
  const std::string line = serve::formatResultLine(everyFieldSet());
  // Cut before any key but the last: a key goes missing.
  const std::size_t error_at = line.find(" error=");
  ASSERT_NE(error_at, std::string::npos);
  for (std::size_t sp = line.find(' '); sp <= error_at; sp = line.find(' ', sp + 1)) {
    EXPECT_THROW((void)serve::parseResultLine(line.substr(0, sp)), serve::ProtocolError)
        << line.substr(0, sp);
  }
  EXPECT_THROW((void)serve::parseResultLine(""), serve::ProtocolError);

  // A value that is not whole, or not of its key's type, is refused.
  auto with = [&line](const std::string& from, const std::string& to) {
    std::string bad = line;
    const std::size_t at = bad.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return bad.replace(at, from.size(), to);
  };
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {" cycles=144885 ", " cycles=14x885 "},
           {" cycles=144885 ", " cycles=144885.0 "},
           {" events=48109 ", " events=-1 "},
           {" bit_exact=1 ", " bit_exact=2 "},
           {" psnr=", " psnr=high"},
           {" status=incomplete ", " status=done "},
           {" attempts=3 ", " attempts= "},
       }) {
    EXPECT_THROW((void)serve::parseResultLine(with(from, to)), serve::ProtocolError) << to;
  }
}

// The RESULT line the server wrote before it carried every field (no
// faults=, stalls=, frames_dropped=, ...) must be refused outright, not
// read with the missing fields left at their defaults.
TEST(ServeProtocol, VersionOneResultBlobIsRejected) {
  const std::string short_line =
      "name=pin tenant=alice status=completed cause=none cycles=144885 events=48109 mbs=150 "
      "bit_exact=1 psnr=0 attempts=1 promoted=0 queue_ms=0.5 serve_ms=30.25";
  EXPECT_THROW((void)serve::parseResultLine(short_line), serve::ProtocolError);
}

// -------------------------------------------------------------- tenant --

TEST(ServeTenant, SpecParsing) {
  serve::TenantConfig cfg;
  std::string err;
  ASSERT_TRUE(serve::parseTenantSpec(
      "alice:rate=20,burst=5,quota=3,pending=32,weight=2.5,policy=queue", cfg, err))
      << err;
  EXPECT_EQ(cfg.name, "alice");
  EXPECT_EQ(cfg.rate, 20.0);
  EXPECT_EQ(cfg.burst, 5.0);
  EXPECT_EQ(cfg.max_inflight, 3);
  EXPECT_EQ(cfg.max_pending, 32u);
  EXPECT_EQ(cfg.weight, 2.5);
  EXPECT_EQ(cfg.policy, serve::OverloadPolicy::Queue);

  ASSERT_TRUE(serve::parseTenantSpec("bob", cfg, err)) << err;
  EXPECT_EQ(cfg.name, "bob");

  EXPECT_FALSE(serve::parseTenantSpec("", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:rate=-3", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:quota=0", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:policy=maybe", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:nosuchkey=1", cfg, err));
  // Whole-token numbers: no prefix, no wrapped minus sign, no NaN.
  EXPECT_FALSE(serve::parseTenantSpec("x:quota=2x", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:pending=-1", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:rate=5abc", cfg, err));
  EXPECT_FALSE(serve::parseTenantSpec("x:rate=nan", cfg, err));
}

TEST(ServeTenant, TokenBucketStartsFullThenPaces) {
  serve::TenantConfig cfg;
  cfg.rate = 10.0;  // 10 jobs/s
  cfg.burst = 3.0;
  serve::TokenBucket b;
  const auto t0 = std::chrono::steady_clock::now();
  b.refill(cfg, t0);
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_FALSE(b.tryTake(cfg)) << "burst exhausted";

  // 250 ms at 10/s refills 2.5 tokens: exactly two more dispatches.
  b.refill(cfg, t0 + std::chrono::milliseconds(250));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_FALSE(b.tryTake(cfg));

  b.refund(cfg);  // a failed release puts the token back
  EXPECT_TRUE(b.tryTake(cfg));

  // Refill clamps at the burst, not unbounded accumulation.
  b.refill(cfg, t0 + std::chrono::hours(1));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_TRUE(b.tryTake(cfg));
  EXPECT_FALSE(b.tryTake(cfg));

  // Unlimited tenants never block on the bucket.
  serve::TenantConfig open;
  open.rate = 0.0;
  serve::TokenBucket ob;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ob.tryTake(open));
}

TEST(ServeHistogram, PercentilesOnKnownData) {
  serve::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);

  // 100 samples at 1 ms, 10 at 100 ms: p50 lands in the 1 ms bucket, p99+
  // in the 100 ms one, and the max is tracked exactly.
  for (int i = 0; i < 100; ++i) h.record(0.9);
  for (int i = 0; i < 10; ++i) h.record(90.0);
  EXPECT_EQ(h.count(), 110u);
  EXPECT_LE(h.percentile(0.5), 1.0);
  EXPECT_GE(h.percentile(0.99), 50.0);
  EXPECT_DOUBLE_EQ(h.maxMs(), 90.0);
  EXPECT_NEAR(h.sumMs(), 100 * 0.9 + 10 * 90.0, 1e-9);
}

// ---------------------------------------------------------- dispatcher --

namespace {

/// Collects dispatcher results without a waiter thread per job.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int completed = 0;
  int promoted = 0;

  serve::Dispatcher::ResultFn fn() {
    return [this](const farm::JobResult& r, const serve::DispatchInfo& info) {
      std::lock_guard<std::mutex> lk(mu);
      ++done;
      if (r.status == farm::JobStatus::Completed) ++completed;
      if (info.promoted) ++promoted;
      cv.notify_all();
    };
  }

  void awaitDone(int n) {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(120), [&] { return done >= n; }))
        << "only " << done << " of " << n << " results arrived";
  }
};

farm::Job tinyJob(std::string name) {
  std::string err;
  std::optional<farm::Job> job = farm::parseJob(name + " width=32 height=32 frames=1", err);
  EXPECT_TRUE(job) << err;
  return job ? std::move(*job) : farm::Job{};
}

}  // namespace

TEST(ServeDispatcher, FloodingTenantShedsWhileCompliantTenantCompletes) {
  farm::FarmOptions fo;
  fo.workers = 2;
  fo.queue_capacity = 8;
  fo.cache = sharedCache();
  farm::Farm f(fo);

  serve::DispatcherOptions dopts;
  serve::Dispatcher d(f, dopts);
  serve::TenantConfig mallory;
  mallory.name = "mallory";
  mallory.rate = 50.0;
  mallory.burst = 4.0;
  mallory.max_inflight = 1;
  mallory.max_pending = 4;
  mallory.policy = serve::OverloadPolicy::Shed;
  serve::TenantConfig alice;
  alice.name = "alice";
  alice.max_inflight = 4;
  alice.max_pending = 128;
  alice.weight = 4.0;
  d.configureTenant(mallory);
  d.configureTenant(alice);

  Collector mc, ac;
  int mallory_admitted = 0, mallory_shed = 0, alice_admitted = 0;
  for (int n = 0; n < 60; ++n) {
    const auto v = d.admit("mallory", tinyJob("flood-" + std::to_string(n)), 0.0, mc.fn());
    if (v == serve::Dispatcher::Verdict::Accepted) {
      ++mallory_admitted;
    } else {
      EXPECT_TRUE(v == serve::Dispatcher::Verdict::RateLimited ||
                  v == serve::Dispatcher::Verdict::QueueFull);
      ++mallory_shed;
    }
    if (n % 6 == 0) {
      ASSERT_EQ(d.admit("alice", tinyJob("steady-" + std::to_string(n)), 0.0, ac.fn()),
                serve::Dispatcher::Verdict::Accepted);
      ++alice_admitted;
    }
  }
  EXPECT_GT(mallory_shed, 0) << "the flood must be shed, not buffered";
  ac.awaitDone(alice_admitted);
  EXPECT_EQ(ac.completed, alice_admitted) << "the compliant tenant must not starve";
  mc.awaitDone(mallory_admitted);  // what was admitted still completes
  EXPECT_EQ(d.outstanding(), 0u);

  const auto stats = d.tenantStats();
  ASSERT_EQ(stats.size(), 2u);  // stable name order: alice, mallory
  EXPECT_EQ(stats[0].config.name, "alice");
  EXPECT_EQ(stats[0].completed, static_cast<std::uint64_t>(alice_admitted));
  EXPECT_EQ(stats[1].config.name, "mallory");
  EXPECT_EQ(stats[1].shed(), static_cast<std::uint64_t>(mallory_shed));
}

TEST(ServeDispatcher, DeadlineSlackPromotesTheFarmLane) {
  farm::FarmOptions fo;
  fo.workers = 1;
  fo.queue_capacity = 8;
  fo.cache = sharedCache();
  farm::Farm f(fo);

  serve::DispatcherOptions dopts;
  dopts.promote_slack_ms = 10'000.0;  // any waiting deadline job promotes
  serve::Dispatcher d(f, dopts);
  serve::TenantConfig t;
  t.name = "edge";
  t.max_inflight = 1;  // the quota parks the second job in the serve queue
  d.configureTenant(t);

  Collector c;
  // First job occupies the tenant's only in-flight slot; the second waits
  // in the dispatcher with a deadline and must be promoted Low -> Normal
  // before release.
  ASSERT_EQ(d.admit("edge", tinyJob("occupier"), 0.0, c.fn()),
            serve::Dispatcher::Verdict::Accepted);
  farm::Job low = tinyJob("urgent");
  low.priority = farm::Priority::Low;
  ASSERT_EQ(d.admit("edge", std::move(low), 500.0, c.fn()),
            serve::Dispatcher::Verdict::Accepted);

  c.awaitDone(2);
  EXPECT_EQ(c.completed, 2);
  EXPECT_EQ(c.promoted, 1) << "exactly the deadline job is promoted";
  const auto stats = d.tenantStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].promoted, 1u);
}

// -------------------------------------------------------------- server --

TEST(ServeServer, ServedResultsMatchDirectOraclesBitForBit) {
  const std::vector<std::string> specs = {
      "pin",  // the pinned reference decode
      std::string(kTinySpec),
      "coarse width=32 height=32 frames=1 qscale=20",
      "enc kind=encode width=32 height=32 frames=1",
      "mix kind=decode+decode width=32 height=32 frames=1 config:sram.size_bytes=65536 "
      "priority=high",
  };

  // Direct oracles first (1 worker, same cache).
  struct Fields {
    std::uint64_t cycles, events, mbs;
    bool bit_exact;
    double psnr;
    std::uint64_t faults, stalls, frames_dropped, mode_switches;
    std::string quiescence;
  };
  std::vector<Fields> oracle;
  {
    farm::FarmOptions fo;
    fo.workers = 1;
    fo.cache = sharedCache();
    farm::Farm f(fo);
    for (const std::string& s : specs) {
      std::string err;
      std::optional<farm::Job> job = farm::parseJob(s, err);
      ASSERT_TRUE(job) << err;
      const farm::JobResult r = f.submitWait(std::move(*job)).get();
      ASSERT_EQ(r.status, farm::JobStatus::Completed) << s;
      oracle.push_back({r.sim_cycles, r.sim_events, r.macroblocks, r.bit_exact, r.psnr_db,
                        r.faults_latched, r.stalls_latched, r.frames_dropped, r.mode_switches,
                        r.quiescence});
    }
  }
  ASSERT_EQ(oracle[0].cycles, pin::kDecodePinCycles);
  ASSERT_EQ(oracle[0].events, pin::kDecodePinEvents);
  ASSERT_EQ(oracle[0].mbs, pin::kDecodePinMacroblocks);
  ASSERT_TRUE(oracle[0].bit_exact);

  // Every spec goes out once on each of two tenant connections,
  // alternating which tenant sends first.
  serve::Server server(baseOptions());
  server.start();
  serve::Client clients[2];
  const char* tenants[2] = {"alice", "bob"};
  clients[0].connect("127.0.0.1", server.port(), tenants[0]);
  clients[1].connect("127.0.0.1", server.port(), tenants[1]);
  struct Sent {
    std::size_t spec, client;
    std::uint64_t req_id;
  };
  std::vector<Sent> sent;
  for (std::size_t rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::size_t c = (rep + i) % 2;
      const auto sub = clients[c].submit(specs[i]);
      ASSERT_TRUE(sub.accepted) << serve::rejectReasonName(sub.reason);
      sent.push_back({i, c, sub.req_id});
    }
  }
  for (const Sent& s : sent) {
    const serve::WireResult r = clients[s.client].await(s.req_id);
    const std::string& spec = specs[s.spec];
    const Fields& want = oracle[s.spec];
    EXPECT_EQ(r.status, farm::JobStatus::Completed) << spec;
    EXPECT_EQ(r.tenant, tenants[s.client]);
    EXPECT_EQ(r.sim_cycles, want.cycles) << spec;
    EXPECT_EQ(r.sim_events, want.events) << spec;
    EXPECT_EQ(r.macroblocks, want.mbs) << spec;
    EXPECT_EQ(r.bit_exact, want.bit_exact) << spec;
    EXPECT_EQ(r.psnr_db, want.psnr) << spec;
    EXPECT_EQ(r.faults_latched, want.faults) << spec;
    EXPECT_EQ(r.stalls_latched, want.stalls) << spec;
    EXPECT_EQ(r.frames_dropped, want.frames_dropped) << spec;
    EXPECT_EQ(r.mode_switches, want.mode_switches) << spec;
    EXPECT_EQ(r.quiescence, want.quiescence) << spec;
  }
  // Serving never arms supervision on its own: the unarmed batch path
  // stays zero-overhead (the decode pin above is the other half of this).
  EXPECT_EQ(server.farm().metrics().supervisedJobs(), 0u);
  for (serve::Client& c : clients) c.close();
  server.shutdown();
  EXPECT_EQ(server.resultsDropped(), 0u);
}

TEST(ServeServer, BadSpecAndUnknownTenantAreRejectedNotFatal) {
  serve::ServeOptions so = baseOptions();
  so.auto_register = false;  // nobody is pre-registered
  serve::Server server(so);
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port(), "ghost");
  const auto s1 = c.submit(kTinySpec);
  EXPECT_FALSE(s1.accepted);
  EXPECT_EQ(s1.reason, serve::RejectReason::UnknownTenant);

  serve::ServeOptions so2 = baseOptions();
  serve::Server server2(so2);
  server2.start();
  serve::Client c2;
  c2.connect("127.0.0.1", server2.port(), "alice");
  const auto s2 = c2.submit("bad width=banana");
  EXPECT_FALSE(s2.accepted);
  EXPECT_EQ(s2.reason, serve::RejectReason::BadSpec);
  // The connection survives a rejection: the next submit works.
  const auto s3 = c2.submit(kTinySpec);
  ASSERT_TRUE(s3.accepted);
  EXPECT_EQ(c2.await(s3.req_id).status, farm::JobStatus::Completed);
}

// The server owns deadline_ms (a whole, finite, non-negative number) and
// the blank-spec error; farm_driver's repeat= is not part of the served grammar.
TEST(ServeServer, DeadlineMsIsTheServeKeyAndBlankSpecsAreRejected) {
  serve::Server server(baseOptions());
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port(), "alice");
  const auto blank = c.submit("   ");
  EXPECT_FALSE(blank.accepted);
  EXPECT_EQ(blank.reason, serve::RejectReason::BadSpec);
  EXPECT_EQ(blank.detail, "empty job spec");
  const auto negative = c.submit(std::string(kTinySpec) + " deadline_ms=-1");
  EXPECT_FALSE(negative.accepted);
  EXPECT_EQ(negative.detail, "negative deadline_ms");
  for (const char* bad : {"nan", "inf", "5abc"}) {
    const auto s = c.submit(std::string(kTinySpec) + " deadline_ms=" + bad);
    EXPECT_FALSE(s.accepted) << bad;
    EXPECT_EQ(s.reason, serve::RejectReason::BadSpec) << bad;
    EXPECT_EQ(s.detail, std::string("bad value for deadline_ms: ") + bad);
  }
  const auto repeat = c.submit(std::string(kTinySpec) + " repeat=2");
  EXPECT_FALSE(repeat.accepted);
  EXPECT_EQ(repeat.detail, "unknown field: repeat");
  const auto ok = c.submit(std::string(kTinySpec) + " deadline_ms=60000");
  ASSERT_TRUE(ok.accepted);
  EXPECT_EQ(c.await(ok.req_id).status, farm::JobStatus::Completed);
  c.close();
  server.shutdown();
  EXPECT_EQ(server.resultsDropped(), 0u);
}

TEST(ServeServer, TextModeSpeaksLineProtocol) {
  serve::Server server(baseOptions());
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  std::string buf;
  auto sendAll = [&](const std::string& s) {
    ASSERT_EQ(::send(fd, s.data(), s.size(), 0), static_cast<ssize_t>(s.size()));
  };
  auto readLine = [&]() -> std::string {
    for (;;) {
      const auto nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      char chunk[512];
      const ssize_t k = ::recv(fd, chunk, sizeof chunk, 0);
      if (k <= 0) return "<EOF>";
      buf.append(chunk, static_cast<std::size_t>(k));
    }
  };

  sendAll("HELLO texty\n");
  EXPECT_EQ(readLine(), "OK hello texty");
  sendAll("PING\n");
  EXPECT_EQ(readLine(), "PONG");
  sendAll(std::string("SUBMIT 5 ") + kTinySpec + "\n");
  EXPECT_EQ(readLine(), "OK accepted 5");
  const std::string result = readLine();
  ASSERT_EQ(result.rfind("RESULT 5 ", 0), 0u) << result;
  const serve::WireResult r = serve::parseResultLine(result.substr(9));
  EXPECT_EQ(r.name, "tiny");
  EXPECT_EQ(r.tenant, "texty");
  EXPECT_EQ(r.status, farm::JobStatus::Completed) << result;
  // An id must be a whole unsigned number, or the line is a bad command.
  for (const char* id : {"-1", "5x"}) {
    sendAll(std::string("SUBMIT ") + id + " " + kTinySpec + "\n");
    EXPECT_EQ(readLine(), std::string("ERR 0 bad-command bad submit id: ") + id);
  }
  sendAll("NOSUCH\n");
  EXPECT_EQ(readLine().rfind("ERR 0 bad-command", 0), 0u);
  sendAll("METRICS\n");  // `GET /metrics` is the one spelling
  EXPECT_EQ(readLine(), "ERR 0 bad-command METRICS");
  sendAll("GET /metrics\n");
  std::string metrics;
  for (std::string line = readLine(); line != "." && line != "<EOF>"; line = readLine()) {
    metrics += line + "\n";
  }
  EXPECT_NE(metrics.find("eclipse_serve_admitted_total{tenant=\"texty\"} 1"), std::string::npos)
      << metrics;
  sendAll("QUIT\n");
  EXPECT_EQ(readLine(), "BYE");
  ::close(fd);
  server.shutdown();
  EXPECT_EQ(server.resultsDropped(), 0u);
}

// At the connection cap the server says why before it closes. The probe is
// a raw socket that sends nothing: a peer that has already sent HELLO can
// have the server's close turn into a reset that eats the reply.
TEST(ServeServer, ConnectionCapRefusesWithAReason) {
  serve::ServeOptions so = baseOptions();
  so.max_connections = 1;
  serve::Server server(so);
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port(), "alice");  // HELLO answered: c holds the slot

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::string got;
  char chunk[256];
  ssize_t k;
  while ((k = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    got.append(chunk, static_cast<std::size_t>(k));
  }
  EXPECT_EQ(k, 0) << "the refusal ends in EOF";
  EXPECT_EQ(got, "ERR 0 too-many-connections\n");
  ::close(fd);

  // The connection that holds the slot is untouched.
  c.ping();
  EXPECT_EQ(server.connectionCount(), 1);
  c.close();
  server.shutdown();
}

TEST(ServeServer, RollingDrainDeliversEveryAcceptedResult) {
  serve::Server server(baseOptions());
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port(), "drainee");
  const int n = 8;
  std::uint64_t accepted = 0;
  for (int i = 0; i < n; ++i) {
    if (c.submit(std::string(kTinySpec) + " seed=" + std::to_string(i % 4)).accepted) {
      ++accepted;
    }
  }
  ASSERT_EQ(accepted, static_cast<std::uint64_t>(n));

  server.beginDrain();  // results still in flight
  const auto late = c.submit(kTinySpec);
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reason, serve::RejectReason::Draining);

  std::uint64_t results = 0;
  for (const serve::WireResult& r : c.awaitAll()) {
    EXPECT_EQ(r.status, farm::JobStatus::Completed);
    ++results;
  }
  EXPECT_EQ(results, accepted) << "rolling drain must lose nothing";
  server.shutdown();
  EXPECT_EQ(server.resultsDropped(), 0u);
}

TEST(ServeServer, ReloadUpdatesQuotasAndResizesWorkersWithoutLoss) {
  serve::ServeOptions so = baseOptions(1);
  serve::Server server(so);
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port(), "alice");

  // Work is flowing before, during and after the reload.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(c.submit(kTinySpec).accepted);

  serve::ReloadConfig cfg;
  serve::TenantConfig alice;
  alice.name = "alice";
  alice.max_inflight = 1;
  alice.max_pending = 2;  // tightened pending bound takes effect live
  cfg.tenants.push_back(alice);
  cfg.workers = 2;
  server.reload(cfg);
  EXPECT_EQ(server.farm().workerCount(), 2);

  for (int i = 0; i < 4; ++i) c.submit(kTinySpec);  // some may hit the new bound
  std::uint64_t results = 0;
  for (const serve::WireResult& r : c.awaitAll()) {
    EXPECT_EQ(r.status, farm::JobStatus::Completed);
    ++results;
  }
  EXPECT_GE(results, 4u) << "everything accepted before the reload survives it";

  bool found = false;
  for (const serve::TenantStats& t : server.dispatcher().tenantStats()) {
    if (t.config.name == "alice") {
      found = true;
      EXPECT_EQ(t.config.max_pending, 2u) << "reload must upsert the live config";
    }
  }
  EXPECT_TRUE(found);
  c.close();
  server.shutdown();
  EXPECT_EQ(server.resultsDropped(), 0u);
}

TEST(ServeServer, MetricsExpositionCoversFarmAndTenants) {
  serve::Server server(baseOptions());
  server.start();
  serve::Client c;
  c.connect("127.0.0.1", server.port(), "alice");
  const auto s = c.submit(kTinySpec);
  ASSERT_TRUE(s.accepted);
  (void)c.await(s.req_id);

  const std::string text = c.metricsText();
  EXPECT_NE(text.find("eclipse_farm_completed_total"), std::string::npos);
  EXPECT_NE(text.find("eclipse_farm_lane_depth{lane=\"high\"}"), std::string::npos);
  EXPECT_NE(text.find("eclipse_serve_admitted_total{tenant=\"alice\"} 1"), std::string::npos);
  EXPECT_NE(text.find("eclipse_serve_latency_ms"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  c.close();
  server.shutdown();
}
