// Unit tests for the functional Kahn Process Network runtime: FIFO
// semantics, graph construction, determinism and deadlock detection. Every
// FIFO is driven from graph tasks, which run as processes of one
// sim::Simulator.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "eclipse/kpn/fifo.hpp"
#include "eclipse/kpn/graph.hpp"

namespace {

using namespace eclipse::kpn;
using eclipse::sim::Task;

// ------------------------------------------------------------------ fifo

/// Adds one task whose output port 0 feeds its own input port 0 through a
/// FIFO of `capacity` bytes, so a single task drives both ends of the
/// stream in program order. Returns the edge id.
int loopback(Graph& g, std::size_t capacity, TaskFn body) {
  const int t = g.addTask("t", std::move(body));
  return g.connect(t, 0, t, 0, capacity);
}

TEST(ByteFifo, BasicRoundTrip) {
  Graph g;
  const int e = loopback(g, 64, [](TaskContext& ctx) -> Task<void> {
    std::uint8_t in[5] = {1, 2, 3, 4, 5};
    co_await ctx.out(0).write(in);
    std::uint8_t out[5] = {};
    EXPECT_TRUE(co_await ctx.in(0).readAll(out));
    EXPECT_EQ(0, std::memcmp(in, out, 5));
  });
  g.run();
  EXPECT_EQ(g.edge(e).totalProduced(), 5u);
  EXPECT_EQ(g.edge(e).totalConsumed(), 5u);
}

TEST(ByteFifo, WrapsAroundCapacity) {
  Graph g;
  loopback(g, 8, [](TaskContext& ctx) -> Task<void> {
    std::uint8_t buf[6];
    for (int round = 0; round < 10; ++round) {
      for (auto& b : buf) b = static_cast<std::uint8_t>(round);
      co_await ctx.out(0).write(buf);
      std::uint8_t out[6];
      EXPECT_TRUE(co_await ctx.in(0).readAll(out));
      for (auto b : out) EXPECT_EQ(b, round);
    }
  });
  g.run();
}

TEST(ByteFifo, EofAfterClose) {
  Graph g;
  loopback(g, 16, [](TaskContext& ctx) -> Task<void> {
    std::uint8_t in[3] = {9, 9, 9};
    co_await ctx.out(0).write(in);
    ctx.out(0).close();
    std::uint8_t out[3];
    EXPECT_TRUE(co_await ctx.in(0).readAll(out));   // drains remaining data
    EXPECT_FALSE(co_await ctx.in(0).readAll(out));  // then EOF
    EXPECT_EQ(co_await ctx.in(0).readSome(out), 0u);
  });
  g.run();
}

TEST(ByteFifo, WriteAfterCloseThrows) {
  Graph g;
  loopback(g, 16, [](TaskContext& ctx) -> Task<void> {
    ctx.out(0).close();
    std::uint8_t b[1] = {0};
    co_await ctx.out(0).write(b);
  });
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST(ByteFifo, BlockingProducerConsumer) {
  Graph g;
  std::vector<std::uint8_t> data(1000);
  std::iota(data.begin(), data.end(), 0);
  const int producer = g.addTask("producer", [&](TaskContext& ctx) -> Task<void> {
    co_await ctx.out(0).write(data);
  });
  std::vector<std::uint8_t> got(1000);
  const int consumer = g.addTask("consumer", [&](TaskContext& ctx) -> Task<void> {
    EXPECT_TRUE(co_await ctx.in(0).readAll(got));
  });
  // Smaller than the transfer: forces blocking both ways.
  const int e = g.connect(producer, 0, consumer, 0, 4);
  g.run();
  EXPECT_EQ(data, got);
  EXPECT_LE(g.edge(e).maxFill(), 4u);
}

TEST(ByteFifo, TimeoutDetectsDeadlock) {
  // A read that only its own, blocked task could ever satisfy.
  Graph g;
  loopback(g, 4, [](TaskContext& ctx) -> Task<void> {
    std::uint8_t out[1];
    (void)co_await ctx.in(0).readAll(out);
  });
  EXPECT_THROW(g.run(), DeadlockError);
}

TEST(ByteFifo, ZeroCapacityRejected) { EXPECT_THROW(ByteFifo f(0), std::invalid_argument); }

// ----------------------------------------------------------------- graph

TEST(Graph, SimplePipelineRuns) {
  Graph g;
  const int src = g.addTask("src", [](TaskContext& ctx) -> Task<void> {
    for (std::uint32_t i = 0; i < 100; ++i) co_await ctx.write(0, i);
  });
  const int dbl = g.addTask("dbl", [](TaskContext& ctx) -> Task<void> {
    std::uint32_t v = 0;
    while (co_await ctx.read(0, v)) co_await ctx.write(0, v * 2);
  });
  std::vector<std::uint32_t> got;
  const int snk = g.addTask("snk", [&](TaskContext& ctx) -> Task<void> {
    std::uint32_t v = 0;
    while (co_await ctx.read(0, v)) got.push_back(v);
  });
  g.connect(src, 0, dbl, 0, 64);
  g.connect(dbl, 0, snk, 0, 64);
  g.run();
  ASSERT_EQ(got.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], 2 * i);
}

TEST(Graph, ForkAndJoin) {
  Graph g;
  const int src = g.addTask("src", [](TaskContext& ctx) -> Task<void> {
    for (std::uint32_t i = 0; i < 50; ++i) {
      co_await ctx.write(0, i);
      co_await ctx.write(1, i * 10);
    }
  });
  const int pass_a = g.addTask("a", [](TaskContext& ctx) -> Task<void> {
    std::uint32_t v;
    while (co_await ctx.read(0, v)) co_await ctx.write(0, v + 1);
  });
  const int pass_b = g.addTask("b", [](TaskContext& ctx) -> Task<void> {
    std::uint32_t v;
    while (co_await ctx.read(0, v)) co_await ctx.write(0, v + 2);
  });
  std::uint64_t sum = 0;
  const int join = g.addTask("join", [&](TaskContext& ctx) -> Task<void> {
    std::uint32_t x, y;
    while (co_await ctx.read(0, x) && co_await ctx.read(1, y)) sum += x + y;
  });
  g.connect(src, 0, pass_a, 0, 64);
  g.connect(src, 1, pass_b, 0, 64);
  g.connect(pass_a, 0, join, 0, 64);
  g.connect(pass_b, 0, join, 1, 64);
  g.run();
  // sum of (i+1) + (10i+2) for i in 0..49
  std::uint64_t expect = 0;
  for (std::uint32_t i = 0; i < 50; ++i) expect += (i + 1) + (10 * i + 2);
  EXPECT_EQ(sum, expect);
}

TEST(Graph, RejectsDoubleConnections) {
  Graph g;
  auto idle = [](TaskContext&) -> Task<void> { co_return; };
  const int a = g.addTask("a", idle);
  const int b = g.addTask("b", idle);
  const int c = g.addTask("c", idle);
  g.connect(a, 0, b, 0, 16);
  EXPECT_THROW(g.connect(a, 0, c, 0, 16), std::logic_error);  // output reused
  EXPECT_THROW(g.connect(c, 0, b, 0, 16), std::logic_error);  // input reused
  EXPECT_THROW(g.connect(9, 0, b, 1, 16), std::out_of_range);
}

// The first task exception is rethrown as it is. With the 4-byte FIFO the
// producer is still blocked on a full stream when the consumer throws, so
// run() must not wait for it nor report a deadlock instead.
TEST(Graph, TaskExceptionPropagates) {
  for (const std::size_t capacity : {std::size_t{1024}, std::size_t{4}}) {
    Graph g;
    const int src = g.addTask("src", [](TaskContext& ctx) -> Task<void> {
      for (std::uint32_t i = 0; i < 10; ++i) co_await ctx.write(0, i);
    });
    const int bad = g.addTask("bad", [](TaskContext& ctx) -> Task<void> {
      std::uint32_t v;
      (void)co_await ctx.read(0, v);
      throw std::runtime_error("task failure");
    });
    g.connect(src, 0, bad, 0, capacity);
    try {
      g.run();
      ADD_FAILURE() << "no exception at capacity " << capacity;
    } catch (const DeadlockError& e) {
      ADD_FAILURE() << "deadlock instead of the task's error: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task failure") << "capacity " << capacity;
    }
  }
}

TEST(Graph, UnknownPortThrowsInsideTask) {
  Graph g;
  g.addTask("lonely", [](TaskContext& ctx) -> Task<void> {
    (void)ctx.in(0);
    co_return;
  });
  EXPECT_THROW(g.run(), std::out_of_range);
}

TEST(Graph, DeadlockSurfacesAsError) {
  Graph g;
  // A cycle with no initial tokens: classic Kahn deadlock.
  auto relay = [](TaskContext& ctx) -> Task<void> {
    std::uint32_t v;
    while (co_await ctx.read(0, v)) co_await ctx.write(0, v);
  };
  const int a = g.addTask("a", relay);
  const int b = g.addTask("b", relay);
  g.connect(a, 0, b, 0, 16);
  g.connect(b, 0, a, 0, 16);
  EXPECT_THROW(g.run(), DeadlockError);

  // Every blocked task, in task-id order, with its stream and its state.
  Graph h;
  const int x = h.addTask("x", relay);
  const int y = h.addTask("y", relay);
  h.connect(x, 0, y, 0, 16);
  h.connect(y, 0, x, 0, 16);
  try {
    h.run();
    ADD_FAILURE() << "no deadlock";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(), "KPN deadlock: x reads y:0->x:0 (empty); y reads x:0->y:0 (empty)");
  }

  // A writer blocked on a full FIFO is reported as such: p fills its
  // 4-byte edge to q before it writes the edge q reads first.
  Graph f;
  const int p = f.addTask("p", [](TaskContext& ctx) -> Task<void> {
    co_await ctx.write(0, std::uint32_t{1});
    co_await ctx.write(0, std::uint32_t{2});
    co_await ctx.write(1, std::uint32_t{3});
  });
  const int q = f.addTask("q", [](TaskContext& ctx) -> Task<void> {
    std::uint32_t v;
    while (co_await ctx.read(1, v) && co_await ctx.read(0, v)) {
    }
  });
  f.connect(p, 0, q, 0, 4);
  f.connect(p, 1, q, 1, 4);
  try {
    f.run();
    ADD_FAILURE() << "no deadlock";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(), "KPN deadlock: p writes p:0->q:0 (full); q reads p:1->q:1 (empty)");
  }
}

TEST(Graph, DescribeListsStructure) {
  Graph g;
  auto idle = [](TaskContext&) -> Task<void> { co_return; };
  const int a = g.addTask("alpha", idle);
  const int b = g.addTask("beta", idle);
  g.connect(a, 0, b, 0, 128);
  const auto d = g.describe();
  EXPECT_NE(d.find("alpha"), std::string::npos);
  EXPECT_NE(d.find("beta"), std::string::npos);
  EXPECT_NE(d.find("128"), std::string::npos);
}

// Kahn determinism: the observable stream contents are independent of
// scheduling. Each run changes the interleaving of the three tasks by
// giving the two streams other capacities, down to ones smaller than a
// value, so that values cross them in pieces; the output never changes.
TEST(Graph, DeterministicUnderSchedulingNoise) {
  auto runOnce = [](std::size_t cap_in, std::size_t cap_out) {
    Graph g;
    const int src = g.addTask("src", [](TaskContext& ctx) -> Task<void> {
      for (std::uint32_t i = 0; i < 200; ++i) co_await ctx.write(0, i * 3 + 1);
    });
    const int mid = g.addTask("mid", [](TaskContext& ctx) -> Task<void> {
      std::uint32_t v;
      while (co_await ctx.read(0, v)) co_await ctx.write(0, v ^ 0x5a5a);
    });
    std::vector<std::uint32_t> out;
    const int snk = g.addTask("snk", [&](TaskContext& ctx) -> Task<void> {
      std::uint32_t v;
      while (co_await ctx.read(0, v)) out.push_back(v);
    });
    g.connect(src, 0, mid, 0, cap_in);
    g.connect(mid, 0, snk, 0, cap_out);
    g.run();
    return out;
  };
  const auto first = runOnce(32, 32);
  ASSERT_EQ(first.size(), 200u);
  const std::size_t caps[][2] = {{1, 32}, {32, 1}, {3, 5}, {13, 4}, {800, 7}};
  for (const auto& c : caps) EXPECT_EQ(first, runOnce(c[0], c[1])) << c[0] << "/" << c[1];
}

}  // namespace
