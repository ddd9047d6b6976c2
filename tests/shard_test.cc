// Partition-parallel executor tests: the SPSC ring, the shard analysis
// (routing table derivation), the ordered merge, query churn on a running
// sharded engine, replica identity across shard counts, backpressure under
// tiny rings, and cross-shard metrics aggregation.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "plan/compile.h"
#include "plan/explain.h"
#include "plan/shard.h"
#include "plan/sharded_executor.h"
#include "plan/spsc_queue.h"
#include "query/builder.h"
#include "rules/rule_engine.h"
#include "workload/perfmon.h"
#include "workload/synthetic.h"
#include "workload/workloads.h"

namespace rumor {
namespace {

// --- SpscQueue ---------------------------------------------------------------

TEST(SpscQueueTest, PushPopFifo) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99)) << "full ring must reject";
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(&v)) << "empty ring must reject";
}

TEST(SpscQueueTest, CloseWakesAndDrains) {
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_TRUE(q.closed());
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v)) << "items pushed before Close stay poppable";
  EXPECT_EQ(v, 7);
  q.WaitNotEmpty();  // must return immediately on a closed queue
}

TEST(SpscQueueTest, TwoThreadStress) {
  constexpr int kItems = 200000;
  SpscQueue<int> q(8);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!q.TryPush(i)) q.WaitNotFull();
    }
    q.Close();
  });
  int expected = 0;
  int v = -1;
  while (expected < kItems) {
    if (q.TryPop(&v)) {
      ASSERT_EQ(v, expected) << "FIFO order violated";
      ++expected;
    } else {
      q.WaitNotEmpty();
    }
  }
  producer.join();
  EXPECT_FALSE(q.TryPop(&v));
}

// --- AnalyzeSharding ---------------------------------------------------------

Schema IntSchema(int n) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < n; ++i) {
    attrs.push_back({"a" + std::to_string(i), ValueType::kInt});
  }
  return Schema(attrs);
}

ShardPlan AnalyzeQueries(const std::vector<Query>& queries, int num_shards,
                         Plan* plan) {
  auto compiled = CompileQueries(queries, plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  Optimize(plan);
  return AnalyzeSharding(*plan, num_shards);
}

StreamId SourceId(const Plan& plan, const std::string& name) {
  auto id = plan.streams().FindSource(name);
  RUMOR_CHECK(id.has_value());
  return *id;
}

TEST(AnalyzeShardingTest, StatelessQueriesRouteAnywhere) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3)).Select("a0 = 1").Build("Q1"),
       QueryBuilder::FromSource("S", IntSchema(3)).Select("a1 > 2").Build(
           "Q2")},
      4, &plan);
  EXPECT_EQ(sp.routes[SourceId(plan, "S")].mode, RouteMode::kAny);
  EXPECT_EQ(sp.keyed_sources, 0);
  EXPECT_EQ(sp.pinned_sources, 0);
}

TEST(AnalyzeShardingTest, GroupByKeysTheSource) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3))
           .Aggregate(AggFn::kAvg, "a1", {"a2"}, 10)
           .Build("Q1")},
      4, &plan);
  const StreamRoute& r = sp.routes[SourceId(plan, "S")];
  EXPECT_EQ(r.mode, RouteMode::kKey);
  EXPECT_EQ(r.key_attr, 2);
}

TEST(AnalyzeShardingTest, GroupByTracesThroughSelectionPrefix) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3))
           .Select("a0 < 2")
           .Aggregate(AggFn::kSum, "a1", {"a0"}, 8)
           .Build("Q1")},
      2, &plan);
  const StreamRoute& r = sp.routes[SourceId(plan, "S")];
  EXPECT_EQ(r.mode, RouteMode::kKey);
  EXPECT_EQ(r.key_attr, 0);
}

TEST(AnalyzeShardingTest, UngroupedAggregatePinsTheSource) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3)).Count({}, 10).Build("Q1")},
      4, &plan);
  EXPECT_EQ(sp.routes[SourceId(plan, "S")].mode, RouteMode::kPinned);
  EXPECT_EQ(sp.pinned_components, 1);
}

TEST(AnalyzeShardingTest, ConflictingKeysPinTheComponent) {
  Plan plan;
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", IntSchema(3))
           .Aggregate(AggFn::kMin, "a1", {"a0"}, 10)
           .Build("Q1"),
       QueryBuilder::FromSource("S", IntSchema(3))
           .Aggregate(AggFn::kMin, "a0", {"a1"}, 10)
           .Build("Q2")},
      4, &plan);
  EXPECT_EQ(sp.routes[SourceId(plan, "S")].mode, RouteMode::kPinned);
}

TEST(AnalyzeShardingTest, EquiJoinKeysBothSidesIntoOneComponent) {
  Plan plan;
  Schema schema = IntSchema(3);
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", schema)
           .Join(QueryBuilder::FromSource("T", schema), "l.a1 = r.a2", 10, 10)
           .Build("Q1")},
      4, &plan);
  const StreamRoute& s = sp.routes[SourceId(plan, "S")];
  const StreamRoute& t = sp.routes[SourceId(plan, "T")];
  EXPECT_EQ(s.mode, RouteMode::kKey);
  EXPECT_EQ(s.key_attr, 1);
  EXPECT_EQ(t.mode, RouteMode::kKey);
  EXPECT_EQ(t.key_attr, 2);
  EXPECT_EQ(sp.keyed_sources, 2);
}

TEST(AnalyzeShardingTest, CrossJoinPinsBothSides) {
  Plan plan;
  Schema schema = IntSchema(3);
  ShardPlan sp = AnalyzeQueries(
      {QueryBuilder::FromSource("S", schema)
           .Join(QueryBuilder::FromSource("T", schema), "l.a0 < r.a0", 10, 10)
           .Build("Q1")},
      4, &plan);
  const StreamRoute& s = sp.routes[SourceId(plan, "S")];
  const StreamRoute& t = sp.routes[SourceId(plan, "T")];
  EXPECT_EQ(s.mode, RouteMode::kPinned);
  EXPECT_EQ(t.mode, RouteMode::kPinned);
  EXPECT_EQ(s.pinned_shard, t.pinned_shard)
      << "a join's two sides must share one shard";
  EXPECT_EQ(sp.pinned_components, 1);
}

TEST(AnalyzeShardingTest, IndependentPinnedComponentsSpread) {
  Plan plan;
  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(
        QueryBuilder::FromSource("S" + std::to_string(i), IntSchema(2))
            .Count({}, 10)
            .Build("Q" + std::to_string(i)));
  }
  ShardPlan sp = AnalyzeQueries(queries, 2, &plan);
  std::vector<int> per_shard(2, 0);
  for (int i = 0; i < 4; ++i) {
    const StreamRoute& r = sp.routes[SourceId(plan, "S" + std::to_string(i))];
    ASSERT_EQ(r.mode, RouteMode::kPinned);
    ++per_shard[r.pinned_shard];
  }
  EXPECT_EQ(per_shard[0], 2) << "pinned components should round-robin";
  EXPECT_EQ(per_shard[1], 2);
  EXPECT_EQ(sp.pinned_components, 4);
}

TEST(AnalyzeShardingTest, ShardOfTupleAgreesAcrossNumericRepresentations) {
  StreamRoute key{RouteMode::kKey, 0, 0};
  uint64_t rr = 0;
  const Value as_int[] = {Value(int64_t{7})};
  const Value as_double[] = {Value(7.0)};
  for (int n : {2, 3, 7}) {
    EXPECT_EQ(ShardOfTuple(key, as_int, &rr, n),
              ShardOfTuple(key, as_double, &rr, n))
        << "join sides carrying int vs double keys must agree, n=" << n;
  }
}

// --- ordered merge determinism ----------------------------------------------

// Records every merged output as "stream:tuple@ts", in delivery order.
class LogSink : public OutputSink {
 public:
  void OnOutput(StreamId stream, const Tuple& tuple) override {
    log.push_back(std::to_string(stream) + ":" + tuple.ToString() + "@" +
                  std::to_string(tuple.ts()));
  }
  std::vector<std::string> log;
};

// Per-tuple pushes make every epoch a single tuple, so the ordered merge
// must reproduce the single-threaded output sequence *exactly* — byte for
// byte, across any shard count. Two-slot input rings keep the pusher
// stalling on a busy worker, draining the merge while it routes; repeated
// runs vary where those stalls land.
TEST(ShardedExecutorTest, PerTuplePushesReproduceSingleThreadedOrder) {
  Schema schema = IntSchema(3);
  Catalog catalog;
  catalog.AddSource("S", schema);
  std::vector<Query> queries;
  for (const auto& [text, name] :
       {std::pair{"SELECT * FROM S WHERE a0 < 3", "SEL"},
        std::pair{"SELECT a0, SUM(a1) FROM S [RANGE 16] GROUP BY a0",
                  "AGG"}}) {
    auto parsed = ParseQuery(text, catalog);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    queries.push_back(std::move(parsed).value());
    queries.back().name = name;
  }
  auto build = [&queries](int, Plan* plan, OptimizeStats* stats) {
    auto compiled = CompileQueries(queries, plan);
    if (!compiled.ok()) return compiled.status();
    *stats = Optimize(plan);
    return Status::OK();
  };
  Rng rng(42);
  std::vector<Tuple> feed;
  for (int i = 0; i < 500; ++i) {
    feed.push_back(Tuple::MakeInts(
        {rng.UniformInt(0, 5), rng.UniformInt(0, 99), rng.UniformInt(0, 9)},
        i));
  }

  Plan plan;
  OptimizeStats stats;
  ASSERT_TRUE(build(0, &plan, &stats).ok());
  LogSink reference;
  Executor single(&plan, &reference);
  single.Prepare();
  const StreamId source = SourceId(plan, "S");
  for (const Tuple& t : feed) single.PushSource(source, t);
  ASSERT_FALSE(reference.log.empty());

  constexpr int kRepeats = 50;
  for (int shards : {2, 4, 7}) {
    for (int rep = 0; rep < kRepeats; ++rep) {
      LogSink merged;
      ShardedExecutor::Options options;
      options.num_shards = shards;
      options.in_ring = 2;
      ShardedExecutor exec(options, build, &merged);
      ASSERT_TRUE(exec.Prepare().ok());
      for (const Tuple& t : feed) exec.PushSource(source, t);
      exec.Flush();
      ASSERT_EQ(merged.log, reference.log)
          << "shards=" << shards << " repeat=" << rep;
    }
  }
}

// Tiny rings force every backpressure path: the pusher waiting on in-shells
// while draining the merge, and workers waiting on out-shell recycling.
TEST(ShardedExecutorTest, BackpressureWithTinyRings) {
  Schema schema = IntSchema(2);
  std::vector<Query> queries = {
      QueryBuilder::FromSource("S", schema).Select("a0 >= 0").Build("ALL")};
  CountingSink sink;
  ShardedExecutor::Options options;
  options.num_shards = 3;
  options.in_ring = 2;
  options.out_ring = 2;
  ShardedExecutor exec(
      options,
      [&queries](int, Plan* plan, OptimizeStats* stats) {
        auto compiled = CompileQueries(queries, plan);
        if (!compiled.ok()) return compiled.status();
        *stats = Optimize(plan);
        return Status::OK();
      },
      &sink);
  ASSERT_TRUE(exec.Prepare().ok());
  const StreamId s = SourceId(exec.plan(0), "S");

  std::vector<Tuple> batch;
  constexpr int kBatches = 64;
  constexpr int kPerBatch = 700;  // >> out-ring capacity in emitted blocks
  for (int b = 0; b < kBatches; ++b) {
    batch.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      batch.push_back(Tuple::MakeInts({i, b}, b * kPerBatch + i));
    }
    exec.PushSourceBatch(s, batch);
  }
  exec.Flush();
  EXPECT_EQ(sink.total(), int64_t{kBatches} * kPerBatch);
  exec.Stop();
}

// --- query churn on a running sharded engine ---------------------------------

TEST(ShardedEngineTest, AddAndRemoveQueriesWhileRunning) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(3).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE a0 = 1", "Q1").ok());
  std::map<std::string, int64_t> counts;
  engine.SetOutputHandler(
      [&](const std::string& q, const Tuple&) { ++counts[q]; });
  ASSERT_TRUE(engine.Start().ok());

  int64_t ts = 0;
  auto push_round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          engine.Push("CPU", Tuple::MakeInts({i % 4, i}, ++ts)).ok());
    }
    engine.Flush();  // quiesce before reading counts
  };
  push_round(40);
  EXPECT_EQ(counts["Q1"], 10);

  // Live add: merges into the running replicas (CSE with Q1's subtree).
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE a0 = 1", "Q2").ok());
  ASSERT_TRUE(engine
                  .AddQueryText(
                      "SELECT a0, SUM(a1) FROM CPU [RANGE 8] GROUP BY a0",
                      "Q3")
                  .ok());
  push_round(40);
  EXPECT_EQ(counts["Q1"], 20);
  EXPECT_EQ(counts["Q2"], 10);
  EXPECT_EQ(counts["Q3"], 40);

  // Live remove: Q1's shared operators must keep serving Q2.
  ASSERT_TRUE(engine.RemoveQuery("Q1").ok());
  push_round(40);
  EXPECT_EQ(counts["Q1"], 20) << "removed query must stop producing";
  EXPECT_EQ(counts["Q2"], 20);
  EXPECT_EQ(counts["Q3"], 80);
  EXPECT_EQ(engine.num_queries(), 2);

  // Errors surface, engine stays usable.
  EXPECT_FALSE(engine.AddQueryText("SELECT * FROM NOPE", "BAD").ok());
  EXPECT_FALSE(engine.RemoveQuery("GHOST").ok());
  push_round(4);
  EXPECT_EQ(counts["Q2"], 21);
}

// --- replica identity --------------------------------------------------------

// Every replica is built the same way (compile, share index, optimizer),
// so a sharded engine's replicas must equal the one-shard plan
// m-op for m-op, id for id.
std::string StartedPlan(int shards,
                        const std::function<void(StreamEngine*)>& setup) {
  StreamEngine engine;
  RUMOR_CHECK(engine.SetShardCount(shards).ok());
  setup(&engine);
  RUMOR_CHECK(engine.Start().ok());
  return ExplainPlan(engine.plan_for_testing());
}

// Returns the one-shard plan.
std::string ExpectReplicasMatchOneShard(
    const std::function<void(StreamEngine*)>& setup) {
  const std::string one = StartedPlan(1, setup);
  for (int shards : {2, 4}) {
    EXPECT_EQ(StartedPlan(shards, setup), one) << "shards=" << shards;
  }
  return one;
}

TEST(ShardedEngineTest, ReplicasMatchOneShardPlanOnWorkload1) {
  // fig9a's standing set: 1000 Workload-1 queries at the Table-3 defaults.
  SyntheticParams params;
  const Schema schema = params.MakeSchema();
  Rng rng(params.seed);
  const std::vector<W1Spec> specs = DrawW1Specs(params, rng);
  std::vector<Query> queries;
  for (size_t i = 0; i < specs.size(); ++i) {
    queries.push_back(MakeW1Query("Q" + std::to_string(i), specs[i], schema));
  }
  const std::string one =
      ExpectReplicasMatchOneShard([&](StreamEngine* engine) {
        RUMOR_CHECK(engine->RegisterSource("S", schema).ok());
        RUMOR_CHECK(engine->RegisterSource("T", schema).ok());
        for (const Query& q : queries) RUMOR_CHECK(engine->AddQuery(q).ok());
      });
  // The figure benches' path (RunRumor): compile, then Optimize without an
  // index. It must build the engine's plan.
  Plan plan;
  ASSERT_TRUE(CompileQueries(queries, &plan).ok());
  Optimize(&plan);
  EXPECT_EQ(ExplainPlan(plan), one);
}

TEST(ShardedEngineTest, ReplicasMatchOneShardPlanOnPerfmonAggregates) {
  // 20 windowed GROUP BY aggregates over the perfmon stream, merged by sα.
  ExpectReplicasMatchOneShard([](StreamEngine* engine) {
    RUMOR_CHECK(engine->RegisterSource("CPU", PerfmonSchema()).ok());
    const char* const fns[] = {"MIN", "MAX", "AVG", "SUM"};
    for (int i = 0; i < 20; ++i) {
      RUMOR_CHECK(engine
                      ->AddQueryText(std::string("SELECT pid, ") + fns[i % 4] +
                                         "(load) FROM CPU [RANGE " +
                                         std::to_string(60 + 12 * i + i % 5) +
                                         "] GROUP BY pid",
                                     "A" + std::to_string(i))
                      .ok());
    }
  });
}

// --- metrics aggregation -----------------------------------------------------

TEST(ShardedEngineTest, CollectMetricsAggregatesAcrossWorkers) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(2).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM S WHERE a0 < 2", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTuples = 200;
  std::vector<Tuple> batch;
  for (int i = 0; i < kTuples; ++i) {
    batch.push_back(Tuple::MakeInts({i % 4, i}, i));
  }
  ASSERT_TRUE(engine.PushBatch("S", batch).ok());

  EngineMetrics em = engine.CollectMetrics();
  EXPECT_EQ(em.shards, 2);
  ASSERT_EQ(em.shard_rows.size(), 2u);
  // Round-robined stateless route: both workers must have done real work.
  EXPECT_GT(em.shard_rows[0].deliveries, 0);
  EXPECT_GT(em.shard_rows[1].deliveries, 0);
  EXPECT_EQ(em.deliveries,
            em.shard_rows[0].deliveries + em.shard_rows[1].deliveries);
  // Per-m-op rows are summed across replicas: the selection must have seen
  // every tuple exactly once in aggregate.
  bool found = false;
  for (const EngineMetrics::MopRow& row : em.mops) {
    if (std::string(row.type).find("select") != std::string::npos ||
        row.m.tuples_in == kTuples) {
      found = found || row.m.tuples_in == kTuples;
    }
  }
  EXPECT_TRUE(found) << em.ToString();
  EXPECT_EQ(em.query_rows.size(), 1u);
  EXPECT_EQ(em.query_rows[0].outputs, kTuples / 2);
  EXPECT_NE(em.ToJson().find("\"shard_rows\""), std::string::npos);
  EXPECT_NE(em.ToString().find("sharded over 2 workers"), std::string::npos);
  // Explain carries the routing table.
  EXPECT_NE(engine.Explain().find("sharding over 2 shard(s)"),
            std::string::npos);
}

// Read-only replica commands (metrics reads, checkpoints) must not reset
// the round-robin cursors: a stateless query's tuples keep alternating
// between the shards even when every push is followed by CollectMetrics().
TEST(ShardedEngineTest, ReadOnlyCommandsKeepRoundRobinRouting) {
  StreamEngine engine;
  ASSERT_TRUE(engine.SetShardCount(2).ok());
  ASSERT_TRUE(engine.RegisterSource("S", IntSchema(2)).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM S WHERE a0 >= 0", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({i, i}, i)).ok());
    engine.CollectMetrics();
  }
  const EngineMetrics em = engine.CollectMetrics();
  ASSERT_EQ(em.shard_rows.size(), 2u);
  EXPECT_EQ(em.shard_rows[0].deliveries, em.shard_rows[1].deliveries);
  EXPECT_GT(em.shard_rows[1].deliveries, 0);
  EXPECT_EQ(engine.OutputCount("Q"), 6);
}

TEST(ShardedEngineTest, ShardCountOneKeepsSingleThreadedExecutor) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", IntSchema(2)).ok());
  ASSERT_TRUE(engine.SetShardCount(1).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM S", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_FALSE(engine.SetShardCount(2).ok()) << "post-Start must fail";
  ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({1, 2}, 0)).ok());
  EngineMetrics em = engine.CollectMetrics();
  EXPECT_EQ(em.shards, 1);
  EXPECT_TRUE(em.shard_rows.empty());
}

}  // namespace
}  // namespace rumor
