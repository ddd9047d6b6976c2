#include "api/stream_engine.h"

#include <gtest/gtest.h>

#include <map>

#include "query/builder.h"

namespace rumor {
namespace {

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

TEST(StreamEngineTest, EndToEndWithRqlScript) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine
                  .AddScript("HOT: SELECT * FROM CPU WHERE load > 90;"
                             "COLD: SELECT * FROM CPU WHERE load < 5;")
                  .ok());
  std::map<std::string, int> counts;
  engine.SetOutputHandler(
      [&](const std::string& q, const Tuple&) { ++counts[q]; });
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 95}, 0)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({2, 2}, 1)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({3, 50}, 2)).ok());
  EXPECT_EQ(counts["HOT"], 1);
  EXPECT_EQ(counts["COLD"], 1);
  EXPECT_EQ(engine.OutputCount("HOT"), 1);
  EXPECT_EQ(engine.OutputCount("COLD"), 1);
}

TEST(StreamEngineTest, BuilderQueriesAndScriptMix) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  Query q = QueryBuilder::FromSource("CPU", CpuSchema())
                .Select("pid = 7")
                .Build("pid7");
  ASSERT_TRUE(engine.AddQuery(q).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM pid7 WHERE load > 50", "hot7")
          .ok());  // references the builder query by name
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({7, 80}, 0)).ok());
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({7, 10}, 1)).ok());
  EXPECT_EQ(engine.OutputCount("pid7"), 2);
  EXPECT_EQ(engine.OutputCount("hot7"), 1);
}

TEST(StreamEngineTest, CseMergedQueriesBothFire) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE load > 90", "A").ok());
  ASSERT_TRUE(
      engine.AddQueryText("SELECT * FROM CPU WHERE load > 90", "B").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.optimize_stats().cse_merges, 1);
  ASSERT_TRUE(engine.Push("CPU", Tuple::MakeInts({1, 99}, 0)).ok());
  EXPECT_EQ(engine.OutputCount("A"), 1);
  EXPECT_EQ(engine.OutputCount("B"), 1);
}

TEST(StreamEngineTest, OptimizerStatsExposed) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .AddQueryText(
                        "SELECT * FROM CPU WHERE pid = " + std::to_string(i),
                        "Q" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.optimize_stats().predicate_index_merges, 1);
  EXPECT_NE(engine.Explain().find("σ-index"), std::string::npos);
}

TEST(StreamEngineTest, ErrorsAreSurfaced) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  // Duplicate source.
  EXPECT_EQ(engine.RegisterSource("CPU", CpuSchema()).code(),
            StatusCode::kAlreadyExists);
  // Bad RQL.
  EXPECT_FALSE(engine.AddQueryText("SELECT FROM nothing", "X").ok());
  // Unknown stream in query.
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM NOPE", "Y").code(),
            StatusCode::kNotFound);
  // Start without queries.
  EXPECT_FALSE(engine.Start().ok());
  // Push before start.
  EXPECT_FALSE(engine.Push("CPU", Tuple::MakeInts({1, 1}, 0)).ok());
}

TEST(StreamEngineTest, LifecycleGuards) {
  StreamEngine engine;
  EXPECT_EQ(engine.state(), StreamEngine::State::kConfiguring);
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Q").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.state(), StreamEngine::State::kRunning);
  // The query set is dynamic: adds stay legal on a running engine (new
  // sources too), but duplicate names and double Start are rejected.
  EXPECT_TRUE(engine.RegisterSource("X", CpuSchema()).ok());
  EXPECT_TRUE(engine.AddQueryText("SELECT * FROM CPU", "Z").ok());
  EXPECT_EQ(engine.AddQueryText("SELECT * FROM CPU", "Z").code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(engine.Start().ok());
  EXPECT_EQ(engine.num_queries(), 2);
  // Pushing to an unconsumed source name fails cleanly.
  EXPECT_EQ(engine.Push("GONE", Tuple::MakeInts({0, 0}, 0)).code(),
            StatusCode::kNotFound);
  // Removing an unknown query fails cleanly; removing a live one works.
  EXPECT_EQ(engine.RemoveQuery("NOPE").code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.RemoveQuery("Z").ok());
  EXPECT_EQ(engine.num_queries(), 1);
}

TEST(StreamEngineTest, HybridScriptEndToEnd) {
  // The README/paper §4.1 script through the facade.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
  ASSERT_TRUE(
      engine
          .AddScript(
              "SMOOTHED: SELECT pid, AVG(load) FROM CPU [RANGE 5] "
              "GROUP BY pid;"
              "RAMPS: SELECT * FROM (SELECT * FROM SMOOTHED WHERE "
              "avg_load < 50) AS B ITERATE SMOOTHED AS E "
              "ON B.pid = E.pid AND E.avg_load > last.avg_load WITHIN 60;")
          .ok());
  ASSERT_TRUE(engine.Start().ok());
  // pid 1 ramps 10 -> 20 -> 30: the µ should fire on each extension.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        engine.Push("CPU", Tuple::MakeInts({1, 10 * (i + 1)}, i)).ok());
  }
  EXPECT_GT(engine.OutputCount("RAMPS"), 0);
}

// A failed Start() must leave nothing behind: here the second query
// declares source S with a different arity, so compiling the query set
// fails after the first query was already lowered into the plan. Once the
// bad query is removed, a retried Start() builds the good query alone.
TEST(StreamEngineTest, FailedStartCanBeRetried) {
  StreamEngine engine;
  ASSERT_TRUE(engine
                  .AddQuery(QueryBuilder::FromSource("S", Schema::MakeInts(2))
                                .Select("a0 > 0")
                                .Build("good"))
                  .ok());
  ASSERT_TRUE(engine
                  .AddQuery(QueryBuilder::FromSource("S", Schema::MakeInts(3))
                                .Select("a0 > 0")
                                .Build("bad"))
                  .ok());
  EXPECT_EQ(engine.Start().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.RemoveQuery("bad").ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Push("S", Tuple::MakeInts({i, i}, i)).ok());
  }
  EXPECT_EQ(engine.OutputCount("good"), 3);
  EXPECT_EQ(engine.plan_for_testing().outputs().size(), 1u);
}

// A predicate that is not bool is rejected when its query is added, before
// or after Start(), and the error names the expression. The good query's
// outputs stay as they are and the engine keeps running: evaluating such a
// predicate would abort every tenant at the next Push.
TEST(StreamEngineTest, NonBoolPredicatesAreRejected) {
  const std::vector<std::pair<std::string, std::string>> bad_rql = {
      {"SELECT * FROM CPU WHERE load + 1", "(l.load + 1)"},
      {"SELECT * FROM CPU WHERE load > 1 AND pid", "l.pid"},
      {"SELECT * FROM CPU WHERE NOT load", "l.load"},
  };
  const auto cpu = QueryBuilder::FromSource("CPU", CpuSchema());
  const Query bad_sequence =
      cpu.Sequence(cpu, "l.load - r.load", 100).Build("bad_sequence");
  auto expect_rejected = [&](StreamEngine* engine, const std::string& tag) {
    for (size_t i = 0; i < bad_rql.size(); ++i) {
      const Status s = engine->AddQueryText(
          bad_rql[i].first, tag + std::to_string(i));
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad_rql[i].first;
      EXPECT_NE(s.message().find(bad_rql[i].second), std::string::npos)
          << s.ToString();
    }
    Query sequence = bad_sequence;
    sequence.name = tag + "_sequence";
    const Status s = engine->AddQuery(sequence);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("(l.load - r.load)"), std::string::npos)
        << s.ToString();
  };
  auto run = [&](bool add_bad) {
    StreamEngine engine;
    EXPECT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    std::vector<std::string> rows;
    engine.SetOutputHandler([&rows](const std::string& q, const Tuple& t) {
      rows.push_back(q + t.ToString());
    });
    EXPECT_TRUE(
        engine.AddQueryText("SELECT * FROM CPU WHERE load > 50", "good").ok());
    if (add_bad) expect_rejected(&engine, "before");
    EXPECT_TRUE(engine.Start().ok());
    EXPECT_EQ(engine.num_queries(), 1);
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(engine.Push("CPU", Tuple::MakeInts({i, i * 11}, i)).ok());
      if (add_bad && i == 4) expect_rejected(&engine, "after");
    }
    EXPECT_EQ(engine.num_queries(), 1);
    return rows;
  };
  const std::vector<std::string> clean = run(false);
  EXPECT_EQ(clean.size(), 5u);
  EXPECT_EQ(run(true), clean);
}

}  // namespace
}  // namespace rumor
