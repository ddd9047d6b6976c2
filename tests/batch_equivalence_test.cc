// Batched execution must be observably identical to event-at-a-time
// execution: for every workload, pushing the feed through PushSourceBatch
// (grouped into maximal same-stream runs) must produce byte-identical
// per-query sink output and the same number of m-op deliveries as pushing
// tuple by tuple. Also checks the two-stacks MIN/MAX window aggregation
// against a brute-force recompute of every window under both dispatch
// modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"
#include "workload/perfmon.h"
#include "workload/workloads.h"

namespace rumor {
namespace {

struct RunResult {
  // query name -> rendered output tuples, in delivery order.
  std::map<std::string, std::vector<std::string>> outputs;
  int64_t deliveries = 0;
};

// Runs `queries` over `events`; batch_size 0 = event-at-a-time reference.
RunResult RunWorkload(const std::vector<Query>& queries,
              const std::vector<Event>& events,
              const std::vector<std::string>& stream_names,
              int64_t batch_size) {
  Plan plan;
  auto compiled = CompileQueries(queries, &plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  Optimize(&plan);
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  std::vector<StreamId> streams;
  for (const std::string& name : stream_names) {
    streams.push_back(*plan.streams().FindSource(name));
  }

  if (batch_size == 0) {
    for (const Event& e : events) {
      exec.PushSource(streams[e.stream], e.tuple);
    }
  } else {
    std::vector<Tuple> batch;
    size_t i = 0;
    while (i < events.size()) {
      const int stream = events[i].stream;
      batch.clear();
      while (i < events.size() && events[i].stream == stream &&
             static_cast<int64_t>(batch.size()) < batch_size) {
        batch.push_back(events[i].tuple);
        ++i;
      }
      exec.PushSourceBatch(streams[stream], batch);
    }
  }

  RunResult result;
  result.deliveries = exec.deliveries();
  for (const Query& q : queries) {
    auto stream = plan.OutputStreamOf(q.name);
    RUMOR_CHECK(stream.has_value());
    std::vector<std::string>& rendered = result.outputs[q.name];
    for (const Tuple& t : sink.ForStream(*stream)) {
      rendered.push_back(t.ToString());
    }
  }
  return result;
}

void ExpectBatchEquivalence(const std::vector<Query>& queries,
                            const std::vector<Event>& events,
                            const std::vector<std::string>& stream_names) {
  RunResult reference = RunWorkload(queries, events, stream_names, 0);
  int64_t total = 0;
  for (const auto& [name, tuples] : reference.outputs) {
    total += tuples.size();
  }
  EXPECT_GT(total, 0) << "workload produced no output; vacuous comparison";
  for (int64_t batch_size : {1, 7, 64, 100000}) {
    RunResult batched = RunWorkload(queries, events, stream_names, batch_size);
    EXPECT_EQ(batched.outputs, reference.outputs)
        << "batch_size=" << batch_size;
    EXPECT_EQ(batched.deliveries, reference.deliveries)
        << "batch_size=" << batch_size;
  }
}

// Interleaved S/T feed with same-stream bursts so batches exercise runs of
// length > 1 (the strictly alternating generator feed would degenerate to
// single-tuple batches).
std::vector<Event> BurstyFeed(const SyntheticParams& params, int64_t count,
                              int64_t burst, Rng& rng) {
  std::vector<Event> events =
      GenerateInterleaved(params, count, 0, rng);
  for (int64_t i = 0; i < count; ++i) {
    events[i].stream = static_cast<int>((i / burst) % 2);
  }
  return events;
}

TEST(BatchEquivalenceTest, W1SelectionSequence) {
  SyntheticParams params;
  params.num_queries = 8;
  params.constant_domain = 4;
  Rng rng(3);
  auto specs = DrawW1Specs(params, rng);
  Schema schema = params.MakeSchema();
  std::vector<Query> queries;
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].c1 %= 4;
    specs[i].c3 %= 4;
    queries.push_back(MakeW1Query("Q" + std::to_string(i), specs[i], schema));
  }
  Rng feed(99);
  ExpectBatchEquivalence(queries, BurstyFeed(params, 600, 5, feed),
                         {"S", "T"});
}

TEST(BatchEquivalenceTest, W2SequenceAndIterate) {
  SyntheticParams params;
  params.num_queries = 5;
  params.constant_domain = 4;
  for (bool iterate : {false, true}) {
    Rng rng(4);
    auto specs = DrawW2Specs(params, iterate, rng);
    Schema schema = params.MakeSchema();
    std::vector<Query> queries;
    for (size_t i = 0; i < specs.size(); ++i) {
      queries.push_back(
          MakeW2Query("Q" + std::to_string(i), specs[i], schema));
    }
    Rng feed(98);
    ExpectBatchEquivalence(queries, BurstyFeed(params, 400, 3, feed),
                           {"S", "T"});
  }
}

TEST(BatchEquivalenceTest, HybridPerfmonQueries) {
  PerfmonParams params;
  params.num_processes = 8;
  params.duration_seconds = 120;
  auto trace = GeneratePerfmonTrace(params);
  std::vector<Event> events;
  for (const Tuple& t : trace) events.push_back(Event{0, t});
  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(MakeHybridQuery(i, /*sel=*/0.8, /*smooth_window=*/10));
  }
  ExpectBatchEquivalence(queries, events, {"CPU"});
}

// Brute-force oracle for a windowed per-pid MIN/MAX query over the perfmon
// feed: for every event, the extremum of `load` over the earlier-or-same
// events of its pid inside the window (ts in (now - window, now]), rendered
// like the engine's (pid, aggregate) output rows.
std::vector<std::string> BruteForceMinMax(const std::vector<Event>& events,
                                          bool is_min, int64_t window) {
  std::vector<std::string> out;
  for (size_t i = 0; i < events.size(); ++i) {
    const Tuple& now = events[i].tuple;
    const int64_t pid = now.at(0).AsInt();
    int64_t best = now.at(1).AsInt();
    for (size_t j = 0; j < i; ++j) {
      const Tuple& t = events[j].tuple;
      if (t.at(0).AsInt() != pid || t.ts() <= now.ts() - window) continue;
      const int64_t load = t.at(1).AsInt();
      best = is_min ? std::min(best, load) : std::max(best, load);
    }
    out.push_back(Tuple::MakeInts({pid, best}, now.ts()).ToString());
  }
  return out;
}

TEST(BatchEquivalenceTest, SharedMinMaxAggregationAcrossImplementations) {
  // N MIN + N MAX queries with distinct windows over one source; rule sα
  // merges each function group into one shared two-stacks engine. Both
  // dispatch modes must reproduce a brute-force recompute of every window.
  PerfmonParams params;
  params.num_processes = 6;
  params.duration_seconds = 200;
  auto trace = GeneratePerfmonTrace(params);
  std::vector<Event> events;
  for (const Tuple& t : trace) events.push_back(Event{0, t});

  std::vector<Query> queries;
  std::map<std::string, std::vector<std::string>> oracle;
  Schema schema = PerfmonSchema();
  for (int i = 0; i < 4; ++i) {
    const int64_t min_window = 10 + 13 * i;
    const int64_t max_window = 7 + 11 * i;
    queries.push_back(QueryBuilder::FromSource("CPU", schema)
                          .Aggregate(AggFn::kMin, "load", {"pid"}, min_window)
                          .Build("MIN" + std::to_string(i)));
    queries.push_back(QueryBuilder::FromSource("CPU", schema)
                          .Aggregate(AggFn::kMax, "load", {"pid"}, max_window)
                          .Build("MAX" + std::to_string(i)));
    oracle["MIN" + std::to_string(i)] =
        BruteForceMinMax(events, /*is_min=*/true, min_window);
    oracle["MAX" + std::to_string(i)] =
        BruteForceMinMax(events, /*is_min=*/false, max_window);
  }

  ExpectBatchEquivalence(queries, events, {"CPU"});
  RunResult two_stacks = RunWorkload(queries, events, {"CPU"}, 0);
  EXPECT_EQ(two_stacks.outputs, oracle)
      << "two-stacks MIN/MAX diverged from the brute-force recompute";
}

// A sink handler may push back into the executor from inside a batch; the
// nested tuples must be deferred until the batch's own tuples have reached
// their consumers (running them mid-batch would deliver a later timestamp
// ahead of buffered earlier ones). With independent sources, both dispatch
// modes must agree on every query's output.
TEST(BatchEquivalenceTest, ReentrantSinkPushIsDeferred) {
  Schema schema = Schema::MakeInts(2);
  Query qa = QueryBuilder::FromSource("A", schema)
                 .Aggregate(AggFn::kMin, "a1", {}, 10)
                 .Build("QA");
  Query qb = QueryBuilder::FromSource("B", schema)
                 .Count({}, 5)
                 .Build("QB");

  class FeedbackSink : public CollectingSink {
   public:
    Executor* exec = nullptr;
    StreamId b_stream = -1;
    StreamId a_out = -1;
    void OnOutput(StreamId stream, const Tuple& t) override {
      CollectingSink::OnOutput(stream, t);
      if (stream == a_out && pushed_ < 50) {
        ++pushed_;
        exec->PushSource(b_stream, Tuple::MakeInts({9, pushed_}, t.ts()));
      }
    }

   private:
    int pushed_ = 0;
  };

  auto run = [&](int64_t batch_size) {
    Plan plan;
    auto compiled = CompileQueries({qa, qb}, &plan);
    RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
    Optimize(&plan);
    FeedbackSink sink;
    Executor exec(&plan, &sink);
    exec.Prepare();
    sink.exec = &exec;
    sink.b_stream = *plan.streams().FindSource("B");
    sink.a_out = *plan.OutputStreamOf("QA");
    StreamId a = *plan.streams().FindSource("A");
    std::vector<Tuple> feed;
    Rng rng(17);
    for (int ts = 0; ts < 100; ++ts) {
      feed.push_back(Tuple::MakeInts({ts, rng.UniformInt(0, 99)}, ts));
    }
    if (batch_size == 0) {
      for (const Tuple& t : feed) exec.PushSource(a, t);
    } else {
      exec.PushSourceBatch(a, feed);
    }
    auto render = [&](const char* q) {
      std::vector<std::string> out;
      for (const Tuple& t : sink.ForStream(*plan.OutputStreamOf(q))) {
        out.push_back(t.ToString());
      }
      return out;
    };
    return std::make_pair(render("QA"), render("QB"));
  };

  auto reference = run(0);
  auto batched = run(64);
  EXPECT_EQ(batched.first, reference.first);
  EXPECT_EQ(batched.second, reference.second);
  EXPECT_EQ(reference.second.size(), 50u);
}

TEST(BatchEquivalenceTest, W3ChannelBatches) {
  // Workload 3 feeds a source-group channel directly; PushChannelBatch must
  // match per-tuple PushChannel. The plan joins the channel against T, so
  // the channel root is batch-unsafe and exercises the fallback.
  const int n = 6;
  Schema schema = SyntheticParams().MakeSchema();
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) {
    queries.push_back(MakeW3Query("Q" + std::to_string(i), i, 50, schema));
  }
  auto run = [&](bool batched) {
    Plan plan;
    auto compiled = CompileQueries(queries, &plan);
    RUMOR_CHECK(compiled.ok());
    OptimizerOptions opts;
    opts.enable_channels = true;
    Optimize(&plan, opts);
    CollectingSink sink;
    Executor exec(&plan, &sink);
    exec.Prepare();
    auto groups = plan.SourceGroupChannels();
    RUMOR_CHECK(groups.size() == 1);
    StreamId t_stream = *plan.streams().FindSource("T");
    Rng rng(5);
    std::vector<ChannelTuple> pending;
    for (int r = 0; r < 200; ++r) {
      Tuple s = Tuple::MakeInts({rng.UniformInt(0, 3), 0}, 2 * r);
      ChannelTuple ct{s, BitVector::AllOnes(n)};
      if (batched) {
        pending.push_back(ct);
      } else {
        exec.PushChannel(groups[0], ct);
      }
      if (r % 8 == 7) {
        if (batched) {
          exec.PushChannelBatch(groups[0], pending);
          pending.clear();
        }
        Tuple t = Tuple::MakeInts({rng.UniformInt(0, 3), 0}, 2 * r + 1);
        exec.PushSource(t_stream, t);
      }
    }
    exec.PushChannelBatch(groups[0], pending);
    std::map<std::string, std::vector<std::string>> outputs;
    for (const Query& q : queries) {
      for (const Tuple& t : sink.ForStream(*plan.OutputStreamOf(q.name))) {
        outputs[q.name].push_back(t.ToString());
      }
    }
    return std::make_pair(outputs, exec.deliveries());
  };
  auto per_tuple = run(false);
  auto batched = run(true);
  EXPECT_EQ(batched.first, per_tuple.first);
  EXPECT_EQ(batched.second, per_tuple.second);
  int64_t total = 0;
  for (const auto& [name, tuples] : per_tuple.first) total += tuples.size();
  EXPECT_GT(total, 0);
}

}  // namespace
}  // namespace rumor
