// Fault-injection framework (common/failpoint.h): trigger modes, hit
// accounting, and the failpoint-instrumented snapshot file IO and data-plane
// sites.
#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "common/snapshot_io.h"
#include "common/tuple.h"
#include "plan/compile.h"
#include "plan/sharded_executor.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(FailpointTest, DisarmedSiteNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(RUMOR_FAILPOINT("test/disarmed"));
  }
}

TEST_F(FailpointTest, AlwaysFiresOnEveryHit) {
  ASSERT_TRUE(failpoint::Set("test/always", "always"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(RUMOR_FAILPOINT("test/always"));
  }
  EXPECT_EQ(failpoint::HitCount("test/always"), 10);
}

TEST_F(FailpointTest, AfterSkipsNThenFiresExactlyOnce) {
  ASSERT_TRUE(failpoint::Set("test/after", "after(3)"));
  EXPECT_FALSE(RUMOR_FAILPOINT("test/after"));
  EXPECT_FALSE(RUMOR_FAILPOINT("test/after"));
  EXPECT_FALSE(RUMOR_FAILPOINT("test/after"));
  EXPECT_TRUE(RUMOR_FAILPOINT("test/after"));  // hit N+1 fires
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(RUMOR_FAILPOINT("test/after"));  // one-shot
  }
}

TEST_F(FailpointTest, ProbIsDeterministicPerSeed) {
  auto pattern = [](const std::string& mode) {
    failpoint::Set("test/prob", mode);
    std::string out;
    for (int i = 0; i < 64; ++i) {
      out += RUMOR_FAILPOINT("test/prob") ? '1' : '0';
    }
    return out;
  };
  const std::string a = pattern("prob(0.5,42)");
  const std::string b = pattern("prob(0.5,42)");
  EXPECT_EQ(a, b);  // same seed, same firing pattern
  const std::string c = pattern("prob(0.5,43)");
  EXPECT_NE(a, c);  // different seed, different pattern
  // A 0.5 probability over 64 hits fires somewhere strictly between the
  // extremes (the chance of all-or-nothing is 2^-63).
  const size_t fired = static_cast<size_t>(
      std::count(a.begin(), a.end(), '1'));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
}

TEST_F(FailpointTest, ProbExtremesAreExact) {
  failpoint::Set("test/p0", "prob(0.0,1)");
  failpoint::Set("test/p1", "prob(1.0,1)");
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(RUMOR_FAILPOINT("test/p0"));
    EXPECT_TRUE(RUMOR_FAILPOINT("test/p1"));
  }
}

TEST_F(FailpointTest, ClearDisarms) {
  failpoint::Set("test/clear", "always");
  EXPECT_TRUE(RUMOR_FAILPOINT("test/clear"));
  failpoint::Clear("test/clear");
  EXPECT_FALSE(RUMOR_FAILPOINT("test/clear"));
}

TEST_F(FailpointTest, OffModeParsesAndDisarms) {
  failpoint::Set("test/off", "always");
  ASSERT_TRUE(failpoint::Set("test/off", "off"));
  EXPECT_FALSE(RUMOR_FAILPOINT("test/off"));
}

TEST_F(FailpointTest, BadModeStringsAreRejected) {
  EXPECT_FALSE(failpoint::Set("test/bad", "sometimes"));
  EXPECT_FALSE(failpoint::Set("test/bad", "after(x)"));
  EXPECT_FALSE(failpoint::Set("test/bad", "prob(2.0,1)"));
  EXPECT_FALSE(failpoint::Set("test/bad", ""));
  EXPECT_FALSE(RUMOR_FAILPOINT("test/bad"));
}

// --- instrumented snapshot file IO -------------------------------------------

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST_F(FailpointTest, TornWriteIsReportedAndDetected) {
  const std::string path = TempPath("torn.snap");
  failpoint::Set("snapshot/write-torn", "always");
  Status st = WriteFileBytes(path, std::string(1024, 'x'));
  EXPECT_FALSE(st.ok());  // the writer itself notices the short write
  failpoint::ClearAll();

  // The half-written file must not parse as a snapshot.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  EXPECT_LT(bytes.size(), 1024u);
  std::vector<SnapshotSectionView> sections;
  EXPECT_FALSE(ParseSnapshot(bytes, &sections).ok());
  std::remove(path.c_str());
}

TEST_F(FailpointTest, ShortReadAndBitFlipAreCaughtByValidation) {
  const std::string path = TempPath("corrupt.snap");
  SnapshotBuilder builder;
  SnapshotWriter w;
  w.Str("payload payload payload payload");
  builder.AddSection(SnapshotSection::kEngine, w.Take());
  const std::string snapshot = builder.Take();
  ASSERT_TRUE(WriteFileBytes(path, snapshot).ok());

  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  std::vector<SnapshotSectionView> sections;
  ASSERT_TRUE(ParseSnapshot(bytes, &sections).ok());  // clean read parses

  failpoint::Set("snapshot/read-short", "always");
  bytes.clear();
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  EXPECT_LT(bytes.size(), snapshot.size());
  EXPECT_FALSE(ParseSnapshot(bytes, &sections).ok());
  failpoint::ClearAll();

  failpoint::Set("snapshot/read-flip", "always");
  bytes.clear();
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  EXPECT_EQ(bytes.size(), snapshot.size());
  EXPECT_FALSE(ParseSnapshot(bytes, &sections).ok());  // CRC rejects the flip
  std::remove(path.c_str());
}

// --- instrumented data-plane sites -------------------------------------------

// A stalled shell acquisition must only slow the sharded ingress down,
// never change what comes out: outputs under a 20% spurious free-ring miss
// rate match the unfaulted run exactly. A miss takes the slow path (drain
// the merge, then retry), whose time the push-stall gauge accounts.
TEST_F(FailpointTest, SpscAcquireStallPreservesShardedOutputs) {
  int64_t stall_ns = 0;
  auto run = [&stall_ns] {
    StreamEngine engine;
    EXPECT_TRUE(engine.SetShardCount(2).ok());
    std::vector<std::string> out;
    engine.SetOutputHandler([&out](const std::string& q, const Tuple& t) {
      out.push_back(q + t.ToString());
    });
    EXPECT_TRUE(engine
                    .RegisterSource("S", Schema({{"k", ValueType::kInt},
                                                 {"v", ValueType::kInt}}))
                    .ok());
    EXPECT_TRUE(
        engine.AddQueryText("SELECT * FROM S WHERE v > 50", "Q").ok());
    EXPECT_TRUE(engine.Start().ok());
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(
          engine.Push("S", Tuple::MakeInts({i % 7, (i * 31) % 100}, i)).ok());
    }
    engine.Flush();
    stall_ns = 0;
    for (const EngineMetrics::ShardRow& row :
         engine.CollectMetrics().shard_rows) {
      stall_ns += row.push_stall_ns;
    }
    return out;
  };
  const std::vector<std::string> clean = run();
  ASSERT_FALSE(clean.empty());
  failpoint::Set("spsc/acquire-stall", "prob(0.2,11)");
  const std::vector<std::string> faulted = run();
  EXPECT_EQ(faulted, clean);
  EXPECT_GT(failpoint::HitCount("spsc/acquire-stall"), 0);
#if RUMOR_METRICS_ENABLED
  EXPECT_GT(stall_ns, 0) << "forced stalls must reach the stall gauge";
#endif
}

// The stall path must drain the ordered merge while it waits for a shell:
// with tiny rings and every input tuple emitting dozens of outputs, a worker
// fills its two out-shells mid-epoch and parks until the merge recycles
// them, still holding its in-shell. The pusher, forced onto the stall path
// on every free-ring acquisition, then waits for that in-shell — and only
// its own draining lets the worker finish. A stall path that merely
// retried would deadlock, so a watchdog bounds the run and fails the test
// instead of hanging.
TEST_F(FailpointTest, SpscAcquireStallDrainsTheMerge) {
  constexpr int kQueries = 40;
  constexpr int kBatches = 16;
  constexpr int kPerBatch = 64;
  std::vector<Query> queries;
  const Schema schema = Schema::MakeInts(2);
  for (int q = 0; q < kQueries; ++q) {
    // Distinct predicates (no CSE), all true on the feed below.
    queries.push_back(QueryBuilder::FromSource("S", schema)
                          .Select("a1 >= " + std::to_string(q))
                          .Build("Q" + std::to_string(q)));
  }
  CountingSink sink;
  ShardedExecutor::Options options;
  options.num_shards = 2;
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
  const StreamId source = *exec.plan(0).streams().FindSource("S");
  ASSERT_TRUE(failpoint::Set("spsc/acquire-stall", "always"));

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(60), [&] { return done; })) {
      std::fprintf(stderr,
                   "SpscAcquireStallDrainsTheMerge: pushes did not finish "
                   "within 60 s; the acquire-stall path does not drain the "
                   "merge\n");
      std::fflush(stderr);
      std::_Exit(1);
    }
  });
  std::vector<Tuple> batch;
  for (int b = 0; b < kBatches; ++b) {
    batch.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      batch.push_back(Tuple::MakeInts({i, kQueries}, b * kPerBatch + i));
    }
    exec.PushSourceBatch(source, batch);
  }
  exec.Flush();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();

  EXPECT_EQ(sink.total(), int64_t{kQueries} * kBatches * kPerBatch);
#if RUMOR_FAILPOINTS_ENABLED
  EXPECT_GT(failpoint::HitCount("spsc/acquire-stall"), 0);
#endif
}

TEST_F(FailpointTest, ArenaAllocFailpointForcesHeapPath) {
  TupleArena* arena = TupleArena::Default();
  // Warm the pool: allocate and release one block so a freelist holds it.
  { Tuple t = Tuple::MakeInts({1, 2, 3}, 0); }
  ASSERT_GT(arena->pooled(), 0);
  const int64_t before = arena->allocations();
  failpoint::Set("arena/alloc", "always");
  // With the failpoint armed the pooled block is bypassed: a fresh heap
  // block is allocated even though one is free.
  Tuple t = Tuple::MakeInts({1, 2, 3}, 1);
  EXPECT_GT(arena->allocations(), before);
}

}  // namespace
}  // namespace rumor
