#include "rules/rule_engine.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "common/str_util.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "query/builder.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

Tuple T10(std::vector<int64_t> firsts, Timestamp ts) {
  firsts.resize(10, 0);
  return Tuple::MakeInts(firsts, ts);
}

int CountMopsOfType(const Plan& plan, MopType type) {
  int n = 0;
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == type) ++n;
  }
  return n;
}

// --- SharableAnalysis -------------------------------------------------------

TEST(SharableTest, LabeledSourcesAreSharable) {
  Plan plan;
  StreamId a = plan.streams().AddSource("A", TenInts(), 3);
  StreamId b = plan.streams().AddSource("B", TenInts(), 3);
  StreamId c = plan.streams().AddSource("C", TenInts(), 4);
  StreamId d = plan.streams().AddSource("D", TenInts());
  SharableAnalysis sa(plan);
  EXPECT_TRUE(sa.Sharable(a, b));
  EXPECT_FALSE(sa.Sharable(a, c));
  EXPECT_FALSE(sa.Sharable(a, d));
  EXPECT_TRUE(sa.Sharable(d, d));  // reflexivity (base case 1)
}

TEST(SharableTest, SelectionTransparent) {
  // σ1(S) ~ σ2(S) ~ S even with different predicates.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan);
  auto q2 = CompileQuery(s.Select("a0 = 2").Build("Q2"), &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  SharableAnalysis sa(plan);
  StreamId src = *plan.streams().FindSource("S");
  EXPECT_TRUE(sa.Sharable(q1.value().output_stream, src));
  EXPECT_TRUE(
      sa.Sharable(q1.value().output_stream, q2.value().output_stream));
}

TEST(SharableTest, SameOpOnSharableInputsIsSharable) {
  // α(σ1(S)) ~ α(σ2(S)) when the aggregates have the same definition.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(
      s.Select("a0 = 1").Aggregate(AggFn::kSum, "a1", {"a2"}, 10).Build("Q1"),
      &plan);
  auto q2 = CompileQuery(
      s.Select("a0 = 2").Aggregate(AggFn::kSum, "a1", {"a2"}, 10).Build("Q2"),
      &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  SharableAnalysis sa(plan);
  EXPECT_TRUE(
      sa.Sharable(q1.value().output_stream, q2.value().output_stream));
}

TEST(SharableTest, DifferentDefinitionsNotSharable) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a2"}, 10).Build("Q1"), &plan);
  auto q2 = CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a2"}, 20).Build("Q2"), &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  SharableAnalysis sa(plan);
  EXPECT_FALSE(
      sa.Sharable(q1.value().output_stream, q2.value().output_stream));
}

TEST(SharableTest, EquivalenceLawsOnRandomPlans) {
  // Signature-based equality is an equivalence relation by construction;
  // sanity-check symmetry/transitivity over a compiled plan's streams.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts(), 0);
  for (int i = 0; i < 6; ++i) {
    auto q = s.Select(StrCat("a0 = ", i % 3)).Build(StrCat("Q", i));
    ASSERT_TRUE(CompileQuery(q, &plan).ok());
  }
  SharableAnalysis sa(plan);
  const int n = plan.streams().size();
  for (StreamId a = 0; a < n; ++a) {
    EXPECT_TRUE(sa.Sharable(a, a));
    for (StreamId b = 0; b < n; ++b) {
      EXPECT_EQ(sa.Sharable(a, b), sa.Sharable(b, a));
      for (StreamId c = 0; c < n; ++c) {
        if (sa.Sharable(a, b) && sa.Sharable(b, c)) {
          EXPECT_TRUE(sa.Sharable(a, c));
        }
      }
    }
  }
}

// --- individual rules --------------------------------------------------------

TEST(CseRuleTest, MergesIdenticalQueries) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto q1 = CompileQuery(s.Select("a0 = 5").Build("Q1"), &plan);
  auto q2 = CompileQuery(s.Select("a0 = 5").Build("Q2"), &plan);
  ASSERT_TRUE(q1.ok() && q2.ok());
  OptimizerOptions opts;
  opts.enable_predicate_index = false;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.cse_merges, 1);
  EXPECT_EQ(plan.LiveMops().size(), 1u);

  // Both queries now share one output stream, which receives the tuple.
  ASSERT_EQ(plan.outputs().size(), 2u);
  EXPECT_EQ(plan.outputs()[0].stream, plan.outputs()[1].stream);
  CountingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId src = *plan.streams().FindSource("S");
  exec.PushSource(src, T10({5}, 0));
  EXPECT_EQ(sink.ForStream(plan.outputs()[0].stream), 1);
}

TEST(OptimizeStatsTest, RoundsCountsTheRoundsRun) {
  auto s = QueryBuilder::FromSource("S", TenInts());
  // Nothing to merge: the first round already finds the fixpoint.
  Plan single;
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 5").Build("Q1"), &single).ok());
  EXPECT_EQ(Optimize(&single).rounds, 1);

  // Two duplicates: round 1 merges them, round 2 merges nothing and stops.
  Plan twins;
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 5").Build("Q1"), &twins).ok());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 5").Build("Q2"), &twins).ok());
  OptimizeStats stats = Optimize(&twins);
  EXPECT_EQ(stats.cse_merges, 1);
  EXPECT_EQ(stats.rounds, 2);
}

TEST(CseRuleTest, MergesPatternPrefixes) {
  // Two sequence queries sharing σ(S) and the full ; — prefix merging.
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  auto make = [&](const std::string& name) {
    return s.Select("a0 = 1")
        .Sequence(t, "l.a1 = r.a1", 100)
        .Build(name);
  };
  ASSERT_TRUE(CompileQuery(make("Q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(make("Q2"), &plan).ok());
  EXPECT_EQ(plan.LiveMops().size(), 4u);  // 2 σ + 2 ;
  OptimizerOptions opts;
  opts.enable_channels = false;
  Optimize(&plan, opts);
  EXPECT_EQ(plan.LiveMops().size(), 2u);  // σ + ;
}

TEST(PredicateIndexRuleTest, MergesSelectionsOnSameStream) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CompileQuery(
                    s.Select(StrCat("a0 = ", i)).Build(StrCat("Q", i)), &plan)
                    .ok());
  }
  OptimizerOptions opts;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.predicate_index_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kPredicateIndex), 1);
  EXPECT_EQ(plan.LiveMops().size(), 1u);

  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId src = *plan.streams().FindSource("S");
  exec.PushSource(src, T10({3}, 0));
  EXPECT_EQ(sink.total(), 1);  // only Q3 matches
}

TEST(SharedAggregateRuleTest, MergesDifferentGroupBys) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(
                  s.Aggregate(AggFn::kSum, "a1", {"a0"}, 10).Build("Q1"),
                  &plan)
                  .ok());
  ASSERT_TRUE(CompileQuery(
                  s.Aggregate(AggFn::kSum, "a1", {"a2"}, 20).Build("Q2"),
                  &plan)
                  .ok());
  OptimizerOptions opts;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.shared_aggregate_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kSharedAggregate), 1);
}

TEST(SharedJoinRuleTest, MergesDifferentWindows) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  ASSERT_TRUE(
      CompileQuery(s.Join(t, "S.a0 = T.a0", 10, 10).Build("Q1"), &plan)
          .ok());
  ASSERT_TRUE(
      CompileQuery(s.Join(t, "S.a0 = T.a0", 99, 99).Build("Q2"), &plan)
          .ok());
  OptimizerOptions opts;
  opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.shared_join_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kSharedJoin), 1);
}

TEST(ChannelRuleTest, BuildsFig6cChain) {
  // n instances of the paper's Query-2 pattern: σsi -> µ -> σe. Expect
  // sσ then cµ then cσ (Example 4 / Fig. 6(c)).
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    auto q = s.Select(StrCat("a0 = ", i))  // starting condition θsi
                 .Iterate(t, "l.a1 = r.a1 AND r.a2 > last.a2", 50)
                 .Select("last.a3 = 0")  // stopping condition (same for all)
                 .Build(StrCat("Q", i));
    ASSERT_TRUE(CompileQuery(q, &plan).ok());
  }
  OptimizeStats stats = Optimize(&plan);
  EXPECT_EQ(stats.predicate_index_merges, 1);
  EXPECT_GE(stats.channel_merges, 2);  // cµ and cσ
  EXPECT_EQ(CountMopsOfType(plan, MopType::kPredicateIndex), 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelIterate), 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelSelect), 1);
  EXPECT_EQ(plan.LiveMops().size(), 3u);
  // The predicate index must now emit into a capacity-n channel.
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == MopType::kPredicateIndex) {
      ASSERT_EQ(plan.mop(id).num_outputs(), 1);
      EXPECT_EQ(plan.channel(plan.output_channel(id, 0)).capacity(), n);
    }
  }
}

TEST(ChannelRuleTest, SourceGroupChannel) {
  // Workload 3: sharable sources Si ; T with identical definitions.
  Plan plan;
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    auto si = QueryBuilder::FromSource(StrCat("S", i), TenInts(),
                                       /*sharable_label=*/7);
    ASSERT_TRUE(CompileQuery(
                    si.Sequence(t, "l.a0 = r.a0", 100).Build(StrCat("Q", i)),
                    &plan)
                    .ok());
  }
  OptimizeStats stats = Optimize(&plan);
  EXPECT_GE(stats.channel_merges, 1);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelSequence), 1);
  auto groups = plan.SourceGroupChannels();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(plan.channel(groups[0]).capacity(), n);
}

TEST(ChannelRuleTest, DifferentDefinitionsBlockChannel) {
  // Consumers with different windows must NOT be channel-merged.
  Plan plan;
  auto t = QueryBuilder::FromSource("T", TenInts());
  for (int i = 0; i < 3; ++i) {
    auto si = QueryBuilder::FromSource(StrCat("S", i), TenInts(), 7);
    ASSERT_TRUE(
        CompileQuery(
            si.Sequence(t, "l.a0 = r.a0", 100 + i).Build(StrCat("Q", i)),
            &plan)
            .ok());
  }
  OptimizeStats stats = Optimize(&plan);
  EXPECT_EQ(stats.channel_merges, 0);
  EXPECT_EQ(CountMopsOfType(plan, MopType::kChannelSequence), 0);
}

// --- optimizer soundness (the core property) ---------------------------------

// Runs a set of queries unoptimized and optimized over the same input and
// compares per-query output multisets.
class SoundnessHarness {
 public:
  explicit SoundnessHarness(std::vector<Query> queries)
      : queries_(std::move(queries)) {}

  // Feeds `events` tuples, alternating S (even ts) and T (odd ts), with
  // attribute values in [0, domain).
  std::map<std::string, std::vector<std::string>> Run(bool optimize,
                                                      uint64_t seed,
                                                      int events,
                                                      int64_t domain) {
    Plan plan;
    auto compiled = CompileQueries(queries_, &plan);
    RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
    if (optimize) Optimize(&plan);
    // Some seeds generate query sets that never reference T; register it
    // anyway so the feed below is uniform across seeds.
    for (const char* name : {"S", "T"}) {
      if (!plan.streams().FindSource(name)) {
        plan.SourceChannelOf(
            plan.streams().AddSource(name, Schema::MakeInts(10)));
      }
    }
    CollectingSink sink;
    Executor exec(&plan, &sink);
    exec.Prepare();
    Rng rng(seed);
    StreamId s = *plan.streams().FindSource("S");
    StreamId t = *plan.streams().FindSource("T");
    for (int i = 0; i < events; ++i) {
      std::vector<int64_t> vals;
      for (int k = 0; k < 10; ++k) vals.push_back(rng.UniformInt(0, domain - 1));
      exec.PushSource(i % 2 == 0 ? s : t, Tuple::MakeInts(vals, i));
    }
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& def : plan.outputs()) {
      std::vector<std::string> rendered;
      for (const Tuple& tup : sink.ForStream(def.stream)) {
        rendered.push_back(tup.ToString());
      }
      std::sort(rendered.begin(), rendered.end());
      // Merge in case two queries share one output stream name entry.
      auto& bucket = out[def.query_name];
      bucket.insert(bucket.end(), rendered.begin(), rendered.end());
      std::sort(bucket.begin(), bucket.end());
    }
    return out;
  }

  void ExpectSound(uint64_t seed, int events = 400, int64_t domain = 5) {
    auto plain = Run(false, seed, events, domain);
    auto optimized = Run(true, seed, events, domain);
    ASSERT_EQ(plain.size(), optimized.size());
    for (const auto& [name, tuples] : plain) {
      EXPECT_EQ(optimized[name], tuples) << "query " << name;
    }
  }

 private:
  std::vector<Query> queries_;
};

class OptimizerSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerSoundnessTest, Workload1Shape) {
  // σθ1(S) ; σθ3(T) with Zipf-like duplication of constants and windows.
  Rng rng(GetParam());
  std::vector<Query> queries;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 10));
  for (int i = 0; i < n; ++i) {
    int64_t c1 = rng.UniformInt(0, 3), c3 = rng.UniformInt(0, 3);
    int64_t w = 10 * (1 + rng.UniformInt(0, 2));
    queries.push_back(s.Select(StrCat("a0 = ", c1))
                          .Sequence(t.Select(StrCat("a0 = ", c3)),
                                    "l.a1 = r.a1", w)
                          .Build(StrCat("Q", i)));
  }
  SoundnessHarness(queries).ExpectSound(GetParam());
}

TEST_P(OptimizerSoundnessTest, MixedRelationalWorkload) {
  Rng rng(GetParam());
  std::vector<Query> queries;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 8));
  for (int i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 2)) {
      case 0:
        queries.push_back(
            s.Select(StrCat("a0 = ", rng.UniformInt(0, 2))).Build(
                StrCat("Q", i)));
        break;
      case 1:
        queries.push_back(s.Aggregate(AggFn::kSum, "a1",
                                      {rng.Bernoulli(0.5) ? "a0" : "a2"},
                                      10 * (1 + rng.UniformInt(0, 2)))
                              .Build(StrCat("Q", i)));
        break;
      default:
        queries.push_back(s.Join(t, "S.a0 = T.a0",
                                 10 * (1 + rng.UniformInt(0, 2)),
                                 10 * (1 + rng.UniformInt(0, 2)))
                              .Build(StrCat("Q", i)));
        break;
    }
  }
  SoundnessHarness(queries).ExpectSound(GetParam());
}

TEST_P(OptimizerSoundnessTest, HybridIterateWorkload) {
  // The Query-2 template: shared smoothing + per-query starting condition +
  // identical µ and stop conditions (exercises sσ, cµ, cσ).
  Rng rng(GetParam());
  std::vector<Query> queries;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 6));
  for (int i = 0; i < n; ++i) {
    queries.push_back(
        s.Select(StrCat("a0 = ", rng.UniformInt(0, 3)))
            .Iterate(t, "l.a1 = r.a1 AND r.a2 > last.a2", 20)
            .Select("last.a3 > 0")
            .Build(StrCat("Q", i)));
  }
  SoundnessHarness(queries).ExpectSound(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerSoundnessTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace rumor
