// Paper §3.3 / §7: multiple m-rules can apply to the same operators and
// different application orders may produce different plans. These tests
// check the property the paper relies on implicitly: whatever the order,
// query outputs are unchanged (each rule application preserves semantics,
// so any application sequence does).
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.h"
#include "common/str_util.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/explain.h"
#include "query/builder.h"
#include "rules/rule_engine.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

// Rewrites a compiled plan.
using Optimizer = std::function<void(Plan*)>;

Optimizer OptimizeWith(const OptimizerOptions& opts) {
  return [opts](Plan* plan) { Optimize(plan, opts); };
}

// Runs the given queries through `optimize`; returns per-query sorted
// outputs.
std::map<std::string, std::vector<std::string>> RunWith(
    const std::vector<Query>& queries, const Optimizer& optimize,
    uint64_t feed_seed, int events) {
  Plan plan;
  auto compiled = CompileQueries(queries, &plan);
  RUMOR_CHECK(compiled.ok()) << compiled.status().ToString();
  optimize(&plan);
  CollectingSink sink;
  Executor exec(&plan, &sink);
  exec.Prepare();
  StreamId s = *plan.streams().FindSource("S");
  StreamId t = *plan.streams().FindSource("T");
  Rng rng(feed_seed);
  for (int i = 0; i < events; ++i) {
    std::vector<int64_t> vals;
    for (int k = 0; k < 10; ++k) vals.push_back(rng.UniformInt(0, 4));
    exec.PushSource(i % 2 == 0 ? s : t, Tuple::MakeInts(vals, i));
  }
  std::map<std::string, std::vector<std::string>> out;
  for (const Query& q : queries) {
    std::vector<std::string> rows;
    for (const Tuple& tup : sink.ForStream(*plan.OutputStreamOf(q.name))) {
      rows.push_back(tup.ToString());
    }
    std::sort(rows.begin(), rows.end());
    out[q.name] = std::move(rows);
  }
  return out;
}

// The Fig. 2/3 overlap: selections that qualify for sσ (same stream) whose
// downstream consumers qualify for channel rules.
std::vector<Query> OverlapWorkload(uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  auto s = QueryBuilder::FromSource("S", TenInts());
  auto t = QueryBuilder::FromSource("T", TenInts());
  const int n = 3 + static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < n; ++i) {
    queries.push_back(s.Select(StrCat("a0 = ", rng.UniformInt(0, 3)))
                          .Iterate(t, "l.a1 = r.a1 AND r.a2 > last.a2", 20)
                          .Select("last.a3 > 0")
                          .Build(StrCat("Q", i)));
  }
  return queries;
}

class RuleOrderTest : public ::testing::TestWithParam<uint64_t> {};

// Merge counts of one ChannelRuleAt run.
struct OrderMerges {
  int predicate_index = 0;
  int channel = 0;
};

// CSE and sσ through Optimize, then sα, s⋈ and the c-family through a
// RuleEngine with the channel rule registered ahead of or behind the other
// two.
Optimizer ChannelRuleAt(bool first, OrderMerges* merges) {
  return [first, merges](Plan* plan) {
    const SharableAnalysis sharable(*plan);  // of the compiled plan
    OptimizerOptions opts;
    opts.enable_shared_aggregate = opts.enable_shared_join =
        opts.enable_channels = false;
    merges->predicate_index = Optimize(plan, opts).predicate_index_merges;
    RuleEngine engine;
    if (first) engine.AddRule(std::make_unique<ChannelRule>());
    engine.AddRule(std::make_unique<SharedAggregateRule>());
    engine.AddRule(std::make_unique<SharedJoinRule>());
    if (!first) engine.AddRule(std::make_unique<ChannelRule>());
    const RuleEngine::Result run = engine.Run(plan, sharable);
    merges->channel = run.merges[first ? 0 : 2];
  };
}

TEST_P(RuleOrderTest, ChannelFirstAndLastProduceSameOutputs) {
  std::vector<Query> queries = OverlapWorkload(GetParam());
  OrderMerges last;
  OrderMerges first;
  auto a = RunWith(queries, ChannelRuleAt(false, &last), GetParam() ^ 0xabc,
                   400);
  auto b = RunWith(queries, ChannelRuleAt(true, &first), GetParam() ^ 0xabc,
                   400);
  EXPECT_EQ(a, b);
  // Where sσ built an index (two or more distinct starting conditions), its
  // consumers overlap and both orders map channels (cµ, cσ).
  if (last.predicate_index > 0) {
    EXPECT_GT(last.channel, 0);
    EXPECT_GT(first.channel, 0);
  }
}

TEST_P(RuleOrderTest, EverySingleRuleAloneIsSound) {
  std::vector<Query> queries = OverlapWorkload(GetParam());
  OptimizerOptions none;
  none.enable_cse = none.enable_predicate_index =
      none.enable_shared_aggregate = none.enable_shared_join =
          none.enable_channels = false;
  auto baseline = RunWith(queries, OptimizeWith(none), GetParam() ^ 0xdef, 400);

  for (int rule = 0; rule < 5; ++rule) {
    OptimizerOptions opts = none;
    switch (rule) {
      case 0: opts.enable_cse = true; break;
      case 1: opts.enable_predicate_index = true; break;
      case 2: opts.enable_shared_aggregate = true; break;
      case 3: opts.enable_shared_join = true; break;
      case 4:
        // Channel rules alone (they still require a producer group, which
        // without sσ only source groups can provide — a no-op here, but it
        // must stay sound).
        opts.enable_channels = true;
        break;
    }
    auto got = RunWith(queries, OptimizeWith(opts), GetParam() ^ 0xdef, 400);
    EXPECT_EQ(got, baseline) << "rule config " << rule;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleOrderTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST(RuleOrderTest, EveryRuleOffLeavesPlanUntouched) {
  std::vector<Query> queries = OverlapWorkload(1);
  Plan plan;
  ASSERT_TRUE(CompileQueries(queries, &plan).ok());
  const std::string before = ExplainPlan(plan);
  OptimizerOptions opts;
  opts.enable_cse = opts.enable_predicate_index =
      opts.enable_shared_aggregate = opts.enable_shared_join =
          opts.enable_channels = false;
  OptimizeStats stats = Optimize(&plan, opts);
  EXPECT_EQ(stats.total(), 0);
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(ExplainPlan(plan), before);
}

TEST(RuleOrderTest, CustomRuleRegistration) {
  // The engine API is open: a user-defined rule runs alongside built-ins.
  class CountingRule : public MRule {
   public:
    explicit CountingRule(int* counter) : counter_(counter) {}
    std::string name() const override { return "counting"; }
    int ApplyAll(Plan*, const SharableAnalysis*) override {
      ++*counter_;
      return 0;  // never merges => engine terminates after one round
    }

   private:
    int* counter_;
  };
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  SharableAnalysis sharable(plan);
  RuleEngine engine;
  int calls = 0;
  engine.AddRule(std::make_unique<CountingRule>(&calls));
  const RuleEngine::Result run = engine.Run(&plan, sharable);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(run.merges[0], 0);
  EXPECT_EQ(run.rounds, 1);
}

}  // namespace
}  // namespace rumor
