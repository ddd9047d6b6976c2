// Oracle test for RemoveQuery's cone-local unsharing. A seeded churn of
// W1-shaped SEQ queries, σ-index attaches and sα aggregates runs on a live
// engine (one and two shards). After every RemoveQuery the whole-plan
// backward reach pass (Plan::ComputeOutputReach) must agree with what the
// cone walk left behind: no live m-op that no output reaches, and no bound
// port on a channel nobody reads except the ports of retired member slots.
// The walk must also stay inside the removed query's cone, and slot reuse
// must keep every σ-index and sα engine from growing under churn.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/stream_engine.h"
#include "common/rng.h"
#include "workload/workloads.h"

namespace rumor {
namespace {

std::string W1Rql(const W1Spec& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "SELECT * FROM (SELECT * FROM S WHERE a0 = %" PRId64
                ") SEQ (SELECT * FROM T WHERE a0 = %" PRId64
                ") ON TRUE WITHIN %" PRId64,
                s.c1, s.c3, s.window);
  return buf;
}

// A non-W1 query: an indexed or sequential σ-index member, or an sα member.
std::string OtherRql(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return "SELECT * FROM S WHERE a0 = " +
             std::to_string(rng.UniformInt(0, 60));
    case 1:
      return "SELECT * FROM S WHERE a1 > " +
             std::to_string(rng.UniformInt(0, 900));
    case 2:
      return "SELECT a0, SUM(a1) FROM S [RANGE " +
             std::to_string(rng.UniformInt(2, 64)) + "] GROUP BY a0";
    default:
      return "SELECT a0, MAX(a2) FROM S [RANGE " +
             std::to_string(rng.UniformInt(2, 64)) + "] GROUP BY a0";
  }
}

// Every m-op the query's output depends on: the backward closure of the
// channels carrying its output stream.
std::set<MopId> ConeOf(const Plan& plan, const std::string& name) {
  std::set<MopId> cone;
  std::vector<ChannelId> work =
      plan.ChannelsOfStream(*plan.OutputStreamOf(name));
  while (!work.empty()) {
    const ChannelId c = work.back();
    work.pop_back();
    const std::optional<ChannelEnd> producer = plan.ProducerOf(c);
    if (!producer.has_value() || !cone.insert(producer->mop).second) continue;
    for (ChannelId in : plan.input_channels(producer->mop)) work.push_back(in);
  }
  return cone;
}

// Member-slot count of every σ-index and sα engine, by m-op id.
std::map<MopId, int> SlotCounts(const Plan& plan) {
  std::map<MopId, int> slots;
  for (MopId id : plan.LiveMops()) {
    const Mop& m = plan.mop(id);
    if (m.type() == MopType::kPredicateIndex ||
        m.type() == MopType::kSharedAggregate) {
      slots[id] = m.num_members();
    }
  }
  return slots;
}

void ExpectReachConsistent(const Plan& plan, const std::string& context) {
  const Plan::OutputReach reach = plan.ComputeOutputReach();
  for (MopId id : plan.LiveMops()) {
    const Mop& m = plan.mop(id);
    ASSERT_GT(reach.mops[id], 0) << context << ": " << m.name()
                                 << " is live but no output reaches it";
    for (ChannelId in : plan.input_channels(id)) {
      ASSERT_GT(reach.channels[in], 0)
          << context << ": " << m.name() << " reads unneeded channel " << in;
    }
    const bool slots = m.num_outputs() == m.num_members();
    for (int p = 0; p < m.num_outputs(); ++p) {
      const bool retired = slots && !m.member_active(p);
      ASSERT_EQ(reach.channels[plan.output_channel(id, p)] > 0, !retired)
          << context << ": " << m.name() << " port " << p
          << (retired ? " is retired but its channel is read"
                      : " writes a channel nobody reads");
    }
  }
}

// One remove, checked against the oracle.
void RemoveChecked(StreamEngine* engine, const std::string& name) {
  const Plan& plan = engine->plan_for_testing();
  const size_t cone = ConeOf(plan, name).size();
  const int visited_before = engine->optimize_stats().pruned_visited_mops;
  ASSERT_TRUE(engine->RemoveQuery(name).ok()) << name;
  const int visited =
      engine->optimize_stats().pruned_visited_mops - visited_before;
  EXPECT_LE(visited, static_cast<int>(cone)) << "removing " << name;
  ExpectReachConsistent(plan, "after removing " + name);
}

void RunChurn(int shards, int w1_queries, int pairs, uint64_t seed) {
  SyntheticParams params;
  params.num_queries = w1_queries;
  const Schema schema = params.MakeSchema();
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterSource("S", schema).ok());
  ASSERT_TRUE(engine.RegisterSource("T", schema).ok());
  ASSERT_TRUE(engine.SetShardCount(shards).ok());

  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> standing;  // name, rql
  for (const W1Spec& spec : DrawW1Specs(params, rng)) {
    standing.push_back({"w" + std::to_string(standing.size()), W1Rql(spec)});
  }
  for (int i = 0; i < w1_queries / 10; ++i) {
    standing.push_back({"o" + std::to_string(i), OtherRql(rng)});
  }
  for (const auto& [name, rql] : standing) {
    ASSERT_TRUE(engine.AddQueryText(rql, name).ok()) << rql;
  }
  ASSERT_TRUE(engine.Start().ok());
  std::vector<Event> feed = GenerateInterleaved(params, 400, 0, rng);
  for (const Event& e : feed) {
    ASSERT_TRUE(engine.Push(e.stream == 0 ? "S" : "T", e.tuple).ok());
  }
  engine.Flush();
  const std::map<MopId, int> initial = SlotCounts(engine.plan_for_testing());

  // Phase 1: remove a standing query, then re-add it. The population never
  // exceeds the initial set, so every attach finds the slot its remove
  // freed and no σ-index or sα engine grows.
  for (int i = 0; i < pairs; ++i) {
    const auto& [name, rql] = standing[rng.UniformInt(
        0, static_cast<int64_t>(standing.size()) - 1)];
    RemoveChecked(&engine, name);
    ASSERT_TRUE(engine.AddQueryText(rql, name).ok()) << rql;
  }
  for (const auto& [id, slots] : SlotCounts(engine.plan_for_testing())) {
    auto it = initial.find(id);
    if (it != initial.end()) {
      EXPECT_EQ(slots, it->second) << "m-op " << id;
    }
  }

  // Phase 2: add a fresh query, then remove it. One query above the initial
  // set at a time grows a structure by at most one slot, reused ever after.
  for (int i = 0; i < pairs; ++i) {
    const std::string name = "f" + std::to_string(i);
    const std::string rql =
        rng.UniformInt(0, 1) == 0
            ? W1Rql({rng.UniformInt(0, params.constant_domain - 1),
                     rng.UniformInt(0, params.constant_domain - 1),
                     rng.UniformInt(1, params.window_domain)})
            : OtherRql(rng);
    ASSERT_TRUE(engine.AddQueryText(rql, name).ok()) << rql;
    RemoveChecked(&engine, name);
  }
  for (const auto& [id, slots] : SlotCounts(engine.plan_for_testing())) {
    auto it = initial.find(id);
    if (it != initial.end()) {
      EXPECT_LE(slots, it->second + 1) << "m-op " << id;
    }
  }
  EXPECT_EQ(engine.num_queries(), static_cast<int>(standing.size()));
  // The churn exercised every kind of teardown.
  const OptimizeStats& stats = engine.optimize_stats();
  EXPECT_GT(stats.pruned_mops, 0);
  EXPECT_GT(stats.pruned_members, 0);
}

TEST(RemovePruneTest, ConeWalkMatchesReachOracleOnW1Plan) {
  RunChurn(/*shards=*/1, /*w1_queries=*/1000, /*pairs=*/150, /*seed=*/7);
}

TEST(RemovePruneTest, ConeWalkMatchesReachOracleSharded) {
  RunChurn(/*shards=*/2, /*w1_queries=*/300, /*pairs=*/80, /*seed=*/11);
}

}  // namespace
}  // namespace rumor
