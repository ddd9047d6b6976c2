// ShareIndex unit tests + plan-level checks of the index-driven merge: its
// plans over random add/remove sequences are pinned to digests recorded from
// the whole-plan scan merge it replaced, and when two per-member-port
// predicate indexes coexist on one channel a new selection attaches to the
// oldest.
#include "rules/share_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"
#include "plan/compile.h"
#include "plan/explain.h"
#include "query/builder.h"
#include "rules/incremental.h"

namespace rumor {
namespace {

Schema TenInts() { return Schema::MakeInts(10); }

std::vector<MopId> SelectionsOf(const Plan& plan) {
  std::vector<MopId> out;
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == MopType::kSelection) out.push_back(id);
  }
  return out;
}

// Forms a per-member-port predicate index from the given single selections,
// exactly as PredicateIndexRule does (members keep their output channels).
MopId FormIndexFrom(Plan* plan, const std::vector<MopId>& singles) {
  std::vector<SelectionDef> defs;
  std::vector<ChannelId> outs;
  for (MopId id : singles) {
    const auto& sel = static_cast<const SelectionMop&>(plan->mop(id));
    defs.push_back(sel.member(0).def);
    outs.push_back(plan->output_channel(id, 0));
  }
  ChannelId input = plan->input_channel(singles[0], 0);
  MopId target = plan->AddMop(std::make_unique<PredicateIndexMop>(
      std::move(defs), OutputMode::kPerMemberPorts));
  plan->BindInput(target, 0, input);
  for (size_t i = 0; i < outs.size(); ++i) {
    plan->BindOutput(target, static_cast<int>(i), outs[i]);
  }
  for (MopId id : singles) plan->RemoveMop(id);
  return target;
}

// Removes query `name` from a raw plan the way StreamEngine::RemoveQuery
// does: unmark its output, then prune what only that output kept alive.
void RemoveFromPlan(Plan* plan, const std::string& name) {
  std::optional<StreamId> out = plan->OutputStreamOf(name);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(plan->UnmarkOutput(name));
  PruneUnreachable(plan, *out);
}

TEST(ShareIndexTest, ProbeFindsExactDuplicate) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  ShareIndex index(&plan);
  MopId first_fresh = plan.num_mops();
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q2"), &plan).ok());
  index.Sync();

  std::vector<MopId> sels = SelectionsOf(plan);
  ASSERT_EQ(sels.size(), 2u);
  ASSERT_GE(sels[1], first_fresh);
  ShareIndex::Candidate c = index.Probe(sels[1]);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kCseExact);
  EXPECT_EQ(c.target, sels[0]);
  // The older twin is the keeper: a CSE-restricted probe must not suggest
  // merging it into the newcomer. (An unrestricted probe may still propose
  // forming an index with its yet-unmerged twin — the CSE sub-pass removes
  // the twin before the formation sub-pass runs.)
  uint32_t cse_mask = ShareIndex::MaskOf(ShareIndex::Candidate::kCseExact) |
                      ShareIndex::MaskOf(ShareIndex::Candidate::kCseMember);
  EXPECT_EQ(index.Probe(sels[0], cse_mask).kind, ShareIndex::Candidate::kNone);
}

TEST(ShareIndexTest, ProbeFormsIndexFromTwoSingles) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 1").Build("Q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 2").Build("Q2"), &plan).ok());
  ShareIndex index(&plan);
  std::vector<MopId> sels = SelectionsOf(plan);
  ASSERT_EQ(sels.size(), 2u);
  ShareIndex::Candidate c = index.Probe(sels[1]);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kFormIndex);
  EXPECT_EQ(c.channel, plan.input_channel(sels[1], 0));
  EXPECT_EQ(index.SinglesOn(c.channel), sels);
}

TEST(ShareIndexTest, DebugDumpMatchesRebuildAcrossMutations) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ShareIndex live(&plan);
  OptimizerOptions options;
  Rng rng(0x5eed);
  std::vector<std::string> names;
  for (int step = 0; step < 60; ++step) {
    bool remove = !names.empty() && rng.UniformInt(0, 3) == 0;
    if (remove) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1));
      RemoveFromPlan(&plan, names[victim]);
      names.erase(names.begin() + victim);
      live.Sync();
    } else {
      std::string name = "q" + std::to_string(step);
      MopId first_fresh = plan.num_mops();
      QueryBuilder q = s.Select(
          "a0 = " + std::to_string(rng.UniformInt(0, 4)));
      if (rng.UniformInt(0, 1) == 0) {
        q = q.Aggregate(AggFn::kSum, "a1", {"a0"},
                        4 + 4 * rng.UniformInt(0, 2));
      }
      ASSERT_TRUE(CompileQuery(q.Build(name), &plan).ok());
      MergeNewQueryIndexed(&plan, &live, first_fresh, options);
      names.push_back(name);
    }
    plan.Validate();
    ShareIndex fresh(&plan);
    ASSERT_EQ(live.DebugDump(), fresh.DebugDump()) << "step " << step;
  }
}

// Chained hash of ExplainPlan after every step of the seeded add/remove
// sequence, recorded with the scan-based merge (MergeNewQuery, which
// rediscovered share points by scanning every live m-op on each add) the
// index-driven merge replaced; that path and the index agreed on every
// step's plan, byte for byte. Regenerate only for a deliberate change of
// the merge's target choices or of ExplainPlan's format.
constexpr uint64_t kScanPlanDigests[] = {
    0xf2f587ef2e1d6ec3ull, 0x5869c02c8712cabdull, 0xcde4ccfcc3772563ull,
    0x582326de02656b84ull, 0x7c4aea695e41c9faull, 0xa294ef25ab7c179aull,
    0xc7f3edc46904729bull, 0x2547422cd40a963bull,
};

TEST(ShareIndexTest, IndexedMergeMatchesScanOnRandomSequences) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
    Plan plan;
    auto s = QueryBuilder::FromSource("S", TenInts());
    ShareIndex index(&plan);
    OptimizerOptions options;
    std::vector<std::string> names;
    uint64_t digest = 0;
    for (int step = 0; step < 50; ++step) {
      bool remove = !names.empty() && rng.UniformInt(0, 3) == 0;
      if (remove) {
        size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1));
        RemoveFromPlan(&plan, names[victim]);
        names.erase(names.begin() + victim);
      } else {
        std::string name = "q" + std::to_string(step);
        QueryBuilder q = s;
        switch (rng.UniformInt(0, 3)) {
          case 0:
            q = q.Select("a0 = " + std::to_string(rng.UniformInt(0, 3)));
            break;
          case 1:
            q = q.Select("a1 > " + std::to_string(rng.UniformInt(0, 50)));
            break;
          case 2:
            q = q.Aggregate(AggFn::kSum, "a1", {"a0"},
                            4 + 4 * rng.UniformInt(0, 2));
            break;
          default:
            q = q.Select("a0 = " + std::to_string(rng.UniformInt(0, 3)))
                    .Aggregate(AggFn::kMax, "a2", {"a0"},
                               4 + 4 * rng.UniformInt(0, 2));
            break;
        }
        MopId first_fresh = plan.num_mops();
        ASSERT_TRUE(CompileQuery(q.Build(name), &plan).ok());
        MergeNewQueryIndexed(&plan, &index, first_fresh, options);
        names.push_back(name);
      }
      plan.Validate();
      digest = HashCombine(digest, HashBytes(ExplainPlan(plan)));
    }
    // Byte-identical plans at every step: same ids, members and wiring.
    EXPECT_EQ(digest, kScanPlanDigests[seed - 1]) << "seed " << seed;
  }
}

// Regression: AttachMember can *reuse* a deactivated member slot of a shared
// aggregate, replacing its spec — and so its member signature — with no
// wiring event. The plan must publish the in-place change (NotifyMemberChanged)
// so the index re-derives the target; a stale signature would otherwise
// survive until the next unrelated reindex of that m-op.
TEST(ShareIndexTest, ReusedAggregateSlotKeepsIndexFresh) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ShareIndex live(&plan);
  OptimizerOptions options;
  auto add = [&](const char* name, int64_t window) {
    MopId first_fresh = plan.num_mops();
    ASSERT_TRUE(CompileQuery(
        s.Aggregate(AggFn::kSum, "a1", {"a0"}, window).Build(name), &plan)
            .ok());
    MergeNewQueryIndexed(&plan, &live, first_fresh, options);
  };
  add("q1", 8);
  add("q2", 12);  // attaches as member 1 of the (now shared) target
  RemoveFromPlan(&plan, "q2");  // deactivates member 1
  live.Sync();
  add("q3", 16);  // reuses slot 1: new window, new signature, same port

  // The reuse branch fired (the target kept 2 members instead of growing).
  MopId target = kInvalidMop;
  for (MopId id : plan.LiveMops()) {
    if (plan.mop(id).type() == MopType::kSharedAggregate) target = id;
  }
  ASSERT_NE(target, kInvalidMop);
  EXPECT_EQ(plan.mop(target).num_members(), 2);

  plan.Validate();
  ShareIndex fresh(&plan);
  EXPECT_EQ(live.DebugDump(), fresh.DebugDump());
}

// Regression: two per-member-port predicate indexes coexisting on one input
// channel. A new selection must deterministically attach to the *oldest*
// index, not to whichever one a lookup happens to see first.
TEST(ShareIndexTest, TwoIndexesOnOneChannelAttachToOldest) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(CompileQuery(
        s.Select("a0 = " + std::to_string(i)).Build("q" + std::to_string(i)),
        &plan).ok());
  }
  std::vector<MopId> sels = SelectionsOf(plan);
  ASSERT_EQ(sels.size(), 4u);
  const MopId older = FormIndexFrom(&plan, {sels[0], sels[1]});
  const MopId newer = FormIndexFrom(&plan, {sels[2], sels[3]});
  plan.Validate();
  ASSERT_LT(older, newer);

  ShareIndex index(&plan);
  MopId first_fresh = plan.num_mops();
  ASSERT_TRUE(CompileQuery(s.Select("a0 = 9").Build("q9"), &plan).ok());

  // The probe itself must name the oldest index.
  index.Sync();
  std::vector<MopId> fresh_sels = SelectionsOf(plan);
  ASSERT_EQ(fresh_sels.size(), 1u);
  ShareIndex::Candidate c = index.Probe(fresh_sels[0]);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kAttachSelection);
  EXPECT_EQ(c.target, older);

  MergeNewQueryIndexed(&plan, &index, first_fresh, OptimizerOptions{});
  plan.Validate();

  // The merge grew the oldest index; the newer one is untouched; no single
  // selection is left behind.
  EXPECT_EQ(plan.mop(older).num_members(), 3);
  EXPECT_EQ(plan.mop(newer).num_members(), 2);
  EXPECT_TRUE(SelectionsOf(plan).empty());
}

// Same for sα: of two attach targets with one (channel, fn, attr, slot) key
// — here two lone aggregates compiled without merging — a new aggregate
// joins the oldest.
TEST(ShareIndexTest, AggregateAttachesToOldestTarget) {
  Plan plan;
  auto s = QueryBuilder::FromSource("S", TenInts());
  ASSERT_TRUE(CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a0"}, 8).Build("q1"), &plan).ok());
  ASSERT_TRUE(CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a0"}, 12).Build("q2"), &plan).ok());
  std::vector<MopId> aggs = plan.LiveMops();
  ASSERT_EQ(aggs.size(), 2u);

  ShareIndex index(&plan);
  MopId first_fresh = plan.num_mops();
  ASSERT_TRUE(CompileQuery(
      s.Aggregate(AggFn::kSum, "a1", {"a0"}, 16).Build("q3"), &plan).ok());
  index.Sync();
  ASSERT_EQ(plan.num_mops(), first_fresh + 1);
  ShareIndex::Candidate c = index.Probe(first_fresh);
  EXPECT_EQ(c.kind, ShareIndex::Candidate::kAttachAggregate);
  EXPECT_EQ(c.target, aggs[0]);

  MergeNewQueryIndexed(&plan, &index, first_fresh, OptimizerOptions{});
  plan.Validate();
  EXPECT_EQ(plan.mop(aggs[0]).num_members(), 2);
  EXPECT_EQ(plan.mop(aggs[1]).num_members(), 1);
}

}  // namespace
}  // namespace rumor
