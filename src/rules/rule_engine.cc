#include "rules/rule_engine.h"

#include <cstdio>
#include <memory>
#include <sstream>

#include "common/trace.h"
#include "rules/incremental.h"
#include "rules/share_index.h"

namespace rumor {

std::string OptimizeStats::ToString() const {
  std::ostringstream os;
  os << "OptimizeStats{cse=" << cse_merges
     << " sσ=" << predicate_index_merges
     << " sα=" << shared_aggregate_merges << " s⋈=" << shared_join_merges
     << " c*=" << channel_merges << " rounds=" << rounds;
  if (dynamic_adds > 0 || dynamic_removes > 0) {
    os << " adds=" << dynamic_adds << " removes=" << dynamic_removes
       << " inc_cse=" << incremental_cse_merges
       << " inc_attach=" << incremental_attach_merges
       << " inc_rules=" << incremental_rule_merges
       << " pruned_mops=" << pruned_mops
       << " pruned_members=" << pruned_members
       << " pruned_visited=" << pruned_visited_mops;
  }
  if (queries > 0) {
    os << " | sharing: " << queries << " queries -> " << live_mops
       << " m-ops (" << total_members << " members, " << shared_mops
       << " shared)";
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", %.2f m-ops/query", mops_per_query());
    os << buf;
  }
  os << "}";
  return os.str();
}

RuleEngine::Result RuleEngine::Run(Plan* plan,
                                   const SharableAnalysis& sharable) {
  Result result;
  result.merges.assign(rules_.size(), 0);
  while (result.rounds < kMaxOptimizeRounds) {
    ++result.rounds;
    int round_merges = 0;
    for (size_t i = 0; i < rules_.size(); ++i) {
      int n = rules_[i]->ApplyAll(plan, &sharable);
      result.merges[i] += n;
      round_merges += n;
#ifndef NDEBUG
      // Every rule application must leave the plan consistent (fully bound
      // ports, single producers, acyclic, no dead-channel wiring).
      if (n > 0) plan->Validate();
#endif
    }
    if (round_merges == 0) break;
  }
  return result;
}

namespace {

// CSE and sσ as one m-rule: each application is a MergeNewQueryIndexed over
// the whole plan (every live m-op counts as fresh), its merges counted into
// `stats`. sα attach stays off: SharedAggregateRule makes sα's whole-group
// decisions later in the round.
class IndexedMergeRule : public MRule {
 public:
  IndexedMergeRule(ShareIndex* index, const OptimizerOptions& options,
                   OptimizeStats* stats)
      : index_(index), options_(options), stats_(stats) {
    options_.enable_shared_aggregate = false;
  }
  std::string name() const override { return "cse+sσ(share index)"; }
  int ApplyAll(Plan* plan, const SharableAnalysis*) override {
    IncrementalMergeStats merged =
        MergeNewQueryIndexed(plan, index_, 0, options_);
    stats_->cse_merges += merged.cse_merges;
    stats_->predicate_index_merges +=
        merged.attach_merges + merged.rule_merges;
    return merged.total();
  }

 private:
  ShareIndex* index_;
  OptimizerOptions options_;
  OptimizeStats* stats_;
};

}  // namespace

OptimizeStats Optimize(Plan* plan, const OptimizerOptions& options,
                       ShareIndex* index) {
  RUMOR_TRACE_SPAN("Optimize");
  std::unique_ptr<ShareIndex> transient;
  if (index == nullptr) {
    transient = std::make_unique<ShareIndex>(plan);
    index = transient.get();
  }
  SharableAnalysis sharable(*plan);
  OptimizeStats stats;

  // Registration order = priority order; `counters` maps each rule to its
  // stats field (null for the indexed rule, which counts its own merges).
  RuleEngine engine;
  std::vector<int OptimizeStats::*> counters;
  if (options.enable_cse || options.enable_predicate_index) {
    engine.AddRule(std::make_unique<IndexedMergeRule>(index, options, &stats));
    counters.push_back(nullptr);
  }
  if (options.enable_shared_aggregate) {
    engine.AddRule(std::make_unique<SharedAggregateRule>());
    counters.push_back(&OptimizeStats::shared_aggregate_merges);
  }
  if (options.enable_shared_join) {
    engine.AddRule(std::make_unique<SharedJoinRule>());
    counters.push_back(&OptimizeStats::shared_join_merges);
  }
  if (options.enable_channels) {
    engine.AddRule(std::make_unique<ChannelRule>());
    counters.push_back(&OptimizeStats::channel_merges);
  }

  const RuleEngine::Result run = engine.Run(plan, sharable);
  for (size_t i = 0; i < counters.size(); ++i) {
    if (counters[i] != nullptr) stats.*counters[i] += run.merges[i];
  }
  stats.rounds = run.rounds;
  FillSharingQuality(*plan, &stats);
  plan->Validate();
  index->Sync();
  return stats;
}

void FillSharingQuality(const Plan& plan, OptimizeStats* stats) {
  stats->queries = static_cast<int>(plan.outputs().size());
  stats->live_mops = 0;
  stats->total_members = 0;
  stats->shared_mops = 0;
  // One backward pass; saturated-at-2 reach is exactly the shared/unshared
  // distinction this snapshot needs (the per-query refcount walk it
  // replaces was O(outputs × cone) — quadratic at 10^5 queries).
  const Plan::OutputReach reach = plan.ComputeOutputReach();
  for (MopId id : plan.LiveMops()) {
    ++stats->live_mops;
    stats->total_members += plan.mop(id).num_active_members();
    if (reach.mops[id] >= 2) ++stats->shared_mops;
  }
}

}  // namespace rumor
