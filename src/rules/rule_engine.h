// RuleEngine: priority-ordered, fixpoint application of m-rules (paper §2.3
// and §7: rule priorities establish the application order; no cost model —
// the paper defers cost-based MQO to future work).
//
// Optimize's priority order (matches the derivation of §4.4):
//   1. CSE (s;/sµ + exact duplicates of every operator type) and sσ, both
//      resolved through the ShareIndex (MergeNewQueryIndexed),
//   2. the remaining same-stream rules (sα, s⋈),
//   3. channel mapping + channel rules (cσ, cπ, cα, c⋈, c;, cµ).
#ifndef RUMOR_RULES_RULE_ENGINE_H_
#define RUMOR_RULES_RULE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "rules/rule.h"

namespace rumor {

class ShareIndex;

// Bound on fixpoint rounds, shared by Optimize's rule loop and the phase
// rounds of MergeNewQueryIndexed. Real plans settle in two or three.
inline constexpr int kMaxOptimizeRounds = 8;

struct OptimizerOptions {
  bool enable_cse = true;
  bool enable_predicate_index = true;  // sσ
  bool enable_shared_aggregate = true;  // sα
  bool enable_shared_join = true;       // s⋈
  bool enable_channels = true;          // the c-family
  // No longer read: every engine resolves CSE and sσ share points through
  // its persistent ShareIndex. Kept only because the benchmark harness
  // still assigns it; delete it with that assignment.
  bool use_share_index = true;
};

struct OptimizeStats {
  int cse_merges = 0;
  int predicate_index_merges = 0;
  int shared_aggregate_merges = 0;
  int shared_join_merges = 0;
  int channel_merges = 0;
  int rounds = 0;  // fixpoint rounds run, the final no-merge round included

  // --- online query churn (after Start) --------------------------------------
  // Queries added to / removed from the running engine.
  int dynamic_adds = 0;
  int dynamic_removes = 0;
  // Merges performed by the incremental passes during live adds: new m-ops
  // absorbed by identical warm m-ops or existing shared members (CSE),
  // members attached to warm sσ/sα targets, and stateless rule merges among
  // the leftovers.
  int incremental_cse_merges = 0;
  int incremental_attach_merges = 0;
  int incremental_rule_merges = 0;
  // Teardown work performed by RemoveQuery unsharing, and the m-ops its
  // cone walks examined to find it.
  int pruned_mops = 0;
  int pruned_members = 0;
  int pruned_visited_mops = 0;

  // --- sharing quality (ROADMAP: "report sharing quality in OptimizeStats") --
  // Snapshot of the current plan, filled by Optimize(). NOT refreshed by
  // live add/remove (the refcount walk would tax the latency-critical add
  // path); StreamEngine::CollectMetrics() recomputes it on demand.
  int queries = 0;       // query outputs the plan serves
  int live_mops = 0;     // m-ops actually scheduled
  int total_members = 0; // member operators those m-ops implement
  int shared_mops = 0;   // m-ops reached by more than one query

  // The paper's fig9/fig10 argument in one number: how many m-ops each
  // query costs after merging (1.0/N best case for N identical queries).
  double mops_per_query() const {
    return queries > 0 ? static_cast<double>(live_mops) / queries : 0.0;
  }
  // Operator-collapse factor: members implemented per scheduled m-op.
  double members_per_mop() const {
    return live_mops > 0 ? static_cast<double>(total_members) / live_mops
                         : 0.0;
  }

  // Merges performed at Start() (the static optimization pass).
  int total() const {
    return cse_merges + predicate_index_merges + shared_aggregate_merges +
           shared_join_merges + channel_merges;
  }
  // Merges performed by live adds after Start().
  int incremental_total() const {
    return incremental_cse_merges + incremental_attach_merges +
           incremental_rule_merges;
  }
  std::string ToString() const;
};

// Extensible engine: rules run in registration order each round, until a
// round performs no merge (or kMaxOptimizeRounds).
class RuleEngine {
 public:
  struct Result {
    std::vector<int> merges;  // per rule, in registration order
    int rounds = 0;           // rounds run, the final no-merge round included
  };

  void AddRule(std::unique_ptr<MRule> rule) {
    rules_.push_back(std::move(rule));
  }
  Result Run(Plan* plan, const SharableAnalysis& sharable);

 private:
  std::vector<std::unique_ptr<MRule>> rules_;
};

// Computes SharableAnalysis on the compiled `plan`, registers the Table-1
// rules enabled in `options`, and runs the engine to a fixpoint. CSE and sσ
// are one rule: a whole-plan MergeNewQueryIndexed (sα attach off), which
// resolves their share points through `index` with O(live) hash probes
// instead of repeated whole-plan scans. SharedAggregateRule, SharedJoinRule
// and ChannelRule follow in each round. A null `index` means Optimize
// builds a transient one over `plan`; a caller's index is synced before
// returning.
OptimizeStats Optimize(Plan* plan, const OptimizerOptions& options = {},
                       ShareIndex* index = nullptr);

// Recomputes the sharing-quality snapshot fields of `stats` from the current
// plan (queries, live m-ops, members, shared m-ops). Optimize() calls this;
// CollectEngineMetrics performs the same sync for a running engine.
void FillSharingQuality(const Plan& plan, OptimizeStats* stats);

}  // namespace rumor

#endif  // RUMOR_RULES_RULE_ENGINE_H_
