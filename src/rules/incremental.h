// Incremental m-rule application for online query churn (paper §2.3, §7):
// because m-rules are local condition/action pairs, a freshly compiled query
// can be merged into an already-optimized *running* plan without re-searching
// the whole space — and, crucially, without disturbing the state of warm
// shared operators.
//
// MergeNewQueryIndexed runs the state-preserving subset of the rule
// catalogue after new m-ops were compiled into a live plan:
//   * CSE — a new m-op identical to an existing one (same definition, same
//     input channels) is absorbed by it; the existing m-op always wins, so
//     the new query inherits its warm state (window contents, join buffers).
//   * sσ attach — a new selection snaps onto an existing predicate-index
//     m-op on the same stream (selections are stateless; always safe).
//   * sσ — leftover single selections form new predicate indexes.
//   * sα attach — a new aggregate joins an existing shared-aggregation
//     engine on the same stream with the same fn/attr (windows and group-bys
//     may differ); its state is backfilled from the engine's retained log,
//     so it starts warm up to the log's retention horizon.
//
// The c-family rules are *not* applied incrementally: they rebuild producers
// in channel-output mode, which would discard warm operator state. The s⋈
// rule is likewise skipped live (merging would re-create join state). New
// queries that would only share through those rules run unshared — correct,
// just less shared than a restart would be.
//
// The merge probes the persistent ShareIndex for each fresh m-op (O(1)
// hash lookups instead of plan scans) and applies the resulting candidates
// greedily in cost-benefit order (largest estimated saved work first; the
// benefit tiers encode rule precedence, so the greedy order refines — never
// contradicts — the fixed rule order). This is what makes AddQuery
// flat-latency out to 10^5..10^6 standing queries.
//
// PruneUnreachable implements the removal half: a backward walk from the
// removed query's output channels tears down the operators only that query
// read, retires its members of shared σ-indexes and shared aggregation
// engines in place (a later attach reuses the slot), and collects the
// channels it orphaned. It stops at the first operator another query still
// reads, so a remove costs O(the query's own subplan), not O(plan).
#ifndef RUMOR_RULES_INCREMENTAL_H_
#define RUMOR_RULES_INCREMENTAL_H_

#include <string>

#include "plan/plan.h"
#include "rules/rule_engine.h"
#include "rules/share_index.h"

namespace rumor {

struct IncrementalMergeStats {
  int cse_merges = 0;     // new m-ops absorbed by identical warm m-ops
  int attach_merges = 0;  // members attached to warm sσ/sα targets
  int rule_merges = 0;    // stateless rule merges among leftover m-ops

  int total() const { return cse_merges + attach_merges + rule_merges; }
  std::string ToString() const;
};

// Merges the fresh m-ops (live ids >= first_fresh, i.e. the plan's
// num_mops() recorded before the new query compiled) into the live plan
// (see file comment). Safe to run on a plan whose m-ops hold runtime state;
// existing operators keep their state and their output wiring. Per round: syncs the index, probes every fresh m-op (O(1) each),
// sorts the candidates by descending benefit (ties: lowest fresh id first)
// and applies them greedily, re-probing each at apply time so earlier
// merges in the batch invalidate or improve later ones. Rounds repeat while
// merges cascade (a merged σ exposes the α above it), up to
// options.max_rounds. Costs O(fresh) per add, not O(plan).
IncrementalMergeStats MergeNewQueryIndexed(Plan* plan, ShareIndex* index,
                                           MopId first_fresh,
                                           const OptimizerOptions& options);

struct PruneStats {
  int visited_mops = 0;          // distinct m-ops the walk examined
  int removed_mops = 0;          // m-ops no surviving query reaches
  int pruned_index_members = 0;  // members retired from stateless sσ targets
  int deactivated_members = 0;   // shared-aggregate members deactivated
  int collected_channels = 0;    // channels garbage-collected

  std::string ToString() const;
};

// Tears down everything that only the output stream `removed_output` kept
// alive. Call after Plan::UnmarkOutput removed a query's output mark (a
// no-op while another query still reads the stream). Assumes every live
// m-op was reachable from some output before the mark went away, which
// compiling and merging maintain.
PruneStats PruneUnreachable(Plan* plan, StreamId removed_output);

}  // namespace rumor

#endif  // RUMOR_RULES_INCREMENTAL_H_
