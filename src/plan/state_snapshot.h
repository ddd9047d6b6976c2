// Plan-level operator-state snapshots (the kState section of an engine
// checkpoint, see common/snapshot_io.h).
//
// Save side: walk the live m-ops of one plan (one shard replica), collect
// each stateful m-op's MopState tagged with the structural fingerprints of
// its members (plan/fingerprint.h), and serialize the records into one
// section payload.
//
// Restore side: the restored engine re-parses the saved query texts, adds
// them before Start() and lets the batch optimizer build the plan, which
// generally differs from a plan grown by live adds and removes.
// LoadPlanState matches saved members to restored members by
// fingerprint (FIFO in occurrence order among equal fingerprints — equal
// fingerprints imply identical state content, so ties are interchangeable)
// and applies Mop::LoadState with the resulting bindings. A sharded
// checkpoint is first collapsed by MergeShardStates into one logical image;
// restore onto n shards loads the full image into every replica and lets
// each shard's partitioned routing shed the keys it does not own.
#ifndef RUMOR_PLAN_STATE_SNAPSHOT_H_
#define RUMOR_PLAN_STATE_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mop/mop_state.h"
#include "plan/plan.h"

namespace rumor {

// Serializes the operator state of every stateful live m-op of `plan` into
// a kState section payload. The plan must be quiescent.
Result<std::string> SavePlanState(const Plan& plan);

// Decodes a kState payload produced by SavePlanState. Any truncation or
// malformed field yields an error and `out` is left untouched.
Status ParsePlanState(std::string_view payload, std::vector<MopState>* out);

// Merges the per-shard state images of one checkpoint (identical plan
// replicas, key-partitioned state) into a single logical image: window logs
// and buffers are timestamp-merged (shard index breaks ties), aggregation
// groups are unioned (accumulators of a key present on several shards are
// summed). Fails if the images disagree structurally.
Result<std::vector<MopState>> MergeShardStates(
    std::vector<std::vector<MopState>> shards);

// Applies a saved state image onto a freshly rebuilt (empty) plan. Fails —
// without touching any state — if the match is inconsistent: a restored
// stateful member with no saved source, saved state no restored member
// consumes, or mismatched operator kinds.
Status LoadPlanState(Plan& plan, const std::vector<MopState>& saved);

}  // namespace rumor

#endif  // RUMOR_PLAN_STATE_SNAPSHOT_H_
