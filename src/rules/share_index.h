// ShareIndex — persistent index over the plan's share points, the scale
// backbone of dynamic MQO (ROADMAP: "millions of users = millions of
// subscriptions"). Instead of rediscovering merge opportunities by scanning
// all live m-ops on every AddQuery (O(plan) per add, O(N²) over a workload),
// the index keeps hash tables from merge-relevant fingerprints to candidate
// share points and is maintained *incrementally* from the plan's mutation
// log, so each fresh m-op resolves its best merge with O(1) probes:
//
//   exact     (m-op type, input channels, member signature) -> single-member
//             m-ops — CSE duplicates (rule s;/sµ and exact duplicates of
//             every type). The probe keeps the lowest id of a duplicate
//             group, so the oldest (warmest) twin always survives.
//   member    (shared type, input channels, member signature) -> active
//             members of per-member-port merged targets — member-level CSE
//             (a new σ/α/⋈ identical to a warm member reuses its output
//             port). Retired members are not posted.
//   σ-target  input channel -> per-member-port predicate indexes (sσ attach
//             targets; the probe picks the oldest = lowest MopId).
//   σ-single  input channel -> single-member slot-0 selections (sσ formation
//             candidates: two or more singles on one channel form an index).
//   α-target  (input channel, fn, attr, input slot) -> shared-aggregation
//             attach targets (warm sα engines and lone isolated aggregates).
//
// Consistency contract: call Sync() after the plan may have mutated and
// before probing. Sync consumes the plan's event log from the index's
// cursor (O(delta)); if the log was compacted past the cursor or recorded a
// bulk change (rollback), it falls back to one full rebuild (O(plan) — the
// cost a whole-plan scan would pay on *every* add).
//
// Probe() returns at most one candidate per fresh m-op, the best merge by
// rule precedence (CSE > member CSE > attach > formation — the same
// precedence MergeNewQueryIndexed's phase order encodes), with an
// estimated benefit for the greedy cost-ordered driver (rules/incremental).
#ifndef RUMOR_RULES_SHARE_INDEX_H_
#define RUMOR_RULES_SHARE_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/plan.h"

namespace rumor {

class ShareIndex {
 public:
  // Builds the index from the plan's current state and anchors the cursor
  // at its current mutation sequence. The plan must outlive the index.
  explicit ShareIndex(Plan* plan);

  // Brings the index up to date with the plan (see file comment). Cheap
  // when nothing changed.
  void Sync();

  // One merge opportunity for a fresh m-op.
  struct Candidate {
    enum Kind : uint8_t {
      kNone,
      kCseExact,         // fresh duplicates `target` wholesale
      kCseMember,        // fresh duplicates member `member` of `target`
      kAttachSelection,  // fresh σ joins predicate index `target`
      kAttachAggregate,  // fresh α joins shared-agg target `target`
      kFormIndex,        // ≥2 single σ on `channel` form a new index
    };
    Kind kind = kNone;
    MopId fresh = kInvalidMop;
    MopId target = kInvalidMop;           // not set for kFormIndex
    int member = -1;                      // kCseMember only
    ChannelId channel = kInvalidChannel;  // kFormIndex only
    // Estimated saved work: a base tier per merge kind (how much structure
    // and state the merge shares) plus a bounded bonus for warmer targets
    // (observed input traffic — merging onto hot operators first saves the
    // most evaluation work). Tier gaps exceed the bonus range, so greedy
    // best-first order never reorders across rule precedence.
    double benefit = 0.0;
  };

  // Best merge for `fresh` under the current index state, or kind == kNone.
  // `fresh` must be live. O(1) expected (hash probes over small buckets).
  // `kind_mask` (bits of MaskOf) restricts which merge kinds are considered:
  // MergeNewQueryIndexed runs the rule phases in priority order, probing
  // one kind group at a time, so e.g. an aggregate that became an exact duplicate
  // only after its σ was rewired mid-round attaches to the shared engine
  // in that round's sα phase instead of being exact-CSE'd a round later.
  static constexpr uint32_t MaskOf(Candidate::Kind kind) {
    return 1u << kind;
  }
  static constexpr uint32_t kAllKinds = ~0u;
  Candidate Probe(MopId fresh, uint32_t kind_mask = kAllKinds) const;

  // Live single-member slot-0 selections reading `channel`, sorted by MopId
  // ascending (formation order: the index's members follow it).
  std::vector<MopId> SinglesOn(ChannelId channel) const;

  // Canonical text form of the whole index (sorted, bucket order
  // independent): the churn stress compares this against a from-scratch
  // rebuild after every phase.
  std::string DebugDump() const;

  // Size statistics: entries per table plus the approximate heap bytes of
  // all tables (container footprint estimate, for memory budgeting).
  struct Stats {
    int64_t exact_entries = 0;
    int64_t member_entries = 0;
    int64_t index_target_entries = 0;
    int64_t sel_single_entries = 0;
    int64_t agg_target_entries = 0;
    int64_t posting_entries = 0;
    int64_t approx_bytes = 0;
  };
  Stats GetStats() const;
  // Approximate heap bytes of the index tables (GetStats().approx_bytes).
  int64_t ApproxBytes() const { return GetStats().approx_bytes; }

  const Plan* plan() const { return plan_; }

 private:
  struct MemberRef {
    MopId mop;
    int member;
  };
  // An m-op-level entry (every table but member_).
  struct Posting {
    enum Table : uint8_t {
      kExact,
      kIndexTarget,
      kSelSingle,
      kAggTarget,
    };
    Table table;
    uint64_t key;  // hash key, or the channel id for the channel tables
  };
  // One member's member_ entry; not posted while the member is retired.
  struct MemberPosting {
    uint64_t key = 0;
    bool posted = false;
  };
  struct MopPostings {
    std::vector<Posting> mop;
    std::vector<MemberPosting> members;  // by member (member-target types)
  };

  void Rebuild();
  // Removes, then (if the m-op is live and fully wired) re-adds all of one
  // m-op's table entries.
  void ReindexMop(MopId id);
  void UnindexMop(MopId id);
  void IndexMop(MopId id);
  // Appends just the entries for `grew` freshly bound member ports of an
  // already-indexed growing target; returns false (caller must ReindexMop)
  // when the growth-only precondition cannot be proven.
  bool GrowMop(MopId id, int grew);
  // Re-derives one member's entry of an indexed target after it was
  // retired or reused in place; returns false (caller must ReindexMop)
  // when the m-op is not indexed.
  bool RepostMember(MopId id, int member);
  // Posts / unposts member `i` of target `id` into member_.
  void PostMember(MopId id, int i, MopPostings* postings);
  void UnpostMember(MopId id, int i, MopPostings* postings);

  Plan* plan_;
  uint64_t cursor_ = 0;

  std::unordered_map<uint64_t, std::vector<MopId>> exact_;
  std::unordered_map<uint64_t, std::vector<MemberRef>> member_;
  std::unordered_map<ChannelId, std::vector<MopId>> index_targets_;
  std::unordered_map<ChannelId, std::vector<MopId>> sel_singles_;
  std::unordered_map<uint64_t, std::vector<MopId>> agg_targets_;
  // Reverse map for removal: which entries each m-op contributed (the m-op
  // itself is already gone when a removal event is observed).
  std::unordered_map<MopId, MopPostings> postings_;
};

}  // namespace rumor

#endif  // RUMOR_RULES_SHARE_INDEX_H_
