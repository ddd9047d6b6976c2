// PredicateIndexMop — target of rule sσ (paper §2.4): a set of selections
// reading the same stream, evaluated with predicate indexing [Fabret 01,
// CACQ]. Members whose predicate contains an `attr = const` conjunct are
// grouped into per-attribute hash indexes (const -> members); a probe plus a
// per-member residual check replaces evaluating every predicate. Members
// without an indexable equality fall back to sequential evaluation.
//
// Probe fast path: while every constant of an attribute index is an int, the
// index also maintains a flat open-addressing int64 table mapping the
// constant to its member bucket, so the per-tuple probe is a Mix64 + linear
// scan with no Value hashing; non-int probes (and indexes holding any
// non-int constant) fall back to the authoritative unordered_map, whose
// numeric Value equality handles cross-type matches (3 vs 3.0).
//
// This same m-op is what the Cayuga FR and AN indexes translate to in RUMOR
// (paper §4.3).
#ifndef RUMOR_MOP_PREDICATE_INDEX_MOP_H_
#define RUMOR_MOP_PREDICATE_INDEX_MOP_H_

#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "expr/program.h"
#include "expr/shape.h"
#include "mop/selection_mop.h"

namespace rumor {

class PredicateIndexMop : public Mop {
 public:
  // All members read slot 0 of the single input channel.
  PredicateIndexMop(std::vector<SelectionDef> members, OutputMode mode);

  int num_members() const override {
    return static_cast<int>(members_.size());
  }
  bool member_active(int i) const override { return places_[i].active; }
  int num_active_members() const override {
    return num_members() - static_cast<int>(free_slots_.size());
  }
  uint64_t MemberSignature(int i) const override {
    return members_[i].Signature();
  }
  const SelectionDef& member(int i) const { return members_[i]; }
  OutputMode output_mode() const { return mode_; }

  // Number of members served by hash indexes (observability / tests).
  int num_indexed_members() const { return num_indexed_; }
  // Number of attribute indexes currently served by the flat int probe.
  int num_flat_indexes() const;
  // Probe fast-path efficacy: probes answered by the flat int table vs the
  // unordered_map fallback (compiled out under RUMOR_METRICS=OFF).
  int64_t flat_probes() const { return flat_probes_; }
  int64_t map_probes() const { return map_probes_; }

  // --- dynamic membership (online query churn) -------------------------------
  // Adds a member selection (a new query's σ snaps onto the warm index).
  // Selections are stateless, so this is always safe. The lowest retired
  // slot is reused when one exists — its output port keeps its channel
  // binding and the caller routes the new query onto that channel —
  // otherwise the member set (and, per-member-ports, the port count) grows
  // by one. O(1) apart from compiling the predicate.
  MemberAttach AttachMember(SelectionDef def);
  // Retires member `i` (its query was removed): unlinks it from its hash
  // bucket, flat table or sequential list in O(bucket) so it never matches
  // again; the port stays bound until an attach reuses the slot.
  void DeactivateMember(int i);
  // Lowest retired member slot, or -1. O(1).
  int FindInactiveMember() const {
    return free_slots_.empty() ? -1 : free_slots_.top();
  }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;
  void ProcessBatch(int input_port, const ChannelTuple* tuples, size_t n,
                    Emitter& out) override;

  int64_t StateBytes() const override {
    constexpr int64_t kNodeOverhead = 48;  // unordered_map node estimate
    int64_t b = 0;
    for (const auto& index : indexes_) {
      b += static_cast<int64_t>(index.bucket_keys.capacity() *
                                sizeof(int64_t));
      for (const auto& [key, bucket] : index.by_constant) {
        b += kNodeOverhead + static_cast<int64_t>(sizeof(key)) +
             static_cast<int64_t>(bucket.capacity() * sizeof(IndexedMember));
      }
      b += index.flat.ApproxBytes();
      b += static_cast<int64_t>(index.buckets.capacity() *
                                sizeof(index.buckets[0]));
    }
    b += static_cast<int64_t>(sequential_.capacity() *
                              sizeof(SequentialMember));
    b += static_cast<int64_t>(places_.capacity() * sizeof(MemberPlace));
    return b;
  }

 private:
  // Routes member `i` into the hash indexes or the sequential list.
  void IndexMember(int i);
  // Where member `i` is linked, so retiring it touches only that spot.
  struct MemberPlace {
    bool active = true;
    int index = -1;     // position in indexes_, or -1 when sequential
    int seq_pos = -1;   // position in sequential_ (sequential members)
    Value constant;     // probed constant (indexed members)
  };
  struct IndexedMember {
    int member;
    Program residual;   // empty => unconditional on probe hit
    bool has_residual;
  };
  struct AttrIndex {
    int attr;
    std::unordered_map<Value, std::vector<IndexedMember>> by_constant;
    // Flat probe (engaged while all_int): constant -> index into buckets,
    // which points at the by_constant bucket (mapped references are stable).
    bool all_int = true;
    FlatInt64Map flat;
    std::vector<const std::vector<IndexedMember>*> buckets;
    std::vector<int64_t> bucket_keys;  // parallel to buckets
  };
  struct SequentialMember {
    int member;
    Program program;  // full predicate
  };

  // Members matching `v` on this index, or null. Defined inline: this is
  // the innermost per-tuple operation of the batch path. Non-static so the
  // probe-efficacy counters can live on the m-op.
  const std::vector<IndexedMember>* Probe(const AttrIndex& index,
                                          const Value& v) {
    if (index.all_int && v.type() == ValueType::kInt) {
      RUMOR_METRIC(++flat_probes_);
      const int32_t bucket = index.flat.Find(v.AsIntUnchecked());
      return bucket >= 0 ? index.buckets[bucket] : nullptr;
    }
    RUMOR_METRIC(++map_probes_);
    auto it = index.by_constant.find(v);
    return it == index.by_constant.end() ? nullptr : &it->second;
  }
  // Sets the matched-member bits for one tuple into matched_scratch_.
  void MatchTuple(const ChannelTuple& ct);

  std::vector<SelectionDef> members_;
  std::vector<MemberPlace> places_;  // parallel to members_
  // Retired member slots, lowest first (the next attach reuses the top).
  std::priority_queue<int, std::vector<int>, std::greater<int>> free_slots_;
  std::vector<AttrIndex> indexes_;
  std::vector<SequentialMember> sequential_;
  int num_indexed_ = 0;
  OutputMode mode_;
  int64_t flat_probes_ = 0;
  int64_t map_probes_ = 0;

  // Recycled per-tuple/batch scratch (never shrinks; allocation-free in
  // steady state).
  BitVector matched_scratch_;
  std::vector<BitVector> seq_match_scratch_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_PREDICATE_INDEX_MOP_H_
