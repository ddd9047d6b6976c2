// Shared sliding-window state engines used by the m-op implementations:
//
//  * ValueVec / group-key hashing for group-by aggregates.
//  * KeyedBuffer<T>: an append-only, timestamp-ordered buffer with absolute
//    indexing, optional hash index on a key value (the AI-index equivalent),
//    in-place kill (consume-on-match), and front expiry. Backs join sides
//    and ;/µ instance stores.
//  * SharedAggEngine: the two-level shared aggregation state of [Zhang 05] /
//    [Krishnamurthy 06]: one shared entry log, per-member expiry cursors
//    (members may have different windows), per-(member, group) running
//    aggregates, and fragment awareness via entry memberships (an entry
//    contributes to member i iff its membership bit i is set).
#ifndef RUMOR_MOP_WINDOW_H_
#define RUMOR_MOP_WINDOW_H_

#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "common/tuple.h"
#include "mop/mop_state.h"
#include "query/query.h"

namespace rumor {

// --- group keys -------------------------------------------------------------

struct ValueVec {
  std::vector<Value> values;

  bool operator==(const ValueVec& other) const {
    return values == other.values;
  }
};

struct ValueVecHash {
  size_t operator()(const ValueVec& v) const {
    uint64_t h = Mix64(v.values.size());
    for (const Value& x : v.values) h = HashCombine(h, x.Hash());
    return h;
  }
};

// Extracts the group-by key of `t`.
inline ValueVec GroupKeyOf(const Tuple& t, const std::vector<int>& group_by) {
  ValueVec key;
  key.values.reserve(group_by.size());
  for (int g : group_by) key.values.push_back(t.at(g));
  return key;
}

// --- keyed buffer -------------------------------------------------------------

// Entries must be added in non-decreasing timestamp order. When `indexed` is
// true, lookups by key touch only the matching hash bucket; expired bucket
// slots are pruned lazily during lookups.
template <typename T>
class KeyedBuffer {
 public:
  explicit KeyedBuffer(bool indexed) : indexed_(indexed) {}

  struct Slot {
    T item;
    Value key;
    Timestamp ts;
    bool alive = true;
  };

  int64_t Add(T item, Value key, Timestamp ts) {
    int64_t abs = base_ + static_cast<int64_t>(slots_.size());
    slots_.push_back(Slot{std::move(item), key, ts, true});
    if (indexed_) index_[slots_.back().key].push_back(abs);
    ++live_;
    return abs;
  }

  // Drops entries with ts < min_ts from the front (they can never match
  // again). Dead (consumed) entries at the front are dropped too.
  void ExpireBefore(Timestamp min_ts) {
    while (!slots_.empty() &&
           (slots_.front().ts < min_ts || !slots_.front().alive)) {
      if (slots_.front().alive) --live_;
      slots_.pop_front();
      ++base_;
    }
  }

  // Marks the entry at absolute index `abs` dead.
  void Kill(int64_t abs) {
    int64_t rel = abs - base_;
    RUMOR_DCHECK(rel >= 0 && rel < static_cast<int64_t>(slots_.size()));
    if (slots_[rel].alive) --live_;
    slots_[rel].alive = false;
  }

  // Visits live slots (optionally only those whose key equals *key when the
  // buffer is indexed). fn(abs_index, Slot&) may mutate the slot's item or
  // kill it via alive=false.
  template <typename Fn>
  void ForCandidates(const Value* key, Fn&& fn) {
    if (indexed_ && key != nullptr) {
      auto it = index_.find(*key);
      if (it == index_.end()) return;
      std::vector<int64_t>& bucket = it->second;
      size_t w = 0;
      for (size_t r = 0; r < bucket.size(); ++r) {
        int64_t abs = bucket[r];
        int64_t rel = abs - base_;
        if (rel < 0) continue;  // expired; prune
        Slot& slot = slots_[rel];
        if (!slot.alive) continue;  // consumed; prune
        bucket[w++] = abs;
        fn(abs, slot);
      }
      bucket.resize(w);
      if (bucket.empty()) index_.erase(it);
      return;
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.alive) fn(base_ + static_cast<int64_t>(i), slot);
    }
  }

  // Visits every live slot in insertion (timestamp) order: fn(const Slot&).
  // Used by checkpointing; consumed and front-expired slots are skipped.
  template <typename Fn>
  void ForAllLive(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.alive) fn(slot);
    }
  }

  // Retained slots (including dead ones not yet dropped from the front).
  size_t size() const { return slots_.size(); }
  // Live (not consumed, not expired-from-front) entries.
  size_t live_size() const { return static_cast<size_t>(live_); }
  bool indexed() const { return indexed_; }

  // Approximate heap bytes of the retained slots and the hash index (tuple
  // payload blocks of stored items are accounted by the TupleArena).
  int64_t ApproxBytes() const {
    int64_t b = static_cast<int64_t>(slots_.size()) * sizeof(Slot);
    for (const auto& [key, bucket] : index_) {
      b += static_cast<int64_t>(sizeof(key)) + kNodeOverhead +
           static_cast<int64_t>(bucket.capacity()) * sizeof(int64_t);
    }
    return b;
  }

 private:
  // Assumed per-node bookkeeping of a hash-map entry (bucket pointer, hash,
  // allocator rounding) for the ApproxBytes estimate.
  static constexpr int64_t kNodeOverhead = 48;

  bool indexed_;
  std::deque<Slot> slots_;
  int64_t base_ = 0;
  int64_t live_ = 0;
  std::unordered_map<Value, std::vector<int64_t>> index_;
};

// --- two-stacks window extrema ----------------------------------------------

// Incremental MIN/MAX over a FIFO window, the two-stacks scheme of
// HammerSlide [Theodorakis 18] / SlideSide [Theodorakis 20]: values enter at
// the back and leave at the front in insertion order; each stack element
// caches the extremum of everything beneath it, so Push, PopFront, and Best
// are amortized O(1) with no per-element allocation (vs O(log n) node
// allocations for an ordered multiset, or O(window) recompute).
//
// The comparison direction is passed per call (the owning engine's aggregate
// function is fixed), which keeps this default-constructible inside
// hash-map-stored group states.
class TwoStacksExtrema {
 public:
  void Push(const Value& v, bool min) {
    back_.push_back(Item{v, back_.empty() ? v : Pick(v, back_.back().best,
                                                     min)});
  }

  // Removes the oldest value; `v` must equal it (FIFO discipline check).
  void PopFront(const Value& v, bool min) {
    if (front_.empty()) Flip(min);
    RUMOR_DCHECK(!front_.empty());
    RUMOR_DCHECK(front_.back().value == v) << "two-stacks eviction order";
    (void)v;
    front_.pop_back();
  }

  bool empty() const { return front_.empty() && back_.empty(); }
  size_t size() const { return front_.size() + back_.size(); }

  // Extremum of the whole window; CHECK-fails when empty.
  Value Best(bool min) const {
    RUMOR_DCHECK(!empty());
    if (front_.empty()) return back_.back().best;
    if (back_.empty()) return front_.back().best;
    return Pick(front_.back().best, back_.back().best, min);
  }

 private:
  struct Item {
    Value value;
    Value best;  // extremum of this item and everything beneath it
  };

  static const Value& Pick(const Value& a, const Value& b, bool min) {
    return (min ? a < b : b < a) ? a : b;
  }

  // Moves the back stack onto the front stack (reversing order) and rebuilds
  // the cached extrema; each element is flipped at most once per lifetime.
  void Flip(bool min) {
    while (!back_.empty()) {
      Value v = std::move(back_.back().value);
      back_.pop_back();
      front_.push_back(Item{v, front_.empty() ? v : Pick(v, front_.back().best,
                                                         min)});
    }
  }

  std::vector<Item> front_;  // leaves from the top (oldest at the top)
  std::vector<Item> back_;   // enters at the top (newest at the top)
};

// MIN/MAX maintenance implementation used by new SharedAggEngine instances;
// kOrderedSet is the legacy std::multiset path, kept for ablation benchmarks
// and cross-checking tests.
enum class MinMaxImpl : uint8_t { kTwoStacks, kOrderedSet };

// --- shared aggregation -------------------------------------------------------

// Per-member aggregate specification. All members of one engine must share
// the aggregate function and input attribute; group-by and window may
// differ (rule sα), and entries may apply to member subsets (rule cα).
struct AggMemberSpec {
  AggFn fn = AggFn::kCount;
  int attr = -1;  // -1 for COUNT
  std::vector<int> group_by;
  int64_t window = 0;

  uint64_t Signature() const;
};

class SharedAggEngine {
 public:
  explicit SharedAggEngine(std::vector<AggMemberSpec> members);

  // Process-wide default MIN/MAX implementation, captured by each engine at
  // construction (ablation benchmarks and cross-checking tests flip it;
  // production code leaves the kTwoStacks default).
  static void SetDefaultMinMaxImpl(MinMaxImpl impl);
  static MinMaxImpl default_min_max_impl();
  MinMaxImpl min_max_impl() const { return impl_; }

  // Processes tuple `t` on behalf of the members in `membership` (size =
  // #members). For each such member, updates its state and calls
  // emit(member, output) with output = (group values..., aggregate).
  // Window semantics: at emission time ts, member m aggregates entries with
  // entry.ts in (ts - window, ts].
  void Process(const Tuple& t, const BitVector& membership,
               const std::function<void(int, Tuple)>& emit);

  int num_members() const { return static_cast<int>(members_.size()); }
  // Number of entries currently retained in the shared log.
  size_t log_size() const { return entries_.size(); }
  // Number of live group states for `member` (memory observability).
  size_t group_count(int member) const {
    return states_[member].groups.size();
  }
  // Approximate heap bytes of the shared log and every member's group
  // states (MIN/MAX stacks and ordered sets included).
  int64_t ApproxBytes() const;

  // --- dynamic membership (online query churn) -------------------------------
  // Adds a member sharing this engine's fn/attr (group-by and window may
  // differ). The caller guarantees the new member reads the same stream as
  // the existing members (kShared / single-member-isolated discipline, where
  // every log entry applies to every member). The member's state is
  // backfilled from the retained log — entries within its window are applied
  // as if the member had been present when they arrived — so it starts warm
  // up to the log's retention horizon (max existing window). Returns the
  // number of backfilled entries.
  int AddMember(const AggMemberSpec& spec);

  // Deactivates a member (its query was removed): clears its group states,
  // parks its expiry cursor, and skips it on future input. The member index
  // stays valid so other members' indices do not shift, and the slot can be
  // reused by a later ReuseMember — add/remove churn does not grow the
  // member set without bound.
  void DeactivateMember(int member);
  bool member_active(int member) const { return active_[member] != 0; }
  int num_active_members() const {
    return num_members() - static_cast<int>(free_slots_.size());
  }
  // Lowest deactivated member slot, or -1. O(1).
  int FindInactiveMember() const {
    return free_slots_.empty() ? -1 : free_slots_.top();
  }
  // Re-arms the deactivated slot `member` (FindInactiveMember's) with a (possibly different) spec
  // under the same fn/attr discipline as AddMember, backfilling its state
  // from the retained log. Returns the number of backfilled entries.
  int ReuseMember(int member, const AggMemberSpec& spec);

  // --- checkpoint/restore ---------------------------------------------------
  // Serializes the retained log and per-member group accumulators into
  // `out` (slots are left for the caller). Entry memberships are
  // *normalized*: bits of members whose expiry cursor already passed an
  // entry are cleared, so each member's cursor is recoverable as the index
  // of its first set bit — which also makes per-shard logs mergeable by a
  // plain timestamp merge. Group numerics are saved bit-exactly.
  void ExtractState(AggEngineState* out) const;

  // Loads `state` into this freshly constructed (empty) engine.
  // `src_members[r]` names the saved engine-member index whose state
  // restored member r inherits (-1 = start empty). Entries are re-logged in
  // saved order; extrema stacks / ordered multisets are rebuilt by
  // replaying the log (same FIFO discipline as live processing) while the
  // saved accumulator numerics are adopted verbatim, with the replayed
  // per-group counts cross-checked against the saved ones.
  Status LoadState(const AggEngineState& state,
                   const std::vector<int>& src_members);

 private:
  struct Entry {
    Timestamp ts;
    Value value;  // aggregated attribute (null for COUNT)
    Tuple tuple;  // for group-key extraction on expiry
    BitVector membership;
  };

  struct GroupState {
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0.0;
    int64_t double_count = 0;
    // MIN/MAX state — exactly one engaged, per the engine's min_max_impl().
    TwoStacksExtrema extrema;
    std::multiset<Value> ordered;
  };

  struct MemberState {
    int64_t cursor = 0;  // absolute index of first non-expired entry
    std::unordered_map<ValueVec, GroupState, ValueVecHash> groups;
  };

  void Apply(int member, const Entry& e, int sign);
  Value Extract(const GroupState& g) const;
  // Applies the retained in-window log entries to the (empty) state of
  // member `m` and positions its cursor; shared by AddMember/ReuseMember.
  int Backfill(int m);

  // Entries logged before a member joined carry a narrower membership
  // vector; such entries never belong to the late member.
  static bool EntryHasMember(const Entry& e, int member) {
    return member < e.membership.size() && e.membership.Test(member);
  }

  std::vector<AggMemberSpec> members_;
  std::vector<MemberState> states_;
  std::vector<char> active_;  // parallel to members_; 0 = deactivated
  // Deactivated slots, lowest first (ReuseMember takes the top).
  std::priority_queue<int, std::vector<int>, std::greater<int>> free_slots_;
  std::deque<Entry> entries_;
  int64_t base_ = 0;
  int64_t max_window_ = 0;
  bool need_ordered_ = false;  // MIN/MAX
  bool is_min_ = false;        // kMin vs kMax (meaningful when need_ordered_)
  MinMaxImpl impl_ = MinMaxImpl::kTwoStacks;
};

}  // namespace rumor

#endif  // RUMOR_MOP_WINDOW_H_
