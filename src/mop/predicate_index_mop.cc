#include "mop/predicate_index_mop.h"

#include <algorithm>

namespace rumor {

namespace {
bool g_flat_probe_enabled = true;
}  // namespace

void PredicateIndexMop::SetFlatProbeEnabled(bool enabled) {
  g_flat_probe_enabled = enabled;
}

bool PredicateIndexMop::flat_probe_enabled() { return g_flat_probe_enabled; }

PredicateIndexMop::PredicateIndexMop(std::vector<SelectionDef> members,
                                     OutputMode mode)
    : Mop(MopType::kPredicateIndex, /*num_inputs=*/1,
          /*num_outputs=*/mode == OutputMode::kChannel
              ? 1
              : static_cast<int>(members.size())),
      members_(std::move(members)),
      mode_(mode) {
  RUMOR_CHECK(!members_.empty());
  places_.resize(members_.size());
  for (int i = 0; i < static_cast<int>(members_.size()); ++i) {
    IndexMember(i);
  }
}

void PredicateIndexMop::IndexMember(int i) {
  SelectionShape shape = AnalyzeSelection(members_[i].predicate);
  MemberPlace& place = places_[i];
  place = MemberPlace{};
  if (!shape.equality.has_value()) {
    place.seq_pos = static_cast<int>(sequential_.size());
    sequential_.push_back({i, Program::Compile(members_[i].predicate)});
    return;
  }
  ++num_indexed_;
  place.index = 0;
  while (place.index < static_cast<int>(indexes_.size()) &&
         indexes_[place.index].attr != shape.equality->attr) {
    ++place.index;
  }
  if (place.index == static_cast<int>(indexes_.size())) {
    indexes_.push_back(AttrIndex{shape.equality->attr, {},
                                 g_flat_probe_enabled, {}, {}, {}});
  }
  AttrIndex* index = &indexes_[place.index];
  IndexedMember im;
  im.member = i;
  im.has_residual = shape.residual != nullptr;
  if (im.has_residual) im.residual = Program::Compile(shape.residual);
  const Value& constant = shape.equality->constant;
  place.constant = constant;
  std::vector<IndexedMember>& bucket = index->by_constant[constant];
  const bool new_bucket = bucket.empty();
  bucket.push_back(std::move(im));
  if (!index->all_int) return;
  if (constant.type() != ValueType::kInt) {
    // A non-int constant can numerically alias an int one (3 vs 3.0); the
    // flat probe cannot see that, so the whole index reverts to the map.
    index->all_int = false;
    index->flat.clear();
    index->buckets.clear();
    index->bucket_keys.clear();
    return;
  }
  if (new_bucket) {
    index->flat.Insert(constant.AsIntUnchecked(),
                       static_cast<int32_t>(index->buckets.size()));
    index->buckets.push_back(&bucket);
    index->bucket_keys.push_back(constant.AsIntUnchecked());
  }
}

void PredicateIndexMop::DeactivateMember(int i) {
  RUMOR_CHECK(i >= 0 && i < num_members() && places_[i].active);
  MemberPlace& place = places_[i];
  place.active = false;
  free_slots_.push(i);
  if (place.index < 0) {
    // Swap-remove from the sequential list; match bits do not depend on
    // evaluation order.
    const int pos = place.seq_pos;
    if (pos + 1 != static_cast<int>(sequential_.size())) {
      sequential_[pos] = std::move(sequential_.back());
      places_[sequential_[pos].member].seq_pos = pos;
    }
    sequential_.pop_back();
    return;
  }
  --num_indexed_;
  AttrIndex& index = indexes_[place.index];
  auto it = index.by_constant.find(place.constant);
  RUMOR_CHECK(it != index.by_constant.end());
  std::vector<IndexedMember>& bucket = it->second;
  auto member = std::find_if(bucket.begin(), bucket.end(),
                             [i](const IndexedMember& im) {
                               return im.member == i;
                             });
  RUMOR_CHECK(member != bucket.end());
  if (member + 1 != bucket.end()) *member = std::move(bucket.back());
  bucket.pop_back();
  if (!bucket.empty()) return;
  if (index.all_int) {
    // Drop the bucket from the flat table; the last bucket takes its id.
    const int64_t key = place.constant.AsIntUnchecked();
    const int32_t id = index.flat.Find(key);
    index.flat.Erase(key);
    if (id != static_cast<int32_t>(index.buckets.size()) - 1) {
      index.buckets[id] = index.buckets.back();
      index.bucket_keys[id] = index.bucket_keys.back();
      index.flat.Insert(index.bucket_keys[id], id);
    }
    index.buckets.pop_back();
    index.bucket_keys.pop_back();
  }
  index.by_constant.erase(it);
}

int PredicateIndexMop::num_flat_indexes() const {
  int n = 0;
  for (const AttrIndex& ai : indexes_) n += ai.all_int ? 1 : 0;
  return n;
}

MemberAttach PredicateIndexMop::AttachMember(SelectionDef def) {
  const int slot = FindInactiveMember();
  if (slot >= 0) {
    free_slots_.pop();
    members_[slot] = std::move(def);
    IndexMember(slot);
    return {slot, true};
  }
  members_.push_back(std::move(def));
  places_.emplace_back();
  const int i = num_members() - 1;
  IndexMember(i);
  if (mode_ == OutputMode::kPerMemberPorts) {
    set_num_outputs(num_outputs() + 1);
  }
  return {i, false};
}

void PredicateIndexMop::MatchTuple(const ChannelTuple& ct) {
  RUMOR_DCHECK(ct.membership.Test(0)) << "sσ members all read slot 0";
  matched_scratch_.AssignZero(num_members());
  const ExprContext ctx{&ct.tuple, nullptr};
  for (const AttrIndex& index : indexes_) {
    const std::vector<IndexedMember>* bucket =
        Probe(index, ct.tuple.at(index.attr));
    if (bucket == nullptr) continue;
    for (const IndexedMember& im : *bucket) {
      if (!im.has_residual || im.residual.EvalBool(ctx)) {
        matched_scratch_.Set(im.member);
      }
    }
  }
}

void PredicateIndexMop::Process(int input_port, const ChannelTuple& ct,
                                Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  MatchTuple(ct);
  const ExprContext ctx{&ct.tuple, nullptr};
  for (const SequentialMember& sm : sequential_) {
    if (sm.program.EvalBool(ctx)) matched_scratch_.Set(sm.member);
  }
  EmitForMembers(mode_, matched_scratch_, ct.tuple, out);
  CountOut(mode_ == OutputMode::kChannel ? (matched_scratch_.Any() ? 1 : 0)
                                         : matched_scratch_.Count());
}

void PredicateIndexMop::ProcessBatch(int input_port,
                                     const ChannelTuple* tuples, size_t n,
                                     Emitter& out) {
  RUMOR_DCHECK(input_port == 0);
  (void)input_port;
  // Member-major pass over the sequential members (vectorized evaluation);
  // probes and residuals stay tuple-major — residuals must only run on
  // probe-hit tuples, exactly as the scalar path does.
  seq_match_scratch_.resize(sequential_.size());
  for (size_t s = 0; s < sequential_.size(); ++s) {
    sequential_[s].program.EvalBoolBatch(tuples, n, seq_match_scratch_[s]);
  }
  for (size_t j = 0; j < n; ++j) {
    const ChannelTuple& ct = tuples[j];
    MatchTuple(ct);
    for (size_t s = 0; s < sequential_.size(); ++s) {
      if (seq_match_scratch_[s].Test(static_cast<int>(j))) {
        matched_scratch_.Set(sequential_[s].member);
      }
    }
    EmitForMembers(mode_, matched_scratch_, ct.tuple, out);
    CountOut(mode_ == OutputMode::kChannel ? (matched_scratch_.Any() ? 1 : 0)
                                           : matched_scratch_.Count());
  }
}

}  // namespace rumor
