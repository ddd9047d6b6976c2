#include "mop/window.h"

namespace rumor {

uint64_t AggMemberSpec::Signature() const {
  uint64_t h = Mix64(static_cast<uint64_t>(fn));
  h = HashCombine(h, static_cast<uint64_t>(attr));
  for (int g : group_by) h = HashCombine(h, static_cast<uint64_t>(g));
  h = HashCombine(h, static_cast<uint64_t>(window));
  return h;
}

SharedAggEngine::SharedAggEngine(std::vector<AggMemberSpec> members)
    : members_(std::move(members)),
      states_(members_.size()),
      active_(members_.size(), 1) {
  RUMOR_CHECK(!members_.empty());
  for (const AggMemberSpec& m : members_) {
    RUMOR_CHECK(m.fn == members_[0].fn && m.attr == members_[0].attr)
        << "shared aggregation requires identical fn and attribute";
    RUMOR_CHECK(m.window > 0) << "aggregate window must be positive";
    max_window_ = std::max(max_window_, m.window);
    if (m.fn == AggFn::kMin || m.fn == AggFn::kMax) min_max_ = true;
  }
  is_min_ = members_[0].fn == AggFn::kMin;
}

void SharedAggEngine::Apply(int member, const Entry& e, int sign) {
  const AggMemberSpec& spec = members_[member];
  GroupState& g =
      states_[member].groups[GroupKeyOf(e.tuple, spec.group_by)];
  g.count += sign;
  if (spec.fn != AggFn::kCount) {
    if (e.value.type() == ValueType::kInt) {
      g.isum += sign * e.value.AsInt();
    } else {
      g.dsum += sign * e.value.ToNumeric();
      g.double_count += sign;
      // Drop the accumulated floating-point residue once no double entry is
      // left in the window, so the sum reverts to the exact integer form
      // instead of drifting (and staying double) forever.
      if (g.double_count == 0) g.dsum = 0.0;
    }
    if (min_max_) {
      // Per (member, group), entries enter and leave in timestamp order
      // (insertions append to the shared log; the expiry cursor walks it
      // front to back) — the FIFO discipline the two-stacks scheme needs.
      if (sign > 0) {
        g.extrema.Push(e.value, is_min_);
      } else {
        g.extrema.PopFront(e.value, is_min_);
      }
    }
  }
}

Value SharedAggEngine::Extract(const GroupState& g) const {
  switch (members_[0].fn) {
    case AggFn::kCount:
      return Value(g.count);
    case AggFn::kSum:
      if (g.double_count > 0) return Value(g.dsum + g.isum);
      return Value(g.isum);
    case AggFn::kAvg:
      if (g.count == 0) return Value();
      return Value((g.dsum + static_cast<double>(g.isum)) /
                   static_cast<double>(g.count));
    case AggFn::kMin:
    case AggFn::kMax:
      if (g.extrema.empty()) return Value();
      return g.extrema.Best(is_min_);
  }
  return Value();
}

void SharedAggEngine::Process(const Tuple& t, const BitVector& membership,
                              const std::function<void(int, Tuple)>& emit) {
  const Timestamp now = t.ts();

  Entry entry;
  entry.ts = now;
  entry.value =
      members_[0].attr >= 0 ? t.at(members_[0].attr) : Value();
  entry.tuple = t;
  entry.membership = membership;
  entries_.push_back(entry);

  for (int m = 0; m < num_members(); ++m) {
    MemberState& st = states_[m];
    if (!active_[m]) {
      // Deactivated members hold no state and must not pin the shared log.
      st.cursor = base_ + static_cast<int64_t>(entries_.size());
      continue;
    }
    const int64_t member_window = members_[m].window;
    // Expire entries that left this member's window: ts <= now - window.
    while (st.cursor < base_ + static_cast<int64_t>(entries_.size())) {
      const Entry& e = entries_[st.cursor - base_];
      if (e.ts > now - member_window) break;
      if (EntryHasMember(e, m)) {
        Apply(m, e, -1);
        // Drop groups whose window emptied (bounds state by the number of
        // groups *live in the window*, not ever seen).
        ValueVec key = GroupKeyOf(e.tuple, members_[m].group_by);
        auto it = st.groups.find(key);
        if (it != st.groups.end() && it->second.count == 0) {
          st.groups.erase(it);
        }
      }
      ++st.cursor;
    }
    if (!membership.Test(m)) continue;
    // Add the new entry and emit the updated aggregate of its group.
    Apply(m, entries_.back(), +1);
    const AggMemberSpec& spec = members_[m];
    ValueVec key = GroupKeyOf(t, spec.group_by);
    const GroupState& g = st.groups[key];
    std::vector<Value> out = key.values;
    out.push_back(Extract(g));
    emit(m, Tuple::Make(std::move(out), now));
  }

  // Entries no member can still need are dropped from the shared log.
  int64_t min_cursor = base_ + static_cast<int64_t>(entries_.size());
  for (const MemberState& st : states_) {
    min_cursor = std::min(min_cursor, st.cursor);
  }
  while (base_ < min_cursor && !entries_.empty()) {
    entries_.pop_front();
    ++base_;
  }
}

int SharedAggEngine::Backfill(int m) {
  MemberState& st = states_[m];
  st.cursor = base_ + static_cast<int64_t>(entries_.size());
  if (entries_.empty()) return 0;

  // Backfill: retained entries inside the member's window (relative to the
  // newest logged timestamp) are applied in log order — the same FIFO
  // discipline live processing follows, so two-stacks extrema stay valid.
  // The entries' membership vectors are widened to include the member,
  // which is what lets the normal expiry path retract them later.
  const Timestamp last_ts = entries_.back().ts;
  int backfilled = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.ts <= last_ts - members_[m].window) continue;
    if (backfilled == 0) st.cursor = base_ + static_cast<int64_t>(i);
    if (e.membership.size() < num_members()) {
      e.membership.Resize(num_members());
    }
    e.membership.Set(m);
    Apply(m, e, +1);
    ++backfilled;
  }
  return backfilled;
}

int SharedAggEngine::AddMember(const AggMemberSpec& spec) {
  RUMOR_CHECK(spec.fn == members_[0].fn && spec.attr == members_[0].attr)
      << "shared aggregation requires identical fn and attribute";
  RUMOR_CHECK(spec.window > 0) << "aggregate window must be positive";
  members_.push_back(spec);
  states_.emplace_back();
  active_.push_back(1);
  max_window_ = std::max(max_window_, spec.window);
  return Backfill(num_members() - 1);
}

void SharedAggEngine::DeactivateMember(int member) {
  RUMOR_DCHECK(member >= 0 && member < num_members());
  RUMOR_CHECK(active_[member]) << "member already deactivated";
  active_[member] = 0;
  free_slots_.push(member);
  states_[member].groups.clear();
  states_[member].cursor = base_ + static_cast<int64_t>(entries_.size());
}

int SharedAggEngine::ReuseMember(int member, const AggMemberSpec& spec) {
  RUMOR_CHECK(member >= 0 && member < num_members());
  RUMOR_CHECK(member == FindInactiveMember()) << "reuse the lowest free slot";
  free_slots_.pop();
  RUMOR_CHECK(spec.fn == members_[0].fn && spec.attr == members_[0].attr)
      << "shared aggregation requires identical fn and attribute";
  RUMOR_CHECK(spec.window > 0) << "aggregate window must be positive";
  members_[member] = spec;
  active_[member] = 1;
  max_window_ = std::max(max_window_, spec.window);
  RUMOR_DCHECK(states_[member].groups.empty());
  return Backfill(member);
}

void SharedAggEngine::ExtractState(AggEngineState* out) const {
  out->entries.clear();
  out->members.assign(members_.size(), AggMemberState{});

  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const int64_t abs = base_ + static_cast<int64_t>(i);
    BitVector live(num_members());
    for (int m = 0; m < num_members(); ++m) {
      if (active_[m] && abs >= states_[m].cursor && EntryHasMember(e, m)) {
        live.Set(m);
      }
    }
    if (live.None()) continue;  // fully expired; nothing left to retract
    AggLogEntry saved;
    saved.ts = e.ts;
    saved.value = e.value;
    saved.tuple.ts = e.tuple.ts();
    saved.tuple.values.assign(e.tuple.values().begin(),
                              e.tuple.values().end());
    saved.membership = std::move(live);
    out->entries.push_back(std::move(saved));
  }

  for (int m = 0; m < num_members(); ++m) {
    AggMemberState& member = out->members[m];
    // The cursor is derivable (first set bit); stored for readability only.
    member.cursor = static_cast<int64_t>(out->entries.size());
    for (size_t i = 0; i < out->entries.size(); ++i) {
      if (out->entries[i].membership.Test(m)) {
        member.cursor = static_cast<int64_t>(i);
        break;
      }
    }
    if (!active_[m]) continue;
    for (const auto& [key, g] : states_[m].groups) {
      AggGroupState saved;
      saved.key = key.values;
      saved.count = g.count;
      saved.isum = g.isum;
      saved.double_count = g.double_count;
      saved.dsum = g.dsum;
      member.groups.push_back(std::move(saved));
    }
  }
}

Status SharedAggEngine::LoadState(const AggEngineState& state,
                                  const std::vector<int>& src_members) {
  if (!entries_.empty()) {
    return Status::Internal("aggregate state restore needs an empty engine");
  }
  if (src_members.size() != static_cast<size_t>(num_members())) {
    return Status::Internal("aggregate member mapping size mismatch");
  }

  // Re-log the saved entries that at least one restored member still needs.
  for (const AggLogEntry& saved : state.entries) {
    BitVector membership(num_members());
    for (int r = 0; r < num_members(); ++r) {
      const int s = src_members[r];
      if (s >= 0 && s < saved.membership.size() && saved.membership.Test(s)) {
        membership.Set(r);
      }
    }
    if (membership.None()) continue;
    Entry e;
    e.ts = saved.ts;
    e.value = saved.value;
    e.tuple = Tuple::Make(saved.tuple.values, saved.tuple.ts);
    e.membership = std::move(membership);
    entries_.push_back(std::move(e));
  }

  for (int r = 0; r < num_members(); ++r) {
    MemberState& st = states_[r];
    st.cursor = base_ + static_cast<int64_t>(entries_.size());
    const int s = src_members[r];
    if (!active_[r] || s < 0) continue;
    if (s >= static_cast<int>(state.members.size())) {
      return Status::Internal("aggregate member mapping out of range");
    }
    // Replay the member's live entries in log (timestamp) order. This
    // rebuilds the extrema stacks under the same FIFO discipline live
    // processing follows, and recomputes the group numerics — which are
    // then replaced by the saved bit-exact values so restored running sums
    // match the uninterrupted run to the last bit.
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (!e.membership.Test(r)) continue;
      if (st.cursor > base_ + static_cast<int64_t>(i)) {
        st.cursor = base_ + static_cast<int64_t>(i);
      }
      Apply(r, e, +1);
    }
    const std::vector<AggGroupState>& saved_groups = state.members[s].groups;
    if (st.groups.size() != saved_groups.size()) {
      return Status::InvalidArgument(
          "snapshot aggregate state inconsistent: replayed group count "
          "does not match the saved accumulators");
    }
    for (const AggGroupState& g : saved_groups) {
      auto it = st.groups.find(ValueVec{g.key});
      if (it == st.groups.end()) {
        return Status::InvalidArgument(
            "snapshot aggregate state inconsistent: saved group key has no "
            "live entries in the saved log");
      }
      if (it->second.count != g.count) {
        return Status::InvalidArgument(
            "snapshot aggregate state inconsistent: saved group count does "
            "not match the saved log");
      }
      it->second.count = g.count;
      it->second.isum = g.isum;
      it->second.dsum = g.dsum;
      it->second.double_count = g.double_count;
    }
  }
  return Status::OK();
}

int64_t SharedAggEngine::ApproxBytes() const {
  // Hash/tree node bookkeeping estimate (pointers, hash, allocator rounding).
  constexpr int64_t kNodeOverhead = 48;
  int64_t b = static_cast<int64_t>(entries_.size()) * sizeof(Entry);
  for (const MemberState& state : states_) {
    for (const auto& [key, group] : state.groups) {
      b += kNodeOverhead + static_cast<int64_t>(sizeof(key)) +
           static_cast<int64_t>(key.values.capacity() * sizeof(Value)) +
           static_cast<int64_t>(sizeof(group));
      // Two-stacks items (value + running extremum) live in two vectors.
      b += static_cast<int64_t>(group.extrema.size()) * 2 *
           static_cast<int64_t>(sizeof(Value));
    }
  }
  return b;
}

}  // namespace rumor
