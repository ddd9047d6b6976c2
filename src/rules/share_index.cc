#include "rules/share_index.h"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "common/hash.h"
#include "mop/aggregate_mop.h"
#include "mop/join_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"

namespace rumor {
namespace {

// Benefit tiers follow rule precedence (see header); the traffic bonus is
// bounded below the tier gap so greedy order never crosses precedence.
constexpr double kBenefitCseExact = 4000.0;
constexpr double kBenefitCseMember = 3000.0;
constexpr double kBenefitAttachSelection = 2000.0;
constexpr double kBenefitAttachAggregate = 1500.0;
constexpr double kBenefitFormIndex = 1000.0;

double BenefitOf(double base, const Mop* target) {
  double traffic = target == nullptr
                       ? 0.0
                       : static_cast<double>(target->tuples_in());
  return base + 99.0 * traffic / (traffic + 1024.0);
}

// Exact-CSE key: m-op type, member definition and input channels.
uint64_t ExactKey(const Plan& plan, MopId id, const Mop& m) {
  uint64_t key = Mix64(static_cast<uint64_t>(m.type()));
  key = HashCombine(key, m.MemberSignature(0));
  for (ChannelId c : plan.input_channels(id)) {
    key = HashCombine(key, static_cast<uint64_t>(c));
  }
  return key;
}

uint64_t MemberKey(MopType shared_type, uint64_t signature,
                   const std::vector<ChannelId>& inputs) {
  uint64_t key = Mix64(0x6d656d6265726373ull ^
                       static_cast<uint64_t>(shared_type));
  key = HashCombine(key, signature);
  for (ChannelId c : inputs) {
    key = HashCombine(key, static_cast<uint64_t>(c));
  }
  return key;
}

// sα attach key: targets must agree on input channel, fn, attr and slot.
uint64_t AggKey(const Plan& plan, MopId id, const AggregateMop& agg) {
  uint64_t key = Mix64(static_cast<uint64_t>(plan.input_channel(id, 0)));
  key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.fn));
  key = HashCombine(key, static_cast<uint64_t>(agg.member(0).spec.attr));
  key = HashCombine(key, static_cast<uint64_t>(agg.member(0).input_slot));
  return key;
}

// The per-member-port merged target type a single-member m-op can join.
bool SharedTypeFor(MopType type, MopType* shared) {
  switch (type) {
    case MopType::kSelection: *shared = MopType::kPredicateIndex; return true;
    case MopType::kAggregate: *shared = MopType::kSharedAggregate; return true;
    case MopType::kJoin: *shared = MopType::kSharedJoin; return true;
    default: return false;
  }
}

bool IsMemberTargetType(MopType type) {
  return type == MopType::kPredicateIndex ||
         type == MopType::kSharedAggregate || type == MopType::kSharedJoin;
}

}  // namespace

ShareIndex::ShareIndex(Plan* plan) : plan_(plan) {
  cursor_ = plan_->mutation_seq();
  Rebuild();
}

void ShareIndex::Sync() {
  std::vector<PlanEvent> events;
  if (!plan_->ReadEventsSince(cursor_, &events)) {
    cursor_ = plan_->mutation_seq();
    Rebuild();
    return;
  }
  cursor_ = plan_->mutation_seq();
  if (events.empty()) return;
  for (const PlanEvent& e : events) {
    if (e.kind == PlanEvent::kBulk) {
      Rebuild();
      return;
    }
  }
  // Classify per m-op: a target whose only changes are grown member ports
  // (kMopGrew — an attach) or members retired / reused in place
  // (kMemberChanged — a remove, or an attach onto a retired slot) patches
  // just those members' entries, keeping each add and remove O(1) instead
  // of O(members). That distinction is what keeps churn latency flat as a
  // popular σ-index or sα target accumulates thousands of members. Any
  // other event on the m-op (rebinds, removal) forces the full reindex.
  struct DirtyMop {
    MopId id;
    int grew = 0;
    bool other = false;
    std::vector<int> changed;  // members retired or reused in place
  };
  std::vector<DirtyMop> dirty;
  auto dirty_of = [&dirty](MopId id) -> DirtyMop& {
    for (DirtyMop& d : dirty) {
      if (d.id == id) return d;
    }
    dirty.push_back({id, 0, false, {}});
    return dirty.back();
  };
  for (const PlanEvent& e : events) {
    switch (e.kind) {
      case PlanEvent::kMopGrew:
        ++dirty_of(e.a).grew;
        break;
      case PlanEvent::kMemberChanged:
        dirty_of(e.a).changed.push_back(e.b);
        break;
      case PlanEvent::kMopAdded:
      case PlanEvent::kMopRemoved:
      case PlanEvent::kInputBound:
      case PlanEvent::kOutputBound:
        dirty_of(e.a).other = true;
        break;
      default:
        break;  // channel/output-mark events do not change index content
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const DirtyMop& a, const DirtyMop& b) { return a.id < b.id; });
  for (const DirtyMop& d : dirty) {
    bool patched = !d.other;
    for (size_t k = 0; patched && k < d.changed.size(); ++k) {
      patched = RepostMember(d.id, d.changed[k]);
    }
    if (patched && d.grew > 0) patched = GrowMop(d.id, d.grew);
    if (!patched) ReindexMop(d.id);
  }
}

bool ShareIndex::RepostMember(MopId id, int member) {
  if (!plan_->IsLive(id)) return false;
  auto it = postings_.find(id);
  if (it == postings_.end()) return false;
  // A member grown since the last Sync is posted by GrowMop from its
  // current state.
  if (member >= static_cast<int>(it->second.members.size())) return true;
  UnpostMember(id, member, &it->second);
  PostMember(id, member, &it->second);
  return true;
}

void ShareIndex::PostMember(MopId id, int i, MopPostings* postings) {
  const Mop& m = plan_->mop(id);
  MemberPosting& p = postings->members[i];
  RUMOR_DCHECK(!p.posted);
  if (!m.member_active(i)) return;
  p.key = MemberKey(m.type(), m.MemberSignature(i), plan_->input_channels(id));
  p.posted = true;
  member_[p.key].push_back({id, i});
}

void ShareIndex::UnpostMember(MopId id, int i, MopPostings* postings) {
  MemberPosting& p = postings->members[i];
  if (!p.posted) return;
  p.posted = false;
  auto bucket = member_.find(p.key);
  RUMOR_CHECK(bucket != member_.end());
  auto& refs = bucket->second;
  auto ref = std::find_if(refs.begin(), refs.end(), [&](const MemberRef& r) {
    return r.mop == id && r.member == i;
  });
  RUMOR_CHECK(ref != refs.end()) << "member posting out of sync for m-op "
                                 << id;
  *ref = refs.back();
  refs.pop_back();
  if (refs.empty()) member_.erase(bucket);
}

// Append-only maintenance for a per-member-port target whose only change
// since the last Sync is `grew` new member ports: index members
// [old_count, num_members) and leave every existing entry in place. Returns
// false (no state touched) when the precondition cannot be proven, in which
// case the caller falls back to the full reindex:
//  * the m-op must already be indexed (its pre-growth entries are valid);
//  * it must have had >= 2 members — growing past a single-member m-op
//    retracts exact_/sel_singles_ entries, which append-only cannot do;
//  * the member count must equal old + grew with every port bound (growth
//    and nothing else happened).
bool ShareIndex::GrowMop(MopId id, int grew) {
  if (grew <= 0 || !plan_->IsLive(id)) return false;
  auto it = postings_.find(id);
  if (it == postings_.end()) return false;
  const Mop& m = plan_->mop(id);
  if (!IsMemberTargetType(m.type())) return false;
  const int old_members = static_cast<int>(it->second.members.size());
  if (old_members < 2) return false;
  if (m.num_members() != old_members + grew) return false;
  if (m.num_outputs() != m.num_members() ||
      static_cast<int>(plan_->output_channels(id).size()) != m.num_outputs()) {
    return false;
  }
  for (int i = old_members; i < m.num_members(); ++i) {
    if (plan_->output_channel(id, i) == kInvalidChannel) return false;
  }
  it->second.members.resize(m.num_members());
  for (int i = old_members; i < m.num_members(); ++i) {
    PostMember(id, i, &it->second);
  }
  return true;
}

void ShareIndex::Rebuild() {
  exact_.clear();
  member_.clear();
  index_targets_.clear();
  sel_singles_.clear();
  agg_targets_.clear();
  postings_.clear();
  for (MopId id : plan_->LiveMops()) IndexMop(id);
}

void ShareIndex::ReindexMop(MopId id) {
  UnindexMop(id);
  IndexMop(id);
}

void ShareIndex::UnindexMop(MopId id) {
  auto it = postings_.find(id);
  if (it == postings_.end()) return;
  auto erase_id = [id](auto& table, uint64_t key) {
    auto bucket = table.find(key);
    RUMOR_CHECK(bucket != table.end());
    auto& v = bucket->second;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] == id) {
        v[i] = v.back();
        v.pop_back();
        if (v.empty()) table.erase(bucket);
        return;
      }
    }
    RUMOR_CHECK(false) << "share-index posting out of sync for m-op " << id;
  };
  for (int i = 0; i < static_cast<int>(it->second.members.size()); ++i) {
    UnpostMember(id, i, &it->second);
  }
  for (const Posting& p : it->second.mop) {
    switch (p.table) {
      case Posting::kExact:
        erase_id(exact_, p.key);
        break;
      case Posting::kIndexTarget:
        erase_id(index_targets_, static_cast<ChannelId>(p.key));
        break;
      case Posting::kSelSingle:
        erase_id(sel_singles_, static_cast<ChannelId>(p.key));
        break;
      case Posting::kAggTarget:
        erase_id(agg_targets_, p.key);
        break;
    }
  }
  postings_.erase(it);
}

void ShareIndex::IndexMop(MopId id) {
  if (!plan_->IsLive(id)) return;
  const Mop& m = plan_->mop(id);
  // Only fully wired m-ops are indexed; a partially compiled one is
  // re-indexed when its remaining bind events arrive.
  for (ChannelId c : plan_->input_channels(id)) {
    if (c == kInvalidChannel) return;
  }
  if (static_cast<int>(plan_->output_channels(id).size()) !=
      m.num_outputs()) {
    return;
  }
  for (ChannelId c : plan_->output_channels(id)) {
    if (c == kInvalidChannel) return;
  }
  MopPostings postings;
  std::vector<Posting>& posts = postings.mop;
  if (m.num_members() == 1 && m.num_outputs() == 1) {
    uint64_t key = ExactKey(*plan_, id, m);
    exact_[key].push_back(id);
    posts.push_back({Posting::kExact, key});
  }
  if (IsMemberTargetType(m.type())) {
    postings.members.resize(m.num_members());
    for (int i = 0; i < m.num_members(); ++i) PostMember(id, i, &postings);
  }
  if (m.type() == MopType::kPredicateIndex) {
    const auto& index = static_cast<const PredicateIndexMop&>(m);
    if (index.output_mode() == OutputMode::kPerMemberPorts) {
      ChannelId in = plan_->input_channel(id, 0);
      index_targets_[in].push_back(id);
      posts.push_back({Posting::kIndexTarget, static_cast<uint64_t>(in)});
    }
  }
  if (m.type() == MopType::kSelection && m.num_members() == 1 &&
      m.num_outputs() == 1) {
    const auto& sel = static_cast<const SelectionMop&>(m);
    if (sel.member(0).input_slot == 0) {
      ChannelId in = plan_->input_channel(id, 0);
      sel_singles_[in].push_back(id);
      posts.push_back({Posting::kSelSingle, static_cast<uint64_t>(in)});
    }
  }
  if (m.type() == MopType::kAggregate ||
      m.type() == MopType::kSharedAggregate) {
    const auto& agg = static_cast<const AggregateMop&>(m);
    bool qualifies = agg.output_mode() == OutputMode::kPerMemberPorts &&
                     !(agg.sharing() == AggregateMop::Sharing::kIsolated &&
                       agg.num_members() != 1);
    if (qualifies) {
      uint64_t key = AggKey(*plan_, id, agg);
      agg_targets_[key].push_back(id);
      posts.push_back({Posting::kAggTarget, key});
    }
  }
  if (!posts.empty() || !postings.members.empty()) {
    postings_[id] = std::move(postings);
  }
}

ShareIndex::Candidate ShareIndex::Probe(MopId fresh,
                                        uint32_t kind_mask) const {
  Candidate none;
  if (!plan_->IsLive(fresh)) return none;
  const Mop& m = plan_->mop(fresh);
  if (m.num_members() != 1 || m.num_outputs() != 1) return none;
  const std::vector<ChannelId>& ins = plan_->input_channels(fresh);
  for (ChannelId c : ins) {
    if (c == kInvalidChannel) return none;
  }
  if (plan_->output_channels(fresh).empty() ||
      plan_->output_channel(fresh, 0) == kInvalidChannel) {
    return none;
  }

  // 1. Exact CSE. The kept m-op is always the lowest id of the duplicate
  // group (the warm twin), so only targets older than the fresh m-op
  // qualify.
  if (kind_mask & MaskOf(Candidate::kCseExact)) {
    auto bucket = exact_.find(ExactKey(*plan_, fresh, m));
    if (bucket != exact_.end()) {
      MopId best = kInvalidMop;
      for (MopId id : bucket->second) {
        if (id != fresh && id < fresh && (best == kInvalidMop || id < best)) {
          best = id;
        }
      }
      if (best != kInvalidMop) {
        Candidate c;
        c.kind = Candidate::kCseExact;
        c.fresh = fresh;
        c.target = best;
        c.benefit = BenefitOf(kBenefitCseExact, &plan_->mop(best));
        return c;
      }
    }
  }

  // 2. Member-level CSE onto a warm merged target, resolved to the lowest
  // (target, member) pair.
  MopType shared_type;
  if ((kind_mask & MaskOf(Candidate::kCseMember)) &&
      SharedTypeFor(m.type(), &shared_type)) {
    auto bucket =
        member_.find(MemberKey(shared_type, m.MemberSignature(0), ins));
    if (bucket != member_.end()) {
      MopId best = kInvalidMop;
      int best_member = -1;
      for (const MemberRef& ref : bucket->second) {
        if (ref.mop == fresh || !plan_->IsLive(ref.mop)) continue;
        if (best != kInvalidMop &&
            (ref.mop > best || (ref.mop == best && ref.member > best_member))) {
          continue;
        }
        const Mop& t = plan_->mop(ref.mop);
        if (t.type() != shared_type || t.num_members() < 2 ||
            t.num_outputs() != t.num_members()) {
          continue;
        }
        bool same_inputs = t.num_inputs() == m.num_inputs();
        for (int p = 0; same_inputs && p < m.num_inputs(); ++p) {
          same_inputs =
              plan_->input_channel(ref.mop, p) == plan_->input_channel(fresh, p);
        }
        if (!same_inputs) continue;
        if (t.MemberSignature(ref.member) != m.MemberSignature(0)) continue;
        bool match = false;
        switch (shared_type) {
          case MopType::kPredicateIndex:
            match = static_cast<const SelectionMop&>(m).member(0).input_slot ==
                    0;
            break;
          case MopType::kSharedAggregate: {
            // Only active members are posted.
            const auto& target = static_cast<const AggregateMop&>(t);
            const auto& sel = static_cast<const AggregateMop&>(m);
            match = target.member(ref.member).input_slot ==
                    sel.member(0).input_slot;
            break;
          }
          case MopType::kSharedJoin: {
            const auto& target = static_cast<const JoinMop&>(t);
            const auto& sel = static_cast<const JoinMop&>(m);
            match = target.member(ref.member).left_slot ==
                        sel.member(0).left_slot &&
                    target.member(ref.member).right_slot ==
                        sel.member(0).right_slot;
            break;
          }
          default:
            break;
        }
        if (!match) continue;
        best = ref.mop;
        best_member = ref.member;
      }
      if (best != kInvalidMop) {
        Candidate c;
        c.kind = Candidate::kCseMember;
        c.fresh = fresh;
        c.target = best;
        c.member = best_member;
        c.benefit = BenefitOf(kBenefitCseMember, &plan_->mop(best));
        return c;
      }
    }
  }

  // 3. sσ: attach to the oldest per-member-port predicate index on the
  // input channel, or — with no index but ≥2 single selections — form one.
  if (m.type() == MopType::kSelection &&
      static_cast<const SelectionMop&>(m).member(0).input_slot == 0) {
    ChannelId in = ins[0];
    auto targets = index_targets_.find(in);
    if ((kind_mask & MaskOf(Candidate::kAttachSelection)) &&
        targets != index_targets_.end() && !targets->second.empty()) {
      MopId best = kInvalidMop;
      for (MopId id : targets->second) {
        if (plan_->IsLive(id) && (best == kInvalidMop || id < best)) best = id;
      }
      if (best != kInvalidMop) {
        Candidate c;
        c.kind = Candidate::kAttachSelection;
        c.fresh = fresh;
        c.target = best;
        c.benefit = BenefitOf(kBenefitAttachSelection, &plan_->mop(best));
        return c;
      }
    }
    auto singles = sel_singles_.find(in);
    if ((kind_mask & MaskOf(Candidate::kFormIndex)) &&
        singles != sel_singles_.end() && singles->second.size() >= 2) {
      Candidate c;
      c.kind = Candidate::kFormIndex;
      c.fresh = fresh;
      c.channel = in;
      c.benefit = BenefitOf(kBenefitFormIndex, nullptr);
      return c;
    }
  }

  // 4. sα: attach to the oldest shared-aggregation target with the same
  // (channel, fn, attr, slot) key. Only older targets qualify (so of two
  // fresh aggregates the younger joins the older), and if the chosen target
  // cannot absorb the member, no other target is tried.
  if ((kind_mask & MaskOf(Candidate::kAttachAggregate)) &&
      m.type() == MopType::kAggregate) {
    const auto& agg = static_cast<const AggregateMop&>(m);
    if (agg.sharing() == AggregateMop::Sharing::kIsolated) {
      auto bucket = agg_targets_.find(AggKey(*plan_, fresh, agg));
      if (bucket != agg_targets_.end()) {
        MopId best = kInvalidMop;
        for (MopId id : bucket->second) {
          if (id != fresh && id < fresh && plan_->IsLive(id) &&
              (best == kInvalidMop || id < best)) {
            best = id;
          }
        }
        if (best != kInvalidMop) {
          const auto& target = static_cast<const AggregateMop&>(
              plan_->mop(best));
          if (target.CanAttach(agg.member(0))) {
            Candidate c;
            c.kind = Candidate::kAttachAggregate;
            c.fresh = fresh;
            c.target = best;
            c.benefit = BenefitOf(kBenefitAttachAggregate, &plan_->mop(best));
            return c;
          }
        }
      }
    }
  }
  return none;
}

std::vector<MopId> ShareIndex::SinglesOn(ChannelId channel) const {
  std::vector<MopId> out;
  auto it = sel_singles_.find(channel);
  if (it == sel_singles_.end()) return out;
  for (MopId id : it->second) {
    if (plan_->IsLive(id)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ShareIndex::DebugDump() const {
  std::vector<std::string> lines;
  auto dump_ids = [&lines](const char* tag, auto key,
                           std::vector<MopId> ids) {
    std::sort(ids.begin(), ids.end());
    std::ostringstream os;
    os << tag << " " << key << " ->";
    for (MopId id : ids) os << " " << id;
    lines.push_back(os.str());
  };
  for (const auto& [key, ids] : exact_) dump_ids("exact", key, ids);
  for (const auto& [key, ids] : index_targets_) {
    dump_ids("index_target", key, ids);
  }
  for (const auto& [key, ids] : sel_singles_) dump_ids("sel_single", key, ids);
  for (const auto& [key, ids] : agg_targets_) dump_ids("agg_target", key, ids);
  for (const auto& [key, refs] : member_) {
    std::vector<std::pair<MopId, int>> entries;
    for (const MemberRef& ref : refs) entries.push_back({ref.mop, ref.member});
    std::sort(entries.begin(), entries.end());
    std::ostringstream os;
    os << "member " << key << " ->";
    for (const auto& [mop, idx] : entries) {
      os << " (" << mop << "," << idx << ")";
    }
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const std::string& line : lines) os << line << "\n";
  return os.str();
}

ShareIndex::Stats ShareIndex::GetStats() const {
  // Hash-node bookkeeping estimate (pointers, hash, allocator rounding).
  constexpr int64_t kNodeOverhead = 48;
  Stats s;
  auto table = [&s](const auto& map, int64_t* entries) {
    for (const auto& [key, bucket] : map) {
      *entries += static_cast<int64_t>(bucket.size());
      s.approx_bytes +=
          kNodeOverhead + static_cast<int64_t>(sizeof(key)) +
          static_cast<int64_t>(bucket.capacity() *
                               sizeof(typename std::decay_t<
                                      decltype(bucket)>::value_type));
    }
  };
  table(exact_, &s.exact_entries);
  table(member_, &s.member_entries);
  table(index_targets_, &s.index_target_entries);
  table(sel_singles_, &s.sel_single_entries);
  table(agg_targets_, &s.agg_target_entries);
  for (const auto& [id, postings] : postings_) {
    s.posting_entries += static_cast<int64_t>(postings.mop.size());
    for (const MemberPosting& p : postings.members) {
      s.posting_entries += p.posted ? 1 : 0;
    }
    s.approx_bytes +=
        kNodeOverhead + static_cast<int64_t>(sizeof(id)) +
        static_cast<int64_t>(postings.mop.capacity() * sizeof(Posting) +
                             postings.members.capacity() *
                                 sizeof(MemberPosting));
  }
  return s;
}

}  // namespace rumor
