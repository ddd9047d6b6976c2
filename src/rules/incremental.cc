#include "rules/incremental.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/trace.h"
#include "mop/aggregate_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/selection_mop.h"

namespace rumor {

namespace {

// Wires a member just attached to warm target `target` in place of a fresh
// m-op whose output channel is `fresh_out`. A reused retired slot keeps its
// port and channel, so the fresh query's consumers and output mark move onto
// them (and the in-place redefinition is published for signature-keyed log
// consumers); a new slot binds `fresh_out` to the grown port.
void WireAttachedMember(Plan* plan, MopId target, ChannelId fresh_out,
                        MemberAttach res) {
  if (!res.reused_slot) {
    plan->AddMopOutputPort(target, fresh_out);
    return;
  }
  plan->NotifyMemberChanged(target, res.member);
  ChannelId slot_out = plan->output_channel(target, res.member);
  StreamId fresh_stream = plan->channel(fresh_out).stream_at(0);
  StreamId slot_stream = plan->channel(slot_out).stream_at(0);
  plan->MoveConsumers(fresh_out, slot_out);
  plan->RemapOutput(fresh_stream, slot_stream);
}

// Applies one freshly probed candidate: CSE moves the fresh m-op's readers
// onto the kept (whole or member) port, an attach grows the warm target,
// and index formation performs sσ's rewrite on the probed channel: its
// single selections become one predicate index whose members keep their
// output channels. Returns false if the candidate no longer applies.
bool ApplyCandidate(Plan* plan, ShareIndex* index,
                    const ShareIndex::Candidate& c,
                    IncrementalMergeStats* stats) {
  switch (c.kind) {
    case ShareIndex::Candidate::kCseExact:
    case ShareIndex::Candidate::kCseMember: {
      ChannelId fresh_out = plan->output_channel(c.fresh, 0);
      int port = c.kind == ShareIndex::Candidate::kCseMember ? c.member : 0;
      ChannelId kept_out = plan->output_channel(c.target, port);
      StreamId fresh_stream = plan->channel(fresh_out).stream_at(0);
      StreamId kept_stream = plan->channel(kept_out).stream_at(0);
      plan->MoveConsumers(fresh_out, kept_out);
      plan->RemapOutput(fresh_stream, kept_stream);
      plan->RemoveMop(c.fresh);
      ++stats->cse_merges;
      return true;
    }
    case ShareIndex::Candidate::kAttachSelection: {
      const auto& sel = static_cast<const SelectionMop&>(plan->mop(c.fresh));
      auto& target = static_cast<PredicateIndexMop&>(plan->mop(c.target));
      WireAttachedMember(plan, c.target, plan->output_channel(c.fresh, 0),
                         target.AttachMember(sel.member(0).def));
      plan->RemoveMop(c.fresh);
      ++stats->attach_merges;
      return true;
    }
    case ShareIndex::Candidate::kAttachAggregate: {
      const auto& fresh = static_cast<const AggregateMop&>(plan->mop(c.fresh));
      AggregateMop::Member member = fresh.member(0);
      auto& target = static_cast<AggregateMop&>(plan->mop(c.target));
      if (!target.CanAttach(member)) return false;
      WireAttachedMember(plan, c.target, plan->output_channel(c.fresh, 0),
                         target.AttachMember(member));
      plan->RemoveMop(c.fresh);
      ++stats->attach_merges;
      return true;
    }
    case ShareIndex::Candidate::kFormIndex: {
      std::vector<MopId> singles = index->SinglesOn(c.channel);
      if (singles.size() < 2) return false;
      std::vector<SelectionDef> defs;
      std::vector<ChannelId> outs;
      defs.reserve(singles.size());
      for (MopId id : singles) {
        const auto& sel = static_cast<const SelectionMop&>(plan->mop(id));
        defs.push_back(sel.member(0).def);
        outs.push_back(plan->output_channel(id, 0));
      }
      MopId formed = plan->AddMop(std::make_unique<PredicateIndexMop>(
          std::move(defs), OutputMode::kPerMemberPorts));
      plan->BindInput(formed, 0, c.channel);
      for (size_t i = 0; i < outs.size(); ++i) {
        plan->BindOutput(formed, static_cast<int>(i), outs[i]);
      }
      for (MopId id : singles) plan->RemoveMop(id);
      ++stats->rule_merges;
      return true;
    }
    case ShareIndex::Candidate::kNone:
      break;
  }
  return false;
}

}  // namespace

IncrementalMergeStats MergeNewQueryIndexed(Plan* plan, ShareIndex* index,
                                           MopId first_fresh,
                                           const OptimizerOptions& options) {
  RUMOR_TRACE_SPAN("MergeNewQueryIndexed");
  RUMOR_CHECK(index->plan() == plan);
  IncrementalMergeStats stats;
  // One benefit-ordered sub-pass over one group of merge kinds: probe every
  // fresh m-op, sort the candidates greedy best-first by estimated saved
  // work (ties oldest-fresh-first, i.e. ascending MopId), re-probe each
  // against the synced index at
  // apply time (earlier merges in the batch can invalidate or improve it)
  // and apply what the index says *now*.
  std::vector<ShareIndex::Candidate> cands;
  auto run_group = [&](uint32_t mask) {
    index->Sync();
    cands.clear();
    for (MopId id = first_fresh; id < plan->num_mops(); ++id) {
      if (!plan->IsLive(id)) continue;
      ShareIndex::Candidate c = index->Probe(id, mask);
      if (c.kind != ShareIndex::Candidate::kNone) cands.push_back(c);
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const ShareIndex::Candidate& a,
                        const ShareIndex::Candidate& b) {
                       if (a.benefit != b.benefit) return a.benefit > b.benefit;
                       return a.fresh < b.fresh;
                     });
    int applied = 0;
    for (const ShareIndex::Candidate& c : cands) {
      index->Sync();
      ShareIndex::Candidate now = index->Probe(c.fresh, mask);
      if (now.kind == ShareIndex::Candidate::kNone) continue;
      if (ApplyCandidate(plan, index, now, &stats)) ++applied;
    }
    return applied;
  };
  // A round is a sequence of *ordered* phases in rule-priority order —
  // exact CSE to fixpoint, member CSE in one forward pass, then sσ (attach
  // and index formation), then sα attach — and each phase sees the rewires
  // of the phases before it in the same round. Phases (rather than one
  // all-kinds batch per round) keep the decision local and deterministic:
  // e.g. an aggregate whose σ was member-merged onto a warm channel is
  // claimed by the member-CSE cascade or this round's sα phase, never by
  // the next round's exact-CSE phase.
  for (int round = 0; round < kMaxOptimizeRounds; ++round) {
    int applied = 0;
    if (options.enable_cse) {
      // Exact CSE cascades to fixpoint within the phase: merging two
      // duplicates can make their (fresh) parents identical.
      while (int n = run_group(
                 ShareIndex::MaskOf(ShareIndex::Candidate::kCseExact))) {
        applied += n;
      }
      // Member CSE is one forward pass in id order with immediate effect:
      // a σ member-merge rewires its downstream α's input onto the warm
      // channel, and the α can then member-match *later in the same pass*.
      for (MopId id = first_fresh; id < plan->num_mops(); ++id) {
        if (!plan->IsLive(id)) continue;
        index->Sync();
        ShareIndex::Candidate c = index->Probe(
            id, ShareIndex::MaskOf(ShareIndex::Candidate::kCseMember));
        if (c.kind == ShareIndex::Candidate::kNone) continue;
        if (ApplyCandidate(plan, index, c, &stats)) ++applied;
      }
    }
    if (options.enable_predicate_index) {
      applied += run_group(
          ShareIndex::MaskOf(ShareIndex::Candidate::kAttachSelection) |
          ShareIndex::MaskOf(ShareIndex::Candidate::kFormIndex));
    }
    if (options.enable_shared_aggregate) {
      applied += run_group(
          ShareIndex::MaskOf(ShareIndex::Candidate::kAttachAggregate));
    }
    if (applied == 0) break;
  }
  index->Sync();
  return stats;
}

namespace {

// True for per-member-port shared m-ops whose members retire in place
// (σ-indexes and shared aggregates); other m-ops go only as a whole.
bool HasMemberSlots(const Mop& m) {
  switch (m.type()) {
    case MopType::kPredicateIndex:
      return static_cast<const PredicateIndexMop&>(m).output_mode() ==
             OutputMode::kPerMemberPorts;
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate:
      return static_cast<const AggregateMop&>(m).output_mode() ==
             OutputMode::kPerMemberPorts;
    default:
      return false;
  }
}

// Retires member `i` of an m-op with member slots.
void RetireMember(Plan* plan, MopId id, int i, PruneStats* stats) {
  Mop& m = plan->mop(id);
  if (m.type() == MopType::kPredicateIndex) {
    static_cast<PredicateIndexMop&>(m).DeactivateMember(i);
    ++stats->pruned_index_members;
  } else {
    static_cast<AggregateMop&>(m).DeactivateMember(i);
    ++stats->deactivated_members;
  }
  plan->NotifyMemberChanged(id, i);
}

}  // namespace

PruneStats PruneUnreachable(Plan* plan, StreamId removed_output) {
  PruneStats stats;
  // Backward walk from the channels that carried the removed output. A
  // channel nothing reads any more releases its producer: a per-member-port
  // shared m-op retires that one member (and goes once no member is left);
  // any other m-op goes once none of its outputs is read. Tearing an m-op
  // down un-reads its inputs, which continues the walk upstream. Every live
  // m-op was reachable from some output before the remove, so the walk
  // finds exactly what the removed output alone kept alive, and it stops at
  // the first operator another query still reads.
  std::vector<ChannelId> work = plan->ChannelsOfStream(removed_output);
  std::vector<MopId> visited;
  while (!work.empty()) {
    const ChannelId c = work.back();
    work.pop_back();
    if (plan->channel_dead(c) || plan->ChannelInUse(c)) continue;
    const std::optional<ChannelEnd> producer = plan->ProducerOf(c);
    if (!producer.has_value()) continue;
    const MopId id = producer->mop;
    if (std::find(visited.begin(), visited.end(), id) == visited.end()) {
      visited.push_back(id);
    }
    const Mop& m = plan->mop(id);
    bool gone = true;
    if (HasMemberSlots(m)) {
      if (!m.member_active(producer->port)) continue;  // already retired
      RetireMember(plan, id, producer->port, &stats);
      gone = m.num_active_members() == 0;
    } else {
      for (ChannelId out : plan->output_channels(id)) {
        gone &= !plan->ChannelInUse(out);
      }
    }
    if (!gone) continue;
    const std::vector<ChannelId> inputs = plan->input_channels(id);
    stats.collected_channels += plan->RemoveMop(id);
    ++stats.removed_mops;
    work.insert(work.end(), inputs.begin(), inputs.end());
  }
  stats.visited_mops = static_cast<int>(visited.size());
  return stats;
}

}  // namespace rumor
