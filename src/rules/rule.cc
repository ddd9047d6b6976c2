#include "rules/rule.h"

#include "mop/aggregate_mop.h"
#include "mop/iterate_mop.h"
#include "mop/join_mop.h"
#include "mop/predicate_index_mop.h"
#include "mop/projection_mop.h"
#include "mop/selection_mop.h"
#include "mop/sequence_mop.h"

namespace rumor {

std::unique_ptr<Mop> CloneWithOutputMode(const Mop& mop, OutputMode mode) {
  switch (mop.type()) {
    case MopType::kSelection: {
      const auto& m = static_cast<const SelectionMop&>(mop);
      std::vector<SelectionMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<SelectionMop>(std::move(members), mode);
    }
    case MopType::kPredicateIndex: {
      const auto& m = static_cast<const PredicateIndexMop&>(mop);
      std::vector<SelectionDef> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<PredicateIndexMop>(std::move(members), mode);
    }
    case MopType::kChannelSelect: {
      const auto& m = static_cast<const ChannelSelectMop&>(mop);
      return std::make_unique<ChannelSelectMop>(m.def(), m.num_members(),
                                                mode);
    }
    case MopType::kProjection: {
      const auto& m = static_cast<const ProjectionMop&>(mop);
      std::vector<ProjectionMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<ProjectionMop>(std::move(members), mode);
    }
    case MopType::kChannelProject: {
      const auto& m = static_cast<const ChannelProjectMop&>(mop);
      return std::make_unique<ChannelProjectMop>(m.def(), m.num_members(),
                                                 mode);
    }
    case MopType::kAggregate:
    case MopType::kSharedAggregate:
    case MopType::kFragmentAggregate: {
      const auto& m = static_cast<const AggregateMop&>(mop);
      std::vector<AggregateMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<AggregateMop>(std::move(members), m.sharing(),
                                            mode);
    }
    case MopType::kJoin:
    case MopType::kSharedJoin:
    case MopType::kPrecisionJoin: {
      const auto& m = static_cast<const JoinMop&>(mop);
      std::vector<JoinMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<JoinMop>(std::move(members), m.sharing(), mode);
    }
    case MopType::kSequence:
    case MopType::kSharedSequence:
    case MopType::kChannelSequence: {
      const auto& m = static_cast<const SequenceMop&>(mop);
      std::vector<SequenceMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<SequenceMop>(std::move(members), m.sharing(),
                                           mode);
    }
    case MopType::kZip:
      // Zips have a single output port and thus never become channel-rule
      // producers; fall through to the unsupported check.
      break;
    case MopType::kIterate:
    case MopType::kSharedIterate:
    case MopType::kChannelIterate: {
      const auto& m = static_cast<const IterateMop&>(mop);
      std::vector<IterateMop::Member> members;
      for (int i = 0; i < m.num_members(); ++i) members.push_back(m.member(i));
      return std::make_unique<IterateMop>(std::move(members), m.sharing(),
                                          mode);
    }
  }
  RUMOR_CHECK(false) << "unsupported mop type for clone";
  return nullptr;
}

}  // namespace rumor
