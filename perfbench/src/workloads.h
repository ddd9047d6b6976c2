// The benchmark's workloads. Each one is a set of RQL standing queries, a
// pre-generated feed cut into push calls ("steps"), an optional churn
// schedule, and the reference that checks its outputs. Everything is drawn
// from the seed; the engine only ever sees the generated inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cayuga/automaton.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/tuple.h"

namespace perfbench {

struct NamedQuery {
  std::string name;  // q<id>
  std::string rql;
};

// One push call: tuples [begin, end) of `source`, via Push when the
// workload pushes per tuple, else via PushBatch.
struct Step {
  int source;
  int32_t begin;
  int32_t end;
};

// The name of standing query `id`: q<id>.
inline std::string QueryName(int64_t id) {
  std::string name = "q";
  name += std::to_string(id);
  return name;
}

// Draws the RQL text of query q<id>.
using TextFn = std::string (*)(rumor::Rng& rng, int64_t id);

// Deterministic churn schedule: op j adds query q<first_id + j> and removes
// a live query of the same class (id modulo kChurnClasses) picked by the
// schedule's own generator, so where a workload derives the query kind from
// the class, the mix of kinds stays exact. Two schedules built from one
// seed issue identical ops.
class ChurnSchedule {
 public:
  static constexpr int kChurnClasses = 20;
  ChurnSchedule(uint64_t seed, int64_t first_id, int64_t initial_queries,
                TextFn text);

  struct Op {
    NamedQuery add;
    std::string remove;
  };
  Op Next();

 private:
  rumor::Rng rng_;
  TextFn text_;
  int64_t next_id_;
  std::vector<std::vector<int64_t>> live_;  // by class
};

// Sizes: kFull is the benchmark; kTiny is the smoke self-check.
enum class Scale { kFull, kTiny };

struct Workload {
  std::string name;
  std::vector<std::pair<std::string, rumor::Schema>> sources;
  std::vector<NamedQuery> queries;
  int shards = 1;
  bool per_tuple = false;  // Push per tuple instead of PushBatch
  int digest_keys = 1;     // see DigestTable
  std::vector<rumor::Tuple> tuples;
  std::vector<Step> steps;
  // The feed loops: pass k pushes every tuple with timestamp + k * period.
  rumor::Timestamp period = 0;
  // The first `prefix_steps` steps are the untimed warm-up whose outputs
  // the reference checks.
  int64_t prefix_steps = 0;
  // Steps between two churn ops in the feed (0: no churn in the feed).
  int64_t churn_every = 0;
  uint64_t churn_seed = 0;
  TextFn churn_text = nullptr;
  // One push call in `latency_every` (on average) is timed on its own.
  int64_t latency_every = 1;
  // Workload-shaped query for the add/remove probe of workloads without
  // churn in the feed (drawn per probe).
  TextFn probe_text = nullptr;
  uint64_t probe_seed = 0;
  // paper_w1 only: the same queries as Cayuga automata (the reference).
  std::vector<rumor::CayugaAutomaton> automata;

  int64_t feed_events() const { return static_cast<int64_t>(tuples.size()); }
  ChurnSchedule MakeChurn() const {
    return ChurnSchedule(churn_seed, static_cast<int64_t>(queries.size()),
                         static_cast<int64_t>(queries.size()), churn_text);
  }
};

// Builds `name` from `seed`; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Scale scale);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
