#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "workload/perfmon.h"
#include "workload/synthetic.h"
#include "workload/workloads.h"

namespace perfbench {

using rumor::Rng;
using rumor::Schema;
using rumor::Tuple;
using rumor::Value;
using rumor::ValueType;

namespace {

std::string Format(const char* fmt, int64_t a, int64_t b = 0,
                   int64_t c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// Cuts tuples [0, n) of one source into steps of `batch` tuples.
void CutBatches(Workload* w, int64_t batch) {
  const int64_t n = w->feed_events();
  for (int64_t b = 0; b < n; b += batch) {
    w->steps.push_back(Step{0, static_cast<int32_t>(b),
                            static_cast<int32_t>(std::min(n, b + batch))});
  }
}

// --- paper_w1 ----------------------------------------------------------------
// The paper's Workload 1 (Table-3 defaults, fig9a's 1000 queries):
// σ(S.a0 = c1)(S) ;[w] σ(T.a0 = c3)(T), with θ3 hoisted to a selection on T
// exactly as workload/workloads.h builds it. In RQL the ; predicate is TRUE,
// which the optimizer treats like the absent predicate of MakeW1Query: the
// two forms compile to the same plan (2 σ-index + 666 ; m-ops at seed 42).
std::string W1Rql(const rumor::W1Spec& s) {
  return Format(
      "SELECT * FROM (SELECT * FROM S WHERE a0 = %" PRId64
      ") SEQ (SELECT * FROM T WHERE a0 = %" PRId64 ") ON TRUE WITHIN %" PRId64,
      s.c1, s.c3, s.window);
}

std::string W1ProbeText(Rng& rng, int64_t /*id*/) {
  rumor::SyntheticParams params;
  // Table-3 domains; uniform draws keep the probe cheap to generate.
  rumor::W1Spec spec{rng.UniformInt(0, params.constant_domain - 1),
                     rng.UniformInt(0, params.constant_domain - 1),
                     rng.UniformInt(1, params.window_domain)};
  return W1Rql(spec);
}

std::unique_ptr<Workload> MakePaperW1(uint64_t seed, Scale scale) {
  auto w = std::make_unique<Workload>();
  w->name = "paper_w1";
  rumor::SyntheticParams params;
  params.num_queries = scale == Scale::kTiny ? 50 : 1000;
  const Schema schema = params.MakeSchema();
  w->sources = {{"S", schema}, {"T", schema}};
  // The standing set is fig9a's (the Table-3 default seed): Zipf-drawn
  // constants concentrate on a few values, so each draw gives a differently
  // shared plan, and the benchmark compares commits on one plan. The feed
  // and the probe queries follow `seed`.
  Rng rng(params.seed);
  const std::vector<rumor::W1Spec> specs = rumor::DrawW1Specs(params, rng);
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string name = QueryName(i);
    w->queries.push_back(NamedQuery{name, W1Rql(specs[i])});
    w->automata.push_back(rumor::MakeW1Automaton(name, specs[i], schema));
  }
  const int64_t events = scale == Scale::kTiny ? 20000 : 200000;
  Rng feed_rng(seed ^ 0xfeed);
  std::vector<rumor::Event> feed =
      rumor::GenerateInterleaved(params, events, 0, feed_rng);
  w->tuples.reserve(feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    w->tuples.push_back(std::move(feed[i].tuple));
    w->steps.push_back(Step{feed[i].stream, static_cast<int32_t>(i),
                            static_cast<int32_t>(i + 1)});
  }
  w->period = events;
  w->per_tuple = true;
  w->prefix_steps = events;  // one full pass, checked against Cayuga
  w->latency_every = 64;
  w->probe_text = W1ProbeText;
  w->probe_seed = seed ^ 0x9b0be;
  return w;
}

// --- agg_windows / agg_windows_sharded -----------------------------------------
// A perfmon trace (8 processes, one (pid, load) tuple each per second) and
// 20 windowed GROUP BY pid aggregates with mixed MIN/MAX/AVG/SUM and
// distinct RANGEs, all merged by rule sα. Every tuple updates every query:
// 20 deliveries per event, about 1.2 MB of window state.
constexpr int kAggProcesses = 8;
constexpr int kAggQueries = 20;
const char* const kAggFns[] = {"MIN", "MAX", "AVG", "SUM"};

std::string AggRql(const char* fn, int64_t range) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "SELECT pid, %s(load) FROM CPU [RANGE %" PRId64
                "] GROUP BY pid",
                fn, range);
  return buf;
}

std::string AggProbeText(Rng& rng, int64_t /*id*/) {
  // A fresh window length outside the standing set's, so sα attaches a
  // new member to the warm shared engine.
  return AggRql(kAggFns[rng.UniformInt(0, 3)], rng.UniformInt(400, 600));
}

std::unique_ptr<Workload> MakeAggWindows(uint64_t seed, Scale scale,
                                         int shards) {
  auto w = std::make_unique<Workload>();
  w->name = shards > 1 ? "agg_windows_sharded" : "agg_windows";
  w->sources = {{"CPU", rumor::PerfmonSchema()}};
  Rng rng(seed);
  for (int i = 0; i < kAggQueries; ++i) {
    const int64_t range = 60 + 12 * i + rng.UniformInt(0, 5);
    w->queries.push_back(
        NamedQuery{QueryName(i), AggRql(kAggFns[i % 4], range)});
  }
  rumor::PerfmonParams params;
  params.num_processes = kAggProcesses;
  params.duration_seconds = scale == Scale::kTiny ? 800 : 12000;
  params.seed = seed;
  w->tuples = rumor::GeneratePerfmonTrace(params);
  w->period = params.duration_seconds;
  CutBatches(w.get(), 128);
  // 2400 s of trace: every window is full before the timed region starts.
  w->prefix_steps =
      std::min<int64_t>(static_cast<int64_t>(w->steps.size()),
                        (scale == Scale::kTiny ? 600 : 2400) *
                            kAggProcesses / 128);
  w->shards = shards;
  w->digest_keys = kAggProcesses;
  // Sharded latency samples end in Flush(), which drains the pipeline;
  // sampling as densely as on one shard keeps enough samples (thousands
  // per run) for a steady p99.
  w->latency_every = 4;
  w->probe_text = AggProbeText;
  w->probe_seed = seed ^ 0x9b0be;
  return w;
}

// --- query_churn --------------------------------------------------------------
// ~10k standing queries on one source EV(k, a, v): sσ equality selections,
// conjunctive selections, range selections and filtered windowed
// aggregates, selective enough that delivery does not dominate. One add
// plus one remove every few batches keeps the population steady.
constexpr int64_t kChurnKeys = 20000;    // domain of k
constexpr int64_t kChurnValues = 1000000;  // domain of v

// The kind follows the id's churn class (20 classes: 11 equality, 5
// conjunctive, 2 range, 2 aggregate), so the mix is exact for every seed.
std::string ChurnText(Rng& rng, int64_t id) {
  const int64_t kind = id % ChurnSchedule::kChurnClasses;
  const int64_t k = rng.UniformInt(0, kChurnKeys - 1);
  if (kind < 11) return Format("SELECT * FROM EV WHERE k = %" PRId64, k);
  if (kind < 16) {
    return Format("SELECT * FROM EV WHERE k = %" PRId64 " AND a < %" PRId64,
                  k, rng.UniformInt(10, 90));
  }
  if (kind < 18) {
    const int64_t lo = rng.UniformInt(0, kChurnValues - 1);
    return Format("SELECT * FROM EV WHERE v > %" PRId64 " AND v < %" PRId64,
                  lo, lo + 200);
  }
  return Format("SELECT a, MAX(v) FROM EV [RANGE %" PRId64
                "] WHERE k = %" PRId64 " GROUP BY a",
                rng.UniformInt(50, 500), k);
}

std::unique_ptr<Workload> MakeQueryChurn(uint64_t seed, Scale scale) {
  auto w = std::make_unique<Workload>();
  w->name = "query_churn";
  w->sources = {{"EV", Schema({{"k", ValueType::kInt},
                               {"a", ValueType::kInt},
                               {"v", ValueType::kInt}})}};
  Rng rng(seed);
  const int64_t num_queries = scale == Scale::kTiny ? 500 : 10000;
  for (int64_t i = 0; i < num_queries; ++i) {
    w->queries.push_back(
        NamedQuery{QueryName(i), ChurnText(rng, i)});
  }
  const int64_t events = scale == Scale::kTiny ? 20000 : 200000;
  Rng feed_rng(seed ^ 0xfeed);
  w->tuples.reserve(events);
  for (int64_t i = 0; i < events; ++i) {
    w->tuples.push_back(
        Tuple::Make({Value(feed_rng.UniformInt(0, kChurnKeys - 1)),
                     Value(feed_rng.UniformInt(0, 99)),
                     Value(feed_rng.UniformInt(0, kChurnValues - 1))},
                    i));
  }
  w->period = events;
  CutBatches(w.get(), 64);
  w->churn_every = 24;
  w->churn_seed = seed ^ 0xc4u;
  w->churn_text = ChurnText;
  // The reference runs every query unshared, so keep its prefix short.
  w->prefix_steps = scale == Scale::kTiny ? 40 : 96;
  w->latency_every = 4;
  return w;
}

}  // namespace

ChurnSchedule::ChurnSchedule(uint64_t seed, int64_t first_id,
                             int64_t initial_queries, TextFn text)
    : rng_(seed), text_(text), next_id_(first_id), live_(kChurnClasses) {
  for (int64_t i = 0; i < initial_queries; ++i) {
    live_[i % kChurnClasses].push_back(i);
  }
}

ChurnSchedule::Op ChurnSchedule::Next() {
  Op op;
  const int64_t id = next_id_++;
  op.add = NamedQuery{QueryName(id), text_(rng_, id)};
  std::vector<int64_t>& live = live_[id % kChurnClasses];
  const int64_t victim =
      rng_.UniformInt(0, static_cast<int64_t>(live.size()) - 1);
  op.remove = QueryName(live[victim]);
  live[victim] = id;
  return op;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Scale scale) {
  if (name == "paper_w1") return MakePaperW1(seed, scale);
  if (name == "agg_windows") return MakeAggWindows(seed, scale, 1);
  if (name == "agg_windows_sharded") return MakeAggWindows(seed, scale, 2);
  if (name == "query_churn") return MakeQueryChurn(seed, scale);
  return nullptr;
}

}  // namespace perfbench
