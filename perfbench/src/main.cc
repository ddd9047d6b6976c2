// perfbench — runs one workload through the public StreamEngine API and
// prints its metrics; see ../README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--trace-out <chrome-trace.json>]
//
// One client (this thread) pushes in a closed loop. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the same flow with spans around every
// call into a layer and prints the per-layer metrics. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "cayuga/engine.h"
#include "common/failpoint.h"
#include "common/json_writer.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "plan/compile.h"
#include "probe.h"
#include "query/parser.h"
#include "rules/rule_engine.h"
#include "rules/share_index.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rumor::EngineMetrics;
using rumor::OptimizerOptions;
using rumor::Status;
using rumor::StreamEngine;
using rumor::Tuple;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

// ASCII names of the m-op types (rumor::MopTypeName prints the paper's
// symbols).
const char* MopTypeAscii(const char* symbol) {
  static const std::map<std::string, const char*> kNames = {
      {"σ", "selection"},         {"π", "projection"},
      {"α", "aggregate"},         {"⋈", "join"},
      {";", "sequence"},          {"µ", "iterate"},
      {"σ-index", "predicate_index"},
      {"cσ", "channel_select"},   {"cπ", "channel_project"},
      {"sα", "shared_aggregate"}, {"cα", "fragment_aggregate"},
      {"s⋈", "shared_join"},      {"c⋈", "precision_join"},
      {"s;", "shared_sequence"},  {"c;", "channel_sequence"},
      {"sµ", "shared_iterate"},   {"cµ", "channel_iterate"},
      {"zip", "zip"}};
  auto it = kNames.find(symbol);
  return it != kNames.end() ? it->second : "other";
}

// The m-op types every traced run reports, present in the plan or not.
const char* const kReportedMopTypes[] = {"predicate_index", "sequence",
                                         "shared_aggregate", "selection"};

OptimizerOptions NoSharing() {
  OptimizerOptions o;
  o.enable_cse = false;
  o.enable_predicate_index = false;
  o.enable_shared_aggregate = false;
  o.enable_shared_join = false;
  o.enable_channels = false;
  o.use_share_index = false;
  return o;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// The traced run's m-op timing period. The engine times one m-op call in
// sample_every_n; the default 64 is a multiple of the m-op calls one batch
// makes on the agg workloads (4 sα m-ops), so it would time the same m-op
// every time. A prime rotates the timed call over the batch's m-ops, and
// one this small takes twice the default's samples.
constexpr int kTracedSampleEveryN = 31;

// Timed rounds of the untraced run.
constexpr int kRounds = 40;
// Mean gap between two add/remove probe pairs on workloads without churn in
// the feed; the gaps are random, and the pairs spread over the whole timed
// region (about 1100 in 45 s). The gap is fixed in time because it sets how
// much of the plan the pushes in between have pushed out of the caches,
// which is most of what an add or remove costs on paper_w1.
constexpr double kProbeGapS = 0.04;
// Untimed pushes before the first round: the two-shard engine ran at about
// half speed for its first second.
constexpr double kFirstWarmUpS = 1.5;

// Calls `sample` (which returns one measurement) at least `min` times, then
// more while the calls so far took under `budget_s` seconds, at most `max`.
template <typename Fn>
std::vector<double> Repeat(int min, int max, double budget_s, Fn sample) {
  std::vector<double> out;
  const int64_t start = NowNs();
  while (static_cast<int>(out.size()) < min ||
         (static_cast<int>(out.size()) < max &&
          (NowNs() - start) * 1e-9 < budget_s)) {
    out.push_back(sample());
  }
  return out;
}

// Per-type sums of the m-op counters.
struct TypeDelta {
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  int64_t sampled_tuples = 0;
  int64_t eval_ns = 0;
  double ns_per_tuple() const {
    return Ratio(static_cast<double>(eval_ns), sampled_tuples);
  }
  // Estimated processing time of every delivered tuple.
  double est_ns() const { return ns_per_tuple() * tuples_in; }
};

// Data-plane counters summed over intervals in which the plan did not
// change (a live add or remove may rebuild an m-op and reset its counters,
// so a traced run closes an interval before each churn op and opens a new
// one after it).
struct DataPlane {
  std::map<std::string, TypeDelta> types;
  int64_t deliveries = 0;
  int64_t program_vectorized = 0;
  int64_t program_generic = 0;
  int64_t flat_probes = 0;
  int64_t map_probes = 0;
  int64_t arena_requests = 0;
  int64_t arena_heap = 0;
  int64_t push_stall_ns = 0;
  int64_t worker_stall_ns = 0;
  uint64_t in_depth_hwm = 0;
  uint64_t merge_lag_hwm = 0;
  std::vector<int64_t> shard_deliveries;

  void Add(const EngineMetrics& a, const EngineMetrics& b);
  double mop_est_ns() const {
    double ns = 0;
    for (const auto& [type, d] : types) ns += d.est_ns();
    return ns;
  }
};

void DataPlane::Add(const EngineMetrics& a, const EngineMetrics& b) {
  std::map<rumor::MopId, const rumor::MopMetrics*> before;
  for (const EngineMetrics::MopRow& r : a.mops) before[r.id] = &r.m;
  const rumor::MopMetrics zero;
  for (const EngineMetrics::MopRow& r : b.mops) {
    auto it = before.find(r.id);
    const rumor::MopMetrics& m0 = it != before.end() ? *it->second : zero;
    TypeDelta& d = types[MopTypeAscii(r.type)];
    d.tuples_in += r.m.tuples_in - m0.tuples_in;
    d.tuples_out += r.m.tuples_out - m0.tuples_out;
    d.sampled_tuples += r.m.sampled_tuples - m0.sampled_tuples;
    d.eval_ns += r.m.eval_ns - m0.eval_ns;
  }
  program_vectorized += (b.program_fused + b.program_typed) -
                        (a.program_fused + a.program_typed);
  program_generic += b.program_generic - a.program_generic;
  flat_probes += b.flat_probes - a.flat_probes;
  map_probes += b.map_probes - a.map_probes;
  arena_requests += b.arena_requests - a.arena_requests;
  arena_heap += b.arena_heap_allocations - a.arena_heap_allocations;
  if (b.shard_rows.empty()) {
    deliveries += b.deliveries - a.deliveries;
    return;
  }
  shard_deliveries.resize(b.shard_rows.size(), 0);
  for (size_t i = 0; i < b.shard_rows.size(); ++i) {
    const EngineMetrics::ShardRow& r1 = b.shard_rows[i];
    const EngineMetrics::ShardRow r0 = i < a.shard_rows.size()
                                           ? a.shard_rows[i]
                                           : EngineMetrics::ShardRow{};
    deliveries += r1.deliveries - r0.deliveries;
    shard_deliveries[i] += r1.deliveries - r0.deliveries;
    push_stall_ns += r1.push_stall_ns - r0.push_stall_ns;
    worker_stall_ns += r1.worker_stall_ns - r0.worker_stall_ns;
    in_depth_hwm = std::max(in_depth_hwm, r1.in_depth_hwm);
    merge_lag_hwm = std::max(merge_lag_hwm, r1.merge_lag_hwm);
  }
}

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Samples kept per timed round. A figure (a quantile of the round's samples)
// is taken within each round and the run reports a center of the per-round
// figures, so every stretch of the run weighs the same. The host's speed
// changes from second to second: a p50 follows it smoothly, and the mean of
// the middle half of the rounds follows the share of fast and slow rounds
// instead of jumping between them as the median would. A tail (p90, p99)
// of a round rests on its few largest samples, and a stall of the host
// makes a few rounds' tails outliers, which the median leaves out.
class PerRound {
 public:
  void Add(std::vector<double> round) {
    if (!round.empty()) rounds_.push_back(std::move(round));
  }
  std::vector<double> Figures(double q) const {
    std::vector<double> per_round;
    for (const std::vector<double>& r : rounds_) {
      per_round.push_back(Quantile(r, q));
    }
    return per_round;
  }
  double Center(double q) const {
    return q > 0.5 ? Summarize(Figures(q)).median
                   : InterquartileMean(Figures(q));
  }

 private:
  std::vector<std::vector<double>> rounds_;
};

void PrintSummary(const char* name, const char* unit,
                  const std::vector<double>& values) {
  const Summary s = Summarize(values);
  std::printf("# %-16s median %12.6g %-3s  q1 %-12.6g q3 %-12.6g spread %.3f"
              "  n=%" PRId64 "\n",
              name, s.median, unit, s.q1, s.q3, s.spread(), s.n);
}

void PrintFigures(const char* name, const std::vector<double>& figures) {
  std::printf("# by round %-20s", name);
  for (double v : figures) std::printf(" %.4g", v);
  std::printf("\n");
}

class Runner {
 public:
  Runner(const Args& args, std::unique_ptr<Workload> w)
      : args_(args), w_(std::move(w)), digests_(w_->digest_keys) {}

  int Run();

 private:
  // Where the feed stands: next step, churn schedule, batch scratch, and
  // the next latency sample. Gaps between samples are drawn at random
  // (mean latency_every): a fixed stride that divides the feed length
  // would time the same few calls on every pass.
  struct Cursor {
    int64_t step = 0;
    std::unique_ptr<ChurnSchedule> churn;
    std::vector<Tuple> scratch;
    int64_t next_sample = 0;
    rumor::Rng sample_rng{0x5a3b1e};
    int64_t next_probe_ns = 0;  // 0: not drawn yet
  };
  // What one timed region measured.
  struct Timed {
    std::vector<double> seg_events_per_s;
    std::vector<double> seg_outputs_per_s;
    std::vector<double> latency_us;
    std::vector<double> add_us;
    std::vector<double> remove_us;
    int64_t events = 0;
    int64_t outputs = 0;
    int64_t push_calls = 0;
    int64_t wall_ns = 0;

    void Append(const Timed& o) {
      for (auto [to, from] :
           {std::pair{&seg_events_per_s, &o.seg_events_per_s},
            std::pair{&seg_outputs_per_s, &o.seg_outputs_per_s},
            std::pair{&latency_us, &o.latency_us},
            std::pair{&add_us, &o.add_us},
            std::pair{&remove_us, &o.remove_us}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      events += o.events;
      outputs += o.outputs;
      push_calls += o.push_calls;
      wall_ns += o.wall_ns;
    }
  };
  // What the steps between the timed rounds measured.
  struct After {
    std::vector<double> checkpoint_ms;
    std::vector<double> restore_ms;
    std::vector<double> setup_s;
    size_t snapshot_bytes = 0;
  };

  bool Check(const Status& s);
  std::unique_ptr<StreamEngine> Build(const OptimizerOptions& options,
                                      int shards, DigestTable* digests,
                                      double* setup_s);
  Cursor MakeCursor() const;
  // Runs the churn op due before the next step, if any.
  void MaybeChurn(StreamEngine* e, Cursor* c, DigestTable* d, Timed* t);
  // Runs the add/remove probe pair if one is due, leaving its time out of
  // the timed region's clock.
  void MaybeProbe(StreamEngine* e, Cursor* c, Timed* t);
  // Times one AddQueryText and one RemoveQuery into `t` (if not null).
  void AddRemove(StreamEngine* e, const NamedQuery& add,
                 const std::string& remove, Timed* t);
  // Pushes the next step; returns the tuples pushed.
  int64_t PushStep(StreamEngine* e, Cursor* c);
  Timed RunTimed(StreamEngine* e, Cursor* c, double seconds, int segments);
  // Untimed pushes for `seconds`, so caches refill after the steps between
  // timed rounds.
  void WarmUp(StreamEngine* e, Cursor* c, double seconds);
  // Data-plane intervals of the traced run (see DataPlane).
  void OpenInterval(StreamEngine* e);
  void CloseInterval(StreamEngine* e);
  // Checkpoint/restore and extra set-ups, each repeated within a small time
  // budget.
  void RunAfter(StreamEngine* e, After* a);
  bool CheckOutputs(const DigestTable& prefix);
  double CayugaEventsPerSecond(double seconds);
  void MirrorSetupLayers(std::vector<Metric>* out);
  std::vector<Metric> EndToEnd(StreamEngine* e, Cursor* c, double peak_mb);
  std::vector<Metric> PerLayer(StreamEngine* e, Cursor* c);
  void PrintProvenance() const;

  const Args& args_;
  std::unique_ptr<Workload> w_;
  DigestTable digests_;
  SpanTracker spans_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string first_error_;
  // Traced run: the data-plane interval bookkeeping, the time it took (left
  // out of the timed region), allocations made by churn ops (left out of
  // alloc.per_event) and the data-plane allocations.
  bool observing_ = false;
  EngineMetrics interval_start_;
  DataPlane dp_;
  int64_t excluded_ns_ = 0;
  int64_t control_allocs_ = 0;
  int64_t allocs_ = 0;
  // The add/remove probe: pairs run so far and the query draws.
  int64_t probes_ = 0;
  rumor::Rng probe_rng_{w_->probe_seed};
};

bool Runner::Check(const Status& s) {
  ++attempted_;
  if (s.ok()) return true;
  ++failed_;
  if (first_error_.empty()) first_error_ = s.ToString();
  return false;
}

std::unique_ptr<StreamEngine> Runner::Build(const OptimizerOptions& options,
                                            int shards, DigestTable* digests,
                                            double* setup_s) {
  auto e = std::make_unique<StreamEngine>(options);
  if (shards > 1) Check(e->SetShardCount(shards));
  if (args_.trace) {
    rumor::MetricsOptions metrics;
    metrics.sample_every_n = kTracedSampleEveryN;
    e->SetMetricsOptions(metrics);
  }
  e->SetOutputHandler([digests](const std::string& q, const Tuple& t) {
    digests->Add(q, t);
  });
  digests->Reserve(static_cast<int64_t>(w_->queries.size()));
  Span setup(&spans_, "bench.setup");
  const int64_t t0 = NowNs();
  for (const auto& [name, schema] : w_->sources) {
    Span s(&spans_, "api.RegisterSource");
    Check(e->RegisterSource(name, schema));
  }
  for (const NamedQuery& q : w_->queries) {
    Span s(&spans_, "api.AddQueryText");
    Check(e->AddQueryText(q.rql, q.name));
  }
  {
    Span s(&spans_, "api.Start");
    Check(e->Start());
  }
  if (setup_s != nullptr) *setup_s = (NowNs() - t0) * 1e-9;
  return e;
}

Runner::Cursor Runner::MakeCursor() const {
  Cursor c;
  if (w_->churn_every > 0) {
    c.churn = std::make_unique<ChurnSchedule>(w_->MakeChurn());
  }
  return c;
}

void Runner::OpenInterval(StreamEngine* e) {
  const int64_t t0 = NowNs();
  {
    Span s(&spans_, "bench.collect_metrics");
    interval_start_ = e->CollectMetrics();
  }
  excluded_ns_ += NowNs() - t0;
}

void Runner::CloseInterval(StreamEngine* e) {
  const int64_t t0 = NowNs();
  {
    Span s(&spans_, "bench.collect_metrics");
    dp_.Add(interval_start_, e->CollectMetrics());
  }
  excluded_ns_ += NowNs() - t0;
}

void Runner::MaybeChurn(StreamEngine* e, Cursor* c, DigestTable* d,
                        Timed* t) {
  if (c->churn == nullptr || c->step == 0 || c->step % w_->churn_every != 0) {
    return;
  }
  ChurnSchedule::Op op = c->churn->Next();
  d->Reserve(std::stoll(op.add.name.substr(1)) + 1);
  AddRemove(e, op.add, op.remove, t);
}

void Runner::MaybeProbe(StreamEngine* e, Cursor* c, Timed* t) {
  if (w_->probe_text == nullptr) return;
  const int64_t gap_ns = static_cast<int64_t>(kProbeGapS * 1e9);
  int64_t now = NowNs();
  if (c->next_probe_ns == 0) {
    c->next_probe_ns = now + c->sample_rng.UniformInt(0, 2 * gap_ns);
  }
  if (now < c->next_probe_ns) return;
  // Sharded, a plan mutation waits for the pushed work; that wait belongs
  // to the push calls, so it stays in the timed region.
  if (w_->shards > 1) {
    Span s(&spans_, "api.Flush");
    e->Flush();
  }
  now = NowNs();
  const int64_t excluded0 = excluded_ns_;
  const NamedQuery q{rumor::StrCat("p", probes_),
                     w_->probe_text(probe_rng_, probes_)};
  ++probes_;
  AddRemove(e, q, q.name, t);
  const int64_t end = NowNs();
  excluded_ns_ = excluded0 + (end - now);
  c->next_probe_ns = end + c->sample_rng.UniformInt(0, 2 * gap_ns);
}

void Runner::AddRemove(StreamEngine* e, const NamedQuery& add,
                       const std::string& remove, Timed* t) {
  const int64_t allocs0 = observing_ ? AllocCount() : 0;
  if (observing_) CloseInterval(e);
  const int64_t t0 = NowNs();
  {
    Span s(&spans_, "api.AddQueryText");
    Check(e->AddQueryText(add.rql, add.name));
  }
  const int64_t t1 = NowNs();
  {
    Span s(&spans_, "api.RemoveQuery");
    Check(e->RemoveQuery(remove));
  }
  const int64_t t2 = NowNs();
  if (observing_) {
    OpenInterval(e);
    control_allocs_ += AllocCount() - allocs0;
  }
  if (t != nullptr) {
    t->add_us.push_back((t1 - t0) * 1e-3);
    t->remove_us.push_back((t2 - t1) * 1e-3);
  }
}

int64_t Runner::PushStep(StreamEngine* e, Cursor* c) {
  const int64_t nsteps = static_cast<int64_t>(w_->steps.size());
  const Step& st = w_->steps[c->step % nsteps];
  const rumor::Timestamp offset = (c->step / nsteps) * w_->period;
  const std::string& source = w_->sources[st.source].first;
  ++c->step;
  if (w_->per_tuple) {
    const Tuple& t = w_->tuples[st.begin];
    Span s(&spans_, "api.Push");
    Check(e->Push(source, t.WithTimestamp(t.ts() + offset)));
    return 1;
  }
  c->scratch.clear();
  for (int32_t i = st.begin; i < st.end; ++i) {
    const Tuple& t = w_->tuples[i];
    c->scratch.push_back(t.WithTimestamp(t.ts() + offset));
  }
  Span s(&spans_, "api.PushBatch");
  Check(e->PushBatch(source, c->scratch));
  return st.end - st.begin;
}

// A stretch of the timed region: `seconds` of closed-loop pushes cut into
// `segments` equal time segments; throughput is reported per segment.
// Sharded engines Flush() after each latency sample and before the stretch
// ends, so every timed tuple is fully processed inside it.
Runner::Timed Runner::RunTimed(StreamEngine* e, Cursor* c, double seconds,
                               int segments) {
  Timed t;
  t.latency_us.reserve(1 << 16);
  const bool sharded = w_->shards > 1;
  const int64_t seg_ns = static_cast<int64_t>(seconds * 1e9 / segments);
  const int64_t start = NowNs();
  const int64_t excluded0 = excluded_ns_;
  int64_t seg_start = start;
  int64_t seg_excluded = excluded_ns_;
  int64_t seg_events = 0;
  int64_t seg_outputs0 = digests_.total();
  const int64_t outputs0 = digests_.total();
  Span timed(&spans_, "bench.timed");
  for (int64_t i = 0;; ++i) {
    MaybeChurn(e, c, &digests_, &t);
    const bool sample = c->step >= c->next_sample;
    if (sample) {
      c->next_sample = c->step + 1 +
                       c->sample_rng.UniformInt(0, 2 * w_->latency_every - 2);
    }
    const int64_t t0 = sample ? NowNs() : 0;
    const int64_t n = PushStep(e, c);
    if (sample) {
      if (sharded) {
        Span s(&spans_, "api.Flush");
        e->Flush();
      }
      t.latency_us.push_back((NowNs() - t0) * 1e-3);
    }
    ++t.push_calls;
    t.events += n;
    seg_events += n;
    if (w_->per_tuple && (i & 255) != 0) continue;
    MaybeProbe(e, c, &t);
    int64_t now = NowNs();
    if (now - seg_start - (excluded_ns_ - seg_excluded) < seg_ns) continue;
    const bool last =
        static_cast<int>(t.seg_events_per_s.size()) == segments - 1;
    if (last && sharded) {
      Span s(&spans_, "api.Flush");
      e->Flush();
      now = NowNs();
    }
    const double dt = (now - seg_start - (excluded_ns_ - seg_excluded)) * 1e-9;
    t.seg_events_per_s.push_back(seg_events / dt);
    t.seg_outputs_per_s.push_back((digests_.total() - seg_outputs0) / dt);
    seg_start = now;
    seg_excluded = excluded_ns_;
    seg_events = 0;
    seg_outputs0 = digests_.total();
    if (last) break;
  }
  t.wall_ns = seg_start - start - (excluded_ns_ - excluded0);
  t.outputs = digests_.total() - outputs0;
  return t;
}

void Runner::WarmUp(StreamEngine* e, Cursor* c, double seconds) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    MaybeChurn(e, c, &digests_, nullptr);
    PushStep(e, c);
  }
  e->Flush();
}

// Checkpoint/restore of the running engine, and fresh set-ups. A traced run
// does each once, for the spans and the snapshot.
void Runner::RunAfter(StreamEngine* e, After* a) {
  const bool traced = args_.trace;
  std::string snapshot;
  for (double ms : Repeat(1, traced ? 1 : 10, 0.025, [&] {
         snapshot.clear();
         Span s(&spans_, "api.Checkpoint");
         const int64_t t0 = NowNs();
         Check(e->Checkpoint(&snapshot));
         return (NowNs() - t0) * 1e-6;
       })) {
    a->checkpoint_ms.push_back(ms);
  }
  a->snapshot_bytes = snapshot.size();
  for (double ms : Repeat(1, traced ? 1 : 5, 0.05, [&] {
         StreamEngine fresh;
         if (w_->shards > 1) Check(fresh.SetShardCount(w_->shards));
         Span s(&spans_, "api.Restore");
         const int64_t t0 = NowNs();
         Check(fresh.Restore(snapshot));
         return (NowNs() - t0) * 1e-6;
       })) {
    a->restore_ms.push_back(ms);
  }
  if (traced) return;
  for (double sec : Repeat(1, 10, 0.05, [&] {
         DigestTable scratch(w_->digest_keys);
         double setup = 0;
         Build(OptimizerOptions{}, w_->shards, &scratch, &setup);
         return setup;
       })) {
    a->setup_s.push_back(sec);
  }
}

// Re-runs the prefix on the reference and compares per-query digests.
bool Runner::CheckOutputs(const DigestTable& prefix) {
  if (!w_->automata.empty()) {
    // paper_w1: Cayuga on the same feed; per-query delivery counts.
    rumor::CayugaEngine cayuga;
    for (const rumor::CayugaAutomaton& a : w_->automata) {
      cayuga.AddAutomaton(a);
    }
    std::vector<int64_t> counts(w_->automata.size(), 0);
    cayuga.SetOutputHandler([&](int id, const Tuple&) { ++counts[id]; });
    for (int64_t i = 0; i < w_->prefix_steps; ++i) {
      const Step& st = w_->steps[i];
      cayuga.OnEvent(w_->sources[st.source].first, w_->tuples[st.begin]);
    }
    int64_t bad = 0;
    for (size_t q = 0; q < counts.size(); ++q) {
      bad += counts[q] != prefix.Count(static_cast<int64_t>(q));
    }
    std::printf("# check: %zu queries over %" PRId64
                " prefix events vs Cayuga: %" PRId64 " mismatching\n",
                counts.size(), w_->prefix_steps, bad);
    return bad == 0;
  }
  // Every sharing rule off, one shard, the same steps and churn schedule.
  DigestTable ref(w_->digest_keys);
  std::unique_ptr<StreamEngine> e = Build(NoSharing(), 1, &ref, nullptr);
  Cursor c = MakeCursor();
  while (c.step < w_->prefix_steps) {
    MaybeChurn(e.get(), &c, &ref, nullptr);
    PushStep(e.get(), &c);
  }
  const int64_t n = std::max(ref.queries(), prefix.queries());
  int64_t bad = 0;
  for (int64_t q = 0; q < n; ++q) {
    bad += ref.Count(q) != prefix.Count(q) || ref.Hash(q) != prefix.Hash(q);
  }
  std::printf("# check: %" PRId64 " queries over %" PRId64
              " prefix steps vs the unshared reference: %" PRId64
              " mismatching (%" PRId64 " outputs)\n",
              n, w_->prefix_steps, bad, ref.total());
  return bad == 0 && ref.total() == prefix.total();
}

// Cayuga alone on paper_w1's feed (looped like the engine's), for the
// reference-only cayuga.* metrics.
double Runner::CayugaEventsPerSecond(double seconds) {
  rumor::CayugaEngine cayuga;
  for (const rumor::CayugaAutomaton& a : w_->automata) cayuga.AddAutomaton(a);
  int64_t outputs = 0;
  cayuga.SetOutputHandler([&](int, const Tuple&) { ++outputs; });
  const int64_t nsteps = static_cast<int64_t>(w_->steps.size());
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t events = 0;
  for (int64_t i = 0; (i & 255) != 0 || NowNs() < end; ++i) {
    const Step& st = w_->steps[i % nsteps];
    const Tuple& t = w_->tuples[st.begin];
    cayuga.OnEvent(w_->sources[st.source].first,
                   t.WithTimestamp(t.ts() + (i / nsteps) * w_->period));
    ++events;
  }
  return events / ((NowNs() - start) * 1e-9);
}

// Times the query, plan/compile and rules layers by calling them directly
// on the workload's standing set, as Start() does internally.
void Runner::MirrorSetupLayers(std::vector<Metric>* out) {
  Span root(&spans_, "bench.setup_layers");
  rumor::Catalog catalog;
  for (const auto& [name, schema] : w_->sources) {
    catalog.AddSource(name, schema);
  }
  std::vector<rumor::Query> queries;
  queries.reserve(w_->queries.size());
  const int64_t t0 = NowNs();
  for (const NamedQuery& q : w_->queries) {
    Span s(&spans_, "query.ParseQuery");
    auto parsed = rumor::ParseQuery(q.rql, catalog);
    if (!Check(parsed.status())) continue;
    queries.push_back(parsed.value());
    queries.back().name = q.name;
  }
  const int64_t t1 = NowNs();
  rumor::Plan plan;
  {
    Span s(&spans_, "plan.CompileQueries");
    Check(rumor::CompileQueries(queries, &plan).status());
  }
  const int64_t t2 = NowNs();
  rumor::ShareIndex index(&plan);
  const int64_t t3 = NowNs();
  {
    Span s(&spans_, "rules.Optimize");
    rumor::Optimize(&plan, OptimizerOptions{}, &index);
  }
  const int64_t t4 = NowNs();
  const double n = std::max<double>(1, queries.size());
  out->push_back({"query.parse_us", (t1 - t0) * 1e-3 / n, "us"});
  out->push_back({"compile.us_per_query", (t2 - t1) * 1e-3 / n, "us"});
  out->push_back({"rules.optimize_ms", (t4 - t3) * 1e-6, "ms"});
}

// The untraced run: the timed region in rounds, with checkpoint/restore and
// set-ups between them, so every metric samples the whole run rather than
// one stretch of it.
std::vector<Metric> Runner::EndToEnd(StreamEngine* e, Cursor* c,
                                     double peak_mb) {
  Timed t;
  After a;
  PerRound latency, add_round, remove_round, setup_round, checkpoint_round,
      restore_round;
  // The samples a vector gained since it held `n0`.
  auto since = [](const std::vector<double>& v, size_t n0) {
    return std::vector<double>(v.begin() + n0, v.end());
  };
  for (int round = 0; round < kRounds; ++round) {
    WarmUp(e, c, round == 0 ? kFirstWarmUpS : 0.05);
    const Timed r = RunTimed(e, c, args_.seconds / kRounds, 2);
    const size_t setups0 = a.setup_s.size();
    const size_t checkpoints0 = a.checkpoint_ms.size();
    const size_t restores0 = a.restore_ms.size();
    RunAfter(e, &a);
    latency.Add(r.latency_us);
    // Feed churn for query_churn, the probe for the others.
    add_round.Add(r.add_us);
    remove_round.Add(r.remove_us);
    setup_round.Add(since(a.setup_s, setups0));
    checkpoint_round.Add(since(a.checkpoint_ms, checkpoints0));
    restore_round.Add(since(a.restore_ms, restores0));
    t.Append(r);
  }
  PrintSummary("events_per_s", "1/s", t.seg_events_per_s);
  PrintSummary("outputs_per_s", "1/s", t.seg_outputs_per_s);
  PrintSummary("latency", "us", t.latency_us);
  PrintSummary("setup", "s", a.setup_s);
  PrintSummary("add_query", "us", t.add_us);
  PrintSummary("remove_query", "us", t.remove_us);
  PrintSummary("checkpoint", "ms", a.checkpoint_ms);
  PrintSummary("restore", "ms", a.restore_ms);
  std::printf("# events_per_s by segment:");
  for (double v : t.seg_events_per_s) std::printf(" %.0f", v);
  std::printf("\n");
  PrintFigures("latency_p50_us", latency.Figures(0.5));
  PrintFigures("latency_p99_us", latency.Figures(0.99));
  PrintFigures("add_query_p50_us", add_round.Figures(0.5));
  PrintFigures("add_query_p90_us", add_round.Figures(0.9));
  PrintFigures("remove_query_p50_us", remove_round.Figures(0.5));
  PrintFigures("remove_query_p90_us", remove_round.Figures(0.9));
  PrintFigures("setup_s", setup_round.Figures(0.5));
  PrintFigures("checkpoint_ms", checkpoint_round.Figures(0.5));
  PrintFigures("restore_ms", restore_round.Figures(0.5));
  std::printf("# timed: %" PRId64 " events, %" PRId64 " outputs, %" PRId64
              " push calls; snapshot %zu bytes; api errors %" PRId64
              " of %" PRId64 " calls (error_rate %.3g)%s%s\n",
              t.events, t.outputs, t.push_calls, a.snapshot_bytes, failed_,
              attempted_, Ratio(failed_, attempted_),
              first_error_.empty() ? "" : "; first: ", first_error_.c_str());
  return {
      {"events_per_s", InterquartileMean(t.seg_events_per_s), "1/s"},
      {"outputs_per_s", InterquartileMean(t.seg_outputs_per_s), "1/s"},
      {"latency_p50_us", latency.Center(0.5), "us"},
      {"latency_p99_us", latency.Center(0.99), "us"},
      {"setup_s", setup_round.Center(0.5), "s"},
      {"add_query_p50_us", add_round.Center(0.5), "us"},
      {"add_query_p90_us", add_round.Center(0.9), "us"},
      {"remove_query_p50_us", remove_round.Center(0.5), "us"},
      {"remove_query_p90_us", remove_round.Center(0.9), "us"},
      {"checkpoint_ms", checkpoint_round.Center(0.5), "ms"},
      {"restore_ms", restore_round.Center(0.5), "ms"},
      {"engine_peak_rss_mb", peak_mb, "MB"},
  };
}

// The traced run: untraced and traced quarters of the timed region
// alternate (U T U T), so drift of the host's speed hits both sides of
// trace.overhead alike; the per-layer metrics cover the traced quarters.
std::vector<Metric> Runner::PerLayer(StreamEngine* e, Cursor* c) {
  Timed t;
  spans_ = SpanTracker();
  WarmUp(e, c, kFirstWarmUpS);
  std::vector<double> untraced_segments;
  for (int quarter = 0; quarter < 4; ++quarter) {
    if (quarter % 2 == 0) {
      const Timed plain = RunTimed(e, c, args_.seconds / 4, 5);
      untraced_segments.insert(untraced_segments.end(),
                               plain.seg_events_per_s.begin(),
                               plain.seg_events_per_s.end());
      continue;
    }
    spans_.Enable(true);
    observing_ = true;
    SetAllocCounting(true);
    OpenInterval(e);
    const int64_t allocs0 = AllocCount();
    const int64_t control0 = control_allocs_;
    t.Append(RunTimed(e, c, args_.seconds / 4, 5));
    allocs_ += AllocCount() - allocs0 - (control_allocs_ - control0);
    CloseInterval(e);
    SetAllocCounting(false);
    observing_ = false;
    spans_.Enable(false);
  }
  const double untraced_eps = Summarize(untraced_segments).median;
  const std::vector<SpanTracker::Stat> timed_spans = spans_.stats();
  spans_.Enable(true);
  After a;
  RunAfter(e, &a);
  const EngineMetrics end = e->CollectMetrics();

  auto span = [&](const char* name) {
    for (const SpanTracker::Stat& s : timed_spans) {
      if (std::strcmp(s.name, name) == 0) return s;
    }
    return SpanTracker::Stat{name};
  };
  const double events = std::max<int64_t>(1, t.events);
  const double wall = std::max<int64_t>(1, t.wall_ns);
  const int shards = w_->shards;
  const double push_ns =
      span("api.Push").total_ns + span("api.PushBatch").total_ns;
  const double flush_ns = span("api.Flush").total_ns;
  const double control_ns =
      span("api.AddQueryText").total_ns + span("api.RemoveQuery").total_ns;
  const double mop_ns = dp_.mop_est_ns();
  // What the self shares divide by: the wall time the m-ops had (per
  // shard). An m-op's sampled time includes handing its leaf outputs to
  // the handler, so on the agg workloads the m-ops fill nearly all of it,
  // and the sampled estimate can exceed it by a few percent; the shares
  // are then scaled to sum to 1.
  const double mop_wall_ns = std::max(wall * shards, mop_ns);
  // The executor's own time: data-plane API time that no sampled m-op time
  // covers. Sharded, m-ops run on the workers, so it is the pushing
  // thread's push time not spent stalled on them (route, flatten, merge).
  const double residual_ns =
      shards > 1 ? std::max(0.0, push_ns - dp_.push_stall_ns)
                 : std::max(0.0, push_ns + flush_ns - mop_ns);
  const rumor::OptimizeStats& opt = end.optimize;

  std::vector<Metric> m;
  m.push_back({"api.outputs_per_event", t.outputs / events, "count"});
  m.push_back({"api.tuples_per_push", Ratio(t.events, t.push_calls),
               "count"});
  m.push_back({"api.error_rate", Ratio(failed_, attempted_), "ratio"});
  MirrorSetupLayers(&m);
  m.push_back({"rules.mops_per_query", opt.mops_per_query(), "count"});
  m.push_back({"rules.members_per_mop", opt.members_per_mop(), "count"});
  m.push_back({"rules.shared_mops", static_cast<double>(opt.shared_mops),
               "count"});
  m.push_back({"rules.incremental_hit_ratio",
               Ratio(opt.incremental_cse_merges + opt.incremental_attach_merges,
                     opt.dynamic_adds),
               "count"});
  m.push_back({"rules.pruned_mops_per_remove",
               Ratio(opt.pruned_mops, opt.dynamic_removes), "count"});
  m.push_back(
      {"share_index.kb", end.share_index.approx_bytes / 1024.0, "KiB"});
  m.push_back({"executor.deliveries_per_event", dp_.deliveries / events,
               "count"});
  m.push_back({"executor.residual_share", residual_ns / wall, "ratio"});
  for (const char* type : kReportedMopTypes) {
    auto it = dp_.types.find(type);
    const TypeDelta d = it != dp_.types.end() ? it->second : TypeDelta{};
    const std::string p = std::string("mop.") + type;
    m.push_back({p + ".tuples_in_per_event", d.tuples_in / events, "count"});
    m.push_back({p + ".selectivity", Ratio(d.tuples_out, d.tuples_in),
                 "ratio"});
    m.push_back({p + ".ns_per_tuple", d.ns_per_tuple(), "ns"});
    m.push_back({p + ".self_share", d.est_ns() / mop_wall_ns, "ratio"});
  }
  m.push_back({"expr.vectorized_share",
               Ratio(dp_.program_vectorized,
                     dp_.program_vectorized + dp_.program_generic),
               "ratio"});
  m.push_back({"mop.predicate_index.flat_probe_share",
               Ratio(dp_.flat_probes, dp_.flat_probes + dp_.map_probes),
               "ratio"});
  m.push_back({"alloc.per_event", allocs_ / events, "count"});
  m.push_back({"arena.recycle_hit_rate",
               Ratio(dp_.arena_requests - dp_.arena_heap, dp_.arena_requests),
               "ratio"});
  m.push_back(
      {"state.mop_state_kb", end.mop_state_bytes / 1024.0, "KiB"});
  m.push_back({"snapshot.kb", a.snapshot_bytes / 1024.0, "KiB"});
  double max_deliveries = 0;
  for (int64_t d : dp_.shard_deliveries) {
    max_deliveries = std::max<double>(max_deliveries, d);
  }
  m.push_back({"shard.push_stall_share", dp_.push_stall_ns / wall, "ratio"});
  m.push_back({"shard.worker_stall_share",
               dp_.worker_stall_ns / (wall * shards), "ratio"});
  m.push_back({"shard.in_depth_hwm", static_cast<double>(dp_.in_depth_hwm),
               "count"});
  m.push_back({"shard.merge_lag_hwm", static_cast<double>(dp_.merge_lag_hwm),
               "count"});
  m.push_back({"shard.delivery_skew",
               Ratio(max_deliveries,
                     Ratio(dp_.deliveries, dp_.shard_deliveries.size())),
               "ratio"});
  const double cayuga_eps =
      w_->automata.empty()
          ? 0
          : CayugaEventsPerSecond(std::min(2.0, args_.seconds / 4));
  m.push_back({"cayuga.events_per_s", cayuga_eps, "1/s"});
  m.push_back(
      {"cayuga.speed_ratio", Ratio(untraced_eps, cayuga_eps), "ratio"});
  const double traced_eps = Summarize(t.seg_events_per_s).median;
  m.push_back(
      {"trace.overhead", 1 - Ratio(traced_eps, untraced_eps), "ratio"});
  m.push_back({"layers.coverage", 1 - residual_ns / wall, "ratio"});

  for (const auto& [type, d] : dp_.types) {
    std::printf("# mop %-18s in/event %10.4f  selectivity %8.4f  "
                "ns/tuple %9.2f  self_share %.4f\n",
                type.c_str(), d.tuples_in / events,
                Ratio(d.tuples_out, d.tuples_in), d.ns_per_tuple(),
                d.est_ns() / mop_wall_ns);
  }
  std::printf("# traced region: %.0f events in %.3f s; client self %.3f s, "
              "push %.3f s, flush %.3f s, churn %.3f s, m-op estimate "
              "%.3f s, executor residual %.3f s\n",
              events, wall * 1e-9, span("bench.timed").self_ns * 1e-9,
              push_ns * 1e-9, flush_ns * 1e-9, control_ns * 1e-9,
              mop_ns * 1e-9, residual_ns * 1e-9);
  return m;
}

void Runner::PrintProvenance() const {
  rumor::JsonWriter j(0);
  j.BeginObject().Key("provenance").BeginObject();
  j.KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  j.KV("compiler", PERFBENCH_COMPILER " (" __VERSION__ ")");
  j.KV("build_type", PERFBENCH_BUILD_TYPE);
  j.KV("rumor_metrics", RUMOR_METRICS_ENABLED != 0);
  j.KV("rumor_failpoints", RUMOR_FAILPOINTS_ENABLED != 0);
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  j.KV("git_sha", sha != nullptr ? sha : "unknown");
  const char* src = std::getenv("PERFBENCH_SOURCE_SHA256");
  j.KV("source_sha256", src != nullptr ? src : "unknown");
  j.KV("workload", w_->name);
  j.KV("seed", static_cast<int64_t>(args_.seed));
  j.KV("seconds", args_.seconds);
  j.KV("trace", args_.trace);
  j.KV("scale", args_.scale == Scale::kTiny ? "tiny" : "full");
  j.KV("feed_events", w_->feed_events());
  j.KV("standing_queries", static_cast<int64_t>(w_->queries.size()));
  j.KV("shards", static_cast<int64_t>(w_->shards));
  j.KV("prefix_steps", w_->prefix_steps);
  j.EndObject().EndObject();
  std::fputs(j.str().c_str(), stdout);
}

int Runner::Run() {
  PrintProvenance();
  const bool traced = args_.trace;
  const int64_t rss0_kb = RssKb();
  const bool peak_reset = ResetPeakRss();

  // Set-up of the measured engine, then the prefix: the warm-up whose
  // outputs the reference checks.
  rumor::Trace::Enable(traced);
  spans_.Enable(traced);
  std::unique_ptr<StreamEngine> e =
      Build(OptimizerOptions{}, w_->shards, &digests_, nullptr);
  spans_.Enable(false);
  Cursor cursor = MakeCursor();
  while (cursor.step < w_->prefix_steps) {
    MaybeChurn(e.get(), &cursor, &digests_, nullptr);
    PushStep(e.get(), &cursor);
  }
  e->Flush();
  // The engine at steady state (every window full), before the benchmark
  // allocates its own sample buffers or builds any other engine.
  const double peak_mb = (PeakRssKb() - rss0_kb) / 1024.0;
  const DigestTable prefix = digests_;

  const std::vector<Metric> metrics =
      traced ? PerLayer(e.get(), &cursor)
             : EndToEnd(e.get(), &cursor, peak_mb);
  if (!traced && !peak_reset) {
    std::printf("# peak RSS could not be reset: engine_peak_rss_mb includes "
                "feed generation\n");
  }
  e.reset();
  const bool correct = CheckOutputs(prefix);
  if (traced && !args_.trace_out.empty()) {
    FILE* f = std::fopen(args_.trace_out.c_str(), "w");
    if (f != nullptr) {
      const std::string json = rumor::Trace::DumpChromeJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("# wrote %s\n", args_.trace_out.c_str());
    }
  }

  rumor::JsonWriter j(0);
  j.BeginObject();
  j.KV("correct", correct);
  j.KV("attempted", attempted_);
  j.KV("failed", failed_);
  j.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    j.Key(m.name).BeginObject();
    j.Key("value").Double(std::isfinite(m.value) ? m.value : 0, 17);
    j.KV("unit", m.unit);
    j.EndObject();
  }
  j.EndObject().EndObject();
  std::fputs(j.str().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale full|tiny] [--trace-out <file>]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> w =
      perfbench::MakeWorkload(args.workload, args.seed, args.scale);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Runner(args, std::move(w)).Run();
}
