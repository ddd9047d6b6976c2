// Hot-data-plane benchmark: a fig9-style predicate-index workload (N
// selection queries σ(a0 = c AND a1 <= r) over one source stream, merged by
// rule sσ into a single predicate-index m-op) pushed at several batch sizes.
//
// Sweeps the dispatch batch size on the engine's data plane ("vectorized"
// mode: typed int-register / fused-comparison evaluation + flat
// open-addressing int-key index probes).
//
// The "legacy" mode — the same plan with the typed/fused evaluation and the
// flat probe switched off (Value-boxed Program::Eval + the
// unordered_map<Value, ...> index probe) — is gone with the process-wide
// switches that selected it; its last measured rows stay below as recorded
// constants (kLegacyRecorded) and in the JSON's `legacy_recorded_rows`.
//
// Prints a table and writes BENCH_hotpath.json. Speedups are relative to the
// pre-PR main baseline recorded in kBaselineMain below (measured at commit
// 291d691 on the same machine, workload, and scale), which also carried the
// untoggleable costs this PR removed: shared_ptr<vector<Value>> tuple
// payloads (two allocations + atomic refcounts per tuple), a 48-byte
// string-bearing Value, per-event heap-allocated membership bit vectors, and
// per-emission task staging for consumer-less output channels.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/stream_engine.h"
#include "bench/figure_common.h"
#include "common/json_writer.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "query/builder.h"

using namespace rumor;
using namespace rumor::bench;

namespace {

constexpr int64_t kBatches[] = {1, 16, 64, 256, 1024};

// events/sec of pre-PR main (commit 291d691) on this workload at quick
// scale, event-at-a-time for batch 1 and PushSourceBatch otherwise; best of
// several repetitions.
constexpr double kBaselineMain[] = {4250376, 4657686, 4688293, 4742070,
                                    4807844};

// events/sec of the legacy mode per batch size, best of 3 repetitions at
// quick scale. Measured at commit 7470978 (the last to have the switches),
// Release build, on a shared 4-core x86-64 host (g++ 12), the host that
// produced the committed BENCH_hotpath.json.
constexpr double kLegacyRecorded[] = {6198506, 7437998, 7409403, 7577075,
                                      7534280};

struct Cell {
  const char* mode;
  int64_t batch;  // 1 = event-at-a-time
  double events_per_sec = 0;
  int64_t outputs = 0;
};

}  // namespace

int main() {
  Scale scale = GetScale();
  const int num_queries = 100;
  const int64_t domain = 50;
  const int64_t num_events = scale.full ? 1000000 : 300000;
  const int64_t tiny = []() {
    const char* env = std::getenv("RUMOR_BENCH_TINY");
    return env != nullptr ? std::atoll(env) : int64_t{0};
  }();

  Schema schema = Schema::MakeInts(10);
  Rng rng(7);
  std::vector<Query> queries;
  for (int i = 0; i < num_queries; ++i) {
    std::string pred = "a0 = " + std::to_string(rng.UniformInt(0, domain - 1)) +
                       " AND a1 <= " +
                       std::to_string(rng.UniformInt(0, domain - 1));
    queries.push_back(QueryBuilder::FromSource("S", schema)
                          .Select(pred)
                          .Build("Q" + std::to_string(i)));
  }

  const int64_t n = tiny > 0 ? tiny : num_events;
  std::vector<Event> events;
  events.reserve(n);
  std::vector<int64_t> attrs(10);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t& a : attrs) a = rng.UniformInt(0, domain - 1);
    events.push_back(Event{0, Tuple::MakeInts(attrs, i)});
  }
  const int64_t warm = tiny > 0 ? 0 : n / 10;

  std::printf("# hotpath — %d σ(a0=c AND a1<=r) queries (sσ-merged), %" PRId64
              " events, domain %" PRId64 "\n",
              num_queries, n, domain);
  std::printf("%-12s %8s %16s %10s\n", "mode", "batch", "events/s",
              "vs_main");

  std::vector<Cell> cells;
  for (size_t b = 0; b < std::size(kBatches); ++b) {
    const int64_t batch = kBatches[b];
    Cell cell{"vectorized", batch, 0, 0};
    const int reps = tiny > 0 ? 1 : 3;
    for (int rep = 0; rep < reps; ++rep) {
      RumorRun run = batch == 1
                         ? RunRumor(queries, OptimizerOptions{}, events, warm,
                                    {"S"})
                         : RunRumorBatched(queries, OptimizerOptions{},
                                           events, warm, batch, {"S"});
      cell.events_per_sec =
          std::max(cell.events_per_sec, run.result.EventsPerSecond());
      cell.outputs = run.result.outputs;
    }
    cells.push_back(cell);
    std::printf("%-12s %8" PRId64 " %16.0f %9.2fx\n", cell.mode, cell.batch,
                cell.events_per_sec, cell.events_per_sec / kBaselineMain[b]);
  }

  for (size_t i = 1; i < cells.size(); ++i) {
    RUMOR_CHECK(cells[i].outputs == cells[0].outputs)
        << "configurations disagree on output count";
  }

  // Observability demo: the same merged plan through the engine API, then
  // EXPLAIN ANALYZE + the metrics snapshot. This is where a 100-query plan
  // shows where events die (the sσ m-op's selectivity).
  {
    StreamEngine engine;
    RUMOR_CHECK(engine.RegisterSource("S", schema, /*sharable_label=*/0).ok());
    for (const Query& q : queries) {
      Query copy = q;
      RUMOR_CHECK(engine.AddQuery(std::move(copy)).ok());
    }
    RUMOR_CHECK(engine.Start().ok());
    // Chunked pushes so the invocation-sampled eval timing has invocations
    // to sample (a single whole-feed batch would be one invocation).
    const int64_t demo = std::min<int64_t>(n, 50000);
    const int64_t chunk = 256;
    std::vector<Tuple> batch_buf;
    for (int64_t i = 0; i < demo; i += chunk) {
      batch_buf.clear();
      for (int64_t j = i; j < std::min(demo, i + chunk); ++j) {
        batch_buf.push_back(events[j].tuple);
      }
      RUMOR_CHECK(engine.PushBatch("S", batch_buf).ok());
    }
    std::printf("\n# EXPLAIN ANALYZE (%" PRId64 " events)\n%s",
                demo, engine.ExplainAnalyze().c_str());
    std::printf("\n# metrics snapshot\n%s",
                engine.CollectMetrics().ToString().c_str());
  }

  // Soak demo: a short sharded run with the metrics ticker sampling a
  // throughput time series and the control-plane trace recorder on. Writes
  // BENCH_metrics_timeseries.json (the tick ring) and BENCH_trace.json
  // (Chrome trace-event JSON — open in chrome://tracing or ui.perfetto.dev
  // to see the Optimize / incremental-merge / epoch-flush spans).
  {
    Trace::Clear();
    Trace::Enable(true);
    StreamEngine soak;
    RUMOR_CHECK(soak.SetShardCount(2).ok());
    RUMOR_CHECK(soak.RegisterSource("S", schema, /*sharable_label=*/0).ok());
    for (int i = 0; i < 10; ++i) {
      Query copy = queries[i];
      RUMOR_CHECK(soak.AddQuery(std::move(copy)).ok());
    }
    RUMOR_CHECK(soak.Start().ok());  // -> Optimize span
    soak.StartMetricsTicker(std::chrono::milliseconds(2));
    const int64_t soak_events = std::min<int64_t>(n, 20000);
    const int64_t chunk = 256;
    std::vector<Tuple> batch_buf;
    for (int64_t i = 0; i < soak_events; i += chunk) {
      batch_buf.clear();
      for (int64_t j = i; j < std::min(soak_events, i + chunk); ++j) {
        batch_buf.push_back(events[j].tuple);
      }
      RUMOR_CHECK(soak.PushBatch("S", batch_buf).ok());
      if (i % (chunk * 16) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // A live add mid-soak -> incremental-merge span.
    RUMOR_CHECK(
        soak.AddQueryText("SELECT * FROM S WHERE a0 = 1", "Qlive").ok());
    soak.Flush();  // -> epoch-flush span
    // Let at least one more tick land after the flush.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    soak.StopMetricsTicker();
    Trace::Enable(false);

    const std::string series = soak.MetricsHistoryJson();
    RUMOR_CHECK(!soak.MetricsHistory().empty())
        << "soak produced no metrics ticks";
    WriteReport("BENCH_metrics_timeseries.json", series);
    const std::string trace = Trace::DumpChromeJson();
#if RUMOR_METRICS_ENABLED
    RUMOR_CHECK(trace.find("\"Optimize\"") != std::string::npos &&
                trace.find("ShardedExecutor::Flush") != std::string::npos)
        << "trace is missing optimizer/epoch-flush spans";
#endif
    WriteReport("BENCH_trace.json", trace);
    std::printf("# soak: %zu metrics ticks, %" PRId64 " trace spans\n",
                soak.MetricsHistory().size(), Trace::span_count());
    Trace::Clear();
  }

  // The metrics-overhead acceptance check: the vectorized batch=64 cell of
  // this (metrics ON by default) build vs the same cell of a
  // RUMOR_METRICS=OFF build, passed in via RUMOR_BENCH_METRICS_BASELINE by
  // CI's perf-smoke job. Recorded in the JSON so the overhead is auditable.
  double on_ev_per_sec = 0;
  for (const Cell& c : cells) {
    if (c.batch == 64 && std::string(c.mode) == "vectorized") {
      on_ev_per_sec = c.events_per_sec;
    }
  }
  const double metrics_off_baseline = []() {
    const char* env = std::getenv("RUMOR_BENCH_METRICS_BASELINE");
    return env != nullptr ? std::atof(env) : 0.0;
  }();

  JsonWriter w;
  w.BeginObject()
      .KV("bench", "hotpath")
      .Key("workload")
      .String(StrCat(num_queries, " sσ-merged selection queries, 10-int "
                     "schema, domain ", domain))
      .KV("events", n);
  if (tiny > 0) w.KV("tiny", true);
  WriteHost(w);
  w.KV("metrics_compiled_in", RUMOR_METRICS_ENABLED != 0);
  if (metrics_off_baseline > 0 && on_ev_per_sec > 0) {
    // overhead < 0.03 is the acceptance bar (batch=64, vectorized).
    w.Key("metrics_off_events_per_sec")
        .Double(metrics_off_baseline, 10)
        .Key("metrics_on_events_per_sec")
        .Double(on_ev_per_sec, 10)
        .Key("metrics_overhead")
        .Double(1.0 - on_ev_per_sec / metrics_off_baseline, 4);
  }
  w.KV("baseline",
       "pre-PR main (commit 291d691), same workload and scale");
  w.Key("baseline_rows").BeginArray();
  for (size_t b = 0; b < std::size(kBatches); ++b) {
    w.BeginObject()
        .KV("batch", kBatches[b])
        .Key("events_per_sec")
        .Double(kBaselineMain[b], 10)
        .EndObject();
  }
  w.EndArray();
  w.Key("rows").BeginArray();
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    w.BeginObject()
        .KV("mode", c.mode)
        .KV("batch", c.batch)
        .Key("events_per_sec")
        .Double(c.events_per_sec, 10)
        .Key("speedup_vs_main")
        .Double(c.events_per_sec / kBaselineMain[i], 4)
        .EndObject();
  }
  w.EndArray();
  w.KV("legacy_recorded",
       "typed/fused evaluation and flat probe off, last measured at commit "
       "7470978 on a shared 4-core x86-64 host; not re-run");
  w.Key("legacy_recorded_rows").BeginArray();
  for (size_t b = 0; b < std::size(kBatches); ++b) {
    w.BeginObject()
        .KV("mode", "legacy")
        .KV("batch", kBatches[b])
        .Key("events_per_sec")
        .Double(kLegacyRecorded[b], 10)
        .EndObject();
  }
  w.EndArray().EndObject();
  WriteReport("BENCH_hotpath.json", w.str());
  return 0;
}
