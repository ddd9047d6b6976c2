// Shared scaffolding for the figure-reproduction benchmarks (one binary per
// paper figure). Scale is controlled by RUMOR_BENCH_SCALE:
//   quick (default) — small tuple counts / query caps, finishes in seconds;
//   full            — the paper's scale (100k+ tuples, up to 100k queries).
#ifndef RUMOR_BENCH_FIGURE_COMMON_H_
#define RUMOR_BENCH_FIGURE_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "workload/harness.h"
#include "workload/workloads.h"

namespace rumor {
namespace bench {

// Writes a (JSON) report next to the working directory; all BENCH_*.json
// emitters build their document with JsonWriter and land here.
inline bool WriteReport(const char* path, const std::string& content) {
  RUMOR_CHECK(JsonLint(content)) << "invalid JSON for " << path;
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("# wrote %s\n", path);
  return true;
}

// The `host` block of a report: where and how the numbers were measured.
inline void WriteHost(JsonWriter& w) {
  w.Key("host")
      .BeginObject()
      .KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .KV("compiler", __VERSION__)
#ifdef NDEBUG
      .KV("assertions", false)
#else
      .KV("assertions", true)
#endif
      .KV("metrics", RUMOR_METRICS_ENABLED != 0)
      .KV("failpoints", RUMOR_FAILPOINTS_ENABLED != 0)
      .EndObject();
}

struct Scale {
  int64_t tuples = 30000;        // events per measurement
  int64_t warmup = 3000;         // untimed warm-up events
  int max_queries = 10000;       // cap on query-count sweeps
  bool full = false;
};

inline Scale GetScale() {
  Scale s;
  const char* env = std::getenv("RUMOR_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "full") == 0) {
    s.tuples = 100000;
    s.warmup = 10000;
    s.max_queries = 100000;
    s.full = true;
  }
  return s;
}

// Batch size for the batched-dispatch column (RUMOR_BENCH_BATCH, default
// 256). The W1/W2 feeds alternate S/T strictly, so same-stream runs are
// length 1 and the column measures the batch API's fallback overhead; see
// bench_agg_batch for a workload where batching has runs to work with.
inline int64_t GetBatchSize() {
  const char* env = std::getenv("RUMOR_BENCH_BATCH");
  if (env != nullptr) {
    int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return 256;
}

inline void PrintHeader(const char* figure, const char* x_name,
                        const char* description) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# normalized values are relative to each system's first row "
              "(paper §5.2 methodology); rumor_batch uses "
              "PushSourceBatch(batch=%lld)\n",
              static_cast<long long>(GetBatchSize()));
  std::printf("%-12s %16s %16s %16s %12s %12s\n", x_name, "rumor_ev/s",
              "rumor_batch", "cayuga_ev/s", "rumor_norm", "cayuga_norm");
}

struct Row {
  int64_t x;
  double rumor = 0;
  double rumor_batch = 0;
  double cayuga = 0;
};

inline void PrintRows(const std::vector<Row>& rows) {
  double rumor_base = rows.empty() || rows[0].rumor == 0 ? 1 : rows[0].rumor;
  double cayuga_base =
      rows.empty() || rows[0].cayuga == 0 ? 1 : rows[0].cayuga;
  for (const Row& r : rows) {
    std::printf("%-12lld %16.0f %16.0f %16.0f %12.3f %12.3f\n",
                static_cast<long long>(r.x), r.rumor, r.rumor_batch, r.cayuga,
                r.rumor / rumor_base, r.cayuga / cayuga_base);
  }
}

// Builds matched W1 workloads (Cayuga + RUMOR) and measures both engines.
inline Row MeasureW1(const SyntheticParams& params, int64_t warmup) {
  Rng rng(params.seed);
  std::vector<W1Spec> specs = DrawW1Specs(params, rng);
  Schema schema = params.MakeSchema();

  std::vector<Query> queries;
  std::vector<CayugaAutomaton> automata;
  for (size_t i = 0; i < specs.size(); ++i) {
    std::string name = "Q" + std::to_string(i);
    queries.push_back(MakeW1Query(name, specs[i], schema));
    automata.push_back(MakeW1Automaton(name, specs[i], schema));
  }
  Rng feed_rng(params.seed ^ 0xfeed);
  std::vector<Event> events =
      GenerateInterleaved(params, params.num_tuples, 0, feed_rng);

  RumorRun rumor = RunRumor(queries, OptimizerOptions{}, events, warmup);
  RumorRun batched = RunRumorBatched(queries, OptimizerOptions{}, events,
                                     warmup, GetBatchSize());
  CayugaRun cayuga =
      RunCayuga(automata, CayugaEngine::Options{}, events, warmup);
  return Row{0, rumor.result.EventsPerSecond(),
             batched.result.EventsPerSecond(),
             cayuga.result.EventsPerSecond()};
}

// Matched W2 workloads (`iterate` selects the µ variant of Fig. 10b).
inline Row MeasureW2(const SyntheticParams& params, bool iterate,
                     int64_t warmup) {
  Rng rng(params.seed);
  std::vector<W2Spec> specs = DrawW2Specs(params, iterate, rng);
  Schema schema = params.MakeSchema();

  std::vector<Query> queries;
  std::vector<CayugaAutomaton> automata;
  for (size_t i = 0; i < specs.size(); ++i) {
    std::string name = "Q" + std::to_string(i);
    queries.push_back(MakeW2Query(name, specs[i], schema));
    automata.push_back(MakeW2Automaton(name, specs[i], schema));
  }
  Rng feed_rng(params.seed ^ 0xfeed);
  std::vector<Event> events =
      GenerateInterleaved(params, params.num_tuples, 0, feed_rng);

  RumorRun rumor = RunRumor(queries, OptimizerOptions{}, events, warmup);
  RumorRun batched = RunRumorBatched(queries, OptimizerOptions{}, events,
                                     warmup, GetBatchSize());
  CayugaRun cayuga =
      RunCayuga(automata, CayugaEngine::Options{}, events, warmup);
  return Row{0, rumor.result.EventsPerSecond(),
             batched.result.EventsPerSecond(),
             cayuga.result.EventsPerSecond()};
}

}  // namespace bench
}  // namespace rumor

#endif  // RUMOR_BENCH_FIGURE_COMMON_H_
