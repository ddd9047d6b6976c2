// StreamEngine — the one-stop public API of the library: register sources,
// add continuous queries (logical objects or RQL text), Start() to compile
// and rule-optimize the combined plan, then push tuples and receive per-
// query results through a callback.
//
//   StreamEngine engine;
//   engine.RegisterSource("CPU", Schema({{"pid", kInt}, {"load", kInt}}));
//   engine.AddScript(
//       "SMOOTHED: SELECT pid, AVG(load) FROM CPU [RANGE 60] GROUP BY pid;"
//       "HOT: SELECT * FROM SMOOTHED WHERE avg_load > 90;");
//   engine.SetOutputHandler([](const std::string& q, const Tuple& t) { ... });
//   engine.Start();
//   engine.Push("CPU", Tuple::MakeInts({1, 95}, 0));
//
// The query set is *dynamic*: AddQuery/AddQueryText/AddScript stay legal
// after Start() — the new query is compiled standalone and incrementally
// merged into the running shared plan (rules/incremental.h), snapping onto
// warm shared operators (predicate indexes, shared aggregation windows,
// CSE'd subtrees) without disturbing their state. RemoveQuery() tears down
// exactly the operators no surviving query reaches (reference-counted
// unsharing). A dynamically added query starts observing tuples from the
// moment it is added; where it shares a warm operator it additionally
// inherits that operator's in-window history (e.g. a backfilled shared
// aggregate), exactly as if it had been running all along.
#ifndef RUMOR_API_STREAM_ENGINE_H_
#define RUMOR_API_STREAM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "plan/compile.h"
#include "plan/engine_metrics.h"
#include "plan/executor.h"
#include "plan/sharded_executor.h"
#include "query/parser.h"
#include "rules/rule_engine.h"
#include "rules/share_index.h"

namespace rumor {

class StreamEngine {
 public:
  explicit StreamEngine(OptimizerOptions options = OptimizerOptions());
  ~StreamEngine();  // defined in the .cc (HandlerSink is incomplete here)

  // Engine lifecycle: configuring (before Start) or running (after).
  enum class State { kConfiguring, kRunning };
  State state() const {
    return started() ? State::kRunning : State::kConfiguring;
  }

  // Partition-parallel execution: run the shared plan on `n` worker threads
  // (plan/sharded_executor.h). n == 1 (the default) keeps the original
  // single-threaded executor — byte-identical behavior, zero new overhead.
  // With n > 1, Start() spawns one plan replica + worker per shard and
  // Push/PushBatch route tuples by the AnalyzeSharding table; the output
  // handler still runs on the pushing thread, with outputs merged in
  // epoch-major, shard-minor order (per-key order on partitioned routes is
  // exactly the single-threaded order). Must be called before Start().
  Status SetShardCount(int n);
  int shard_count() const { return shard_count_; }

  // --- setup ------------------------------------------------------------------
  // Registers an input stream; `sharable_label` marks base-case-2 sharable
  // sources (same non-negative label). Legal in both states (a query added
  // later may read a newly registered source).
  Status RegisterSource(const std::string& name, Schema schema,
                        int sharable_label = -1);
  // Adds a logical query (from QueryBuilder / the translator / ...). Query
  // names must be unique among live queries. After Start() the query is
  // merged into the running plan (see file comment); it is illegal to call
  // this from inside an output handler.
  Status AddQuery(Query query);
  // Parses and adds one RQL query; `name` overrides the statement name.
  Status AddQueryText(const std::string& rql, const std::string& name = "");
  // Parses a ';'-separated RQL script; later statements may reference
  // earlier ones by name. After Start() the statements are added one by
  // one; on a mid-script error the earlier statements stay added.
  Status AddScript(const std::string& rql);
  // Removes a query by name (either state). Running-plan removal unshares
  // reference-counted operators: m-ops still reached by surviving queries
  // stay warm and untouched, everything else is torn down and its channels
  // garbage-collected. Illegal from inside an output handler.
  Status RemoveQuery(const std::string& name);

  // Called for every query result: (query name, output tuple).
  using OutputHandler = std::function<void(const std::string&, const Tuple&)>;
  void SetOutputHandler(OutputHandler handler) {
    handler_ = std::move(handler);
  }

  // Compiles all queries into one plan, runs the m-rule optimizer, and
  // prepares execution. Queries may still be added/removed afterwards.
  Status Start();

  // --- runtime (after Start) -------------------------------------------------
  // Pushes one tuple into a source stream (timestamps non-decreasing).
  Status Push(const std::string& source, const Tuple& tuple);

  // Pushes a run of consecutive tuples of one source in a single call.
  // Every query receives the same results in the same order as per-tuple
  // Push calls — only the interleaving of the output handler *across
  // different queries* may differ within a batch — and the batch traverses
  // each operator of the shared plan once, amortizing dispatch overhead
  // (the executor falls back to per-tuple dispatch on plan shapes where
  // batching could reorder stateful work).
  Status PushBatch(const std::string& source, std::span<const Tuple> tuples);

  // Blocks until every pushed tuple is fully processed and every output
  // delivered to the handler. No-op in single-threaded mode, where Push
  // already returns only after full propagation.
  void Flush();

  // --- durability (checkpoint/restore) ---------------------------------------
  // Serializes the running engine into the versioned snapshot format
  // (common/snapshot_io.h): registered sources, the live query set (as RQL
  // text, in add order), engine counters, and the operator state of every
  // stateful m-op — window logs, aggregation accumulators, join buffers,
  // partial-match stores. Sharded engines quiesce and save one state
  // section per shard. Requires Start(); every live query must have been
  // added from RQL text (AddQueryText/AddScript — restore re-parses it), and
  // the call must not come from inside an output handler.
  Status Checkpoint(std::string* out) const;
  Status CheckpointToFile(const std::string& path) const;
  // Rebuilds this (fresh: not started, no queries added) engine from a
  // snapshot: re-registers the saved sources, re-adds the saved queries
  // before starting the engine — so the batch optimizer builds the restored
  // shared plan, which may be shaped differently from a plan grown by live
  // adds and removes — and loads the saved operator state into the
  // matching members (matched by structural fingerprint,
  // plan/fingerprint.h). The snapshot is fully validated before any engine
  // state is touched. The restored engine may run any shard count (call
  // SetShardCount first): a sharded checkpoint is merged into one logical
  // image and re-partitioned onto the new layout.
  Status Restore(std::string_view snapshot);
  Status RestoreFromFile(const std::string& path);

  // --- observability -----------------------------------------------------------
  bool started() const { return sink_ != nullptr; }
  int num_queries() const { return static_cast<int>(query_index_.size()); }
  // Cumulative: Start()-time merge counts plus the dynamic_* /
  // incremental_* fields maintained by live AddQuery/RemoveQuery.
  const OptimizeStats& optimize_stats() const { return stats_; }
  // Total results delivered per query name (persists across RemoveQuery).
  int64_t OutputCount(const std::string& query_name) const;
  // EXPLAIN-style plan report (includes runtime counters after pushes;
  // reflects the current plan of a running engine, including live merges).
  std::string Explain() const;
  // EXPLAIN ANALYZE: the plan annotated with live per-m-op metrics — query
  // reach, tuples in/out, selectivity, batches, sampled per-tuple cost.
  std::string ExplainAnalyze() const;
  // Full engine snapshot: sharing quality + optimizer history + per-m-op and
  // per-query counters + data-plane fast-path efficacy. Serialize with
  // ToString() / ToJson(). A sharded engine reads each replica on its
  // worker, so neither this nor ExplainAnalyze may be called from inside an
  // output handler there.
  EngineMetrics CollectMetrics() const;
  // Tunes metric collection (currently: eval-timing sample period). Cheap
  // counters are always on (unless compiled out via RUMOR_METRICS=OFF);
  // only the sampled wall-clocking is governed by this knob. Legal in both
  // states; applied to the executor at Start() if called before it.
  void SetMetricsOptions(const MetricsOptions& options);
  const MetricsOptions& metrics_options() const { return metrics_options_; }

  // --- metrics ticker (time series) ------------------------------------------
  // One sample of the engine's cheap throughput counters. Counters are
  // cumulative since Start(); rates are differences between ticks.
  struct MetricsTick {
    int64_t t_ns = 0;           // steady-clock sample time
    int64_t push_calls = 0;     // Push/PushBatch invocations
    int64_t tuples_pushed = 0;  // source tuples accepted
    int64_t outputs = 0;        // results delivered to the handler
  };
  // Starts a background sampler appending one MetricsTick per `interval`
  // into a bounded ring (oldest ticks drop past `history_capacity`). The
  // sampler reads only the engine's published atomic counters — it never
  // walks the plan, so it cannot race the data plane. Restarting replaces
  // the previous ticker; the destructor stops it. Counters are zero under
  // -DRUMOR_METRICS=OFF (the ticker itself still runs).
  void StartMetricsTicker(std::chrono::milliseconds interval,
                          size_t history_capacity = 512);
  void StopMetricsTicker();
  // Snapshot of the ring, oldest first.
  std::vector<MetricsTick> MetricsHistory() const;
  // The ring as a JSON time series: {"ticks": [{t_ns, push_calls, ...}]}.
  std::string MetricsHistoryJson() const;

  // --- testing hooks -----------------------------------------------------------
  // The live share-point index of shard 0's replica (nullptr before Start)
  // and, on one shard, the plan it indexes. The churn stress compares the
  // index against a from-scratch rebuild.
  const ShareIndex* share_index_for_testing() const {
    return share_indexes_.empty() ? nullptr : share_indexes_[0].get();
  }
  Plan* mutable_plan_for_testing() { return &plan_; }
  // The plan queries run against: shard 0's replica when sharded (read it
  // only between engine calls, while no push is in flight).
  const Plan& plan_for_testing() const { return ActivePlan(); }

 private:
  class HandlerSink;

  // Index of the live query named `name` in queries_, or -1.
  int FindQuery(const std::string& name) const;
  // Stream id of a registered source, or NotFound / not-started errors.
  Result<StreamId> FindSourceId(const std::string& source) const;
  // Shared implementation of the Add* methods; `text` is the query's RQL
  // source ("" for logical-object adds, which a checkpoint then rejects).
  Status AddQueryWithText(Query query, std::string text);
  // Compiles + incrementally merges a query into the running plan.
  Status AddQueryLive(Query query, std::string text);
  // Registers an accepted query at the end of queries_.
  void AppendQuery(Query query, std::string text);
  // Squeezes RemoveQuery's tombstones out of queries_, keeping add order.
  void CompactQueries();
  // Re-derives the source name -> stream id table from the plan.
  void RefreshSourceIds();
  // The plan queries run against: shard 0's replica when sharded (callers
  // must quiesce first), the engine-owned plan otherwise.
  const Plan& ActivePlan() const { return *replica0_; }
  // Runs `fn` once on every plan replica: inline on plan_/executor_ on one
  // shard (no rings), through ShardedExecutor::MutateShards — quiesced, ON
  // each worker thread — on N. Requires Start(); callers check busy() first
  // when `fn` mutates the plan.
  Status OnReplicas(const ShardedExecutor::ShardCommand& fn) const;
  // True while an output handler runs: plan mutations, checkpoints and
  // (sharded) re-entrant pushes are illegal in this window.
  bool busy() const;
  // Blocks until every pushed tuple's outputs are delivered. Returns the
  // sharded executor, for its ring rows, merge latency and routing table,
  // or nullptr on one shard.
  ShardedExecutor* Quiesce() const;

  OptimizerOptions options_;
  MetricsOptions metrics_options_;
  Catalog catalog_;
  // Queries in add order. A removed query leaves a tombstone (a Query
  // with no root) until CompactQueries runs; skip those when iterating.
  std::vector<Query> queries_;
  // RQL source of queries_[i] ("" when added as a logical object); restore
  // re-parses these, so Checkpoint requires them to be non-empty.
  std::vector<std::string> query_texts_;
  // Every RegisterSource call, in order (the catalog keeps no iterable
  // source list, and a source may be registered before any query reads it).
  struct RegisteredSource {
    std::string name;
    Schema schema;
    int sharable_label = -1;
  };
  std::vector<RegisteredSource> sources_;
  // Lowercase live query name -> index in queries_. O(1) FindQuery — a
  // linear rescan per Add/Remove was quadratic over large standing
  // populations.
  std::unordered_map<std::string, int> query_index_;
  OutputHandler handler_;

  // The single-threaded replica (unused when sharded; ShardedExecutor's
  // workers own those replicas).
  Plan plan_;
  // Shard 0's replica: plan_, or the first worker's when sharded.
  const Plan* replica0_ = &plan_;
  // Persistent share-point index per replica, built at Start() before the
  // optimizer runs (which it seeds) and kept in sync from the plan's
  // mutation log; every live AddQuery resolves its merges through it
  // (rules/share_index.h).
  std::vector<std::unique_ptr<ShareIndex>> share_indexes_;
  OptimizeStats stats_;
  std::unique_ptr<HandlerSink> sink_;
  std::unique_ptr<Executor> executor_;
  // Declared after sink_ so workers are joined (and all pending outputs
  // merged) before the sink they deliver into is destroyed.
  int shard_count_ = 1;
  std::unique_ptr<ShardedExecutor> sharded_;
  // Source name -> stream id (resolved at Start / refreshed on live adds).
  std::vector<std::pair<std::string, StreamId>> source_ids_;

  // Published throughput counters (relaxed atomics: written by the pushing
  // thread, read by the ticker). The sink bumps outputs_total_ per routed
  // result.
  std::atomic<int64_t> push_calls_{0};
  std::atomic<int64_t> tuples_pushed_{0};
  std::atomic<int64_t> outputs_total_{0};

  // Ticker thread + bounded tick ring.
  std::thread ticker_;
  std::mutex ticker_mu_;  // guards ticker_stop_ (cv wait)
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  mutable std::mutex history_mu_;
  std::deque<MetricsTick> history_;
  size_t history_cap_ = 512;
};

}  // namespace rumor

#endif  // RUMOR_API_STREAM_ENGINE_H_
