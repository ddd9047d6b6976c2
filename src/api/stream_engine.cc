#include "api/stream_engine.h"

#include <unordered_map>

#include "common/json_writer.h"
#include "common/snapshot_io.h"
#include "common/str_util.h"
#include "plan/explain.h"
#include "plan/state_snapshot.h"
#include "rules/incremental.h"

namespace rumor {

namespace {
int64_t TickerNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// Routes output-stream tuples to the per-query handler. One stream may
// serve several (CSE-merged) queries; the handler sees them in no
// particular order. StreamIds are small and contiguous, so routes live in a
// dense StreamId-indexed table.
class StreamEngine::HandlerSink : public OutputSink {
 public:
  void Bind(StreamId stream, std::string query_name) {
    if (stream >= static_cast<StreamId>(routes_.size())) {
      routes_.resize(stream + 1);
    }
    // Routes point at the query's by_name_ node (node-stable), so the
    // per-output path never hashes the query name.
    Entry& entry = *by_name_.try_emplace(std::move(query_name)).first;
    std::vector<Entry*>& routes = routes_[stream];
    entry.second.stream = stream;
    entry.second.pos = static_cast<int>(routes.size());
    routes.push_back(&entry);
  }
  // Stops routing to `query_name` (RemoveQuery); delivered counts persist.
  // O(1): the stream's last route takes the removed one's place.
  void Unbind(const std::string& query_name) {
    auto it = by_name_.find(query_name);
    if (it == by_name_.end() || it->second.stream == kInvalidStream) return;
    QueryRoute& route = it->second;
    std::vector<Entry*>& routes = routes_[route.stream];
    RUMOR_CHECK(routes[route.pos] == &*it);
    routes[route.pos] = routes.back();
    routes[route.pos]->second.pos = route.pos;
    routes.pop_back();
    route.stream = kInvalidStream;
  }
  void SetHandler(const OutputHandler* handler) { handler_ = handler; }
  // Engine-owned running total of routed results (read by the ticker).
  void SetTotalCounter(std::atomic<int64_t>* total) { total_ = total; }
  // True while the output handler runs: the one window in which the
  // single-threaded engine API can be re-entered.
  bool in_handler() const { return handler_depth_ > 0; }

  void OnOutput(StreamId stream, const Tuple& tuple) override {
    if (stream < 0 || stream >= static_cast<StreamId>(routes_.size())) return;
    for (Entry* entry : routes_[stream]) {
      ++entry->second.delivered;
      RUMOR_METRIC(total_->fetch_add(1, std::memory_order_relaxed));
      if (handler_ != nullptr && *handler_) {
        ++handler_depth_;
        (*handler_)(entry->first, tuple);
        --handler_depth_;
      }
    }
  }

  int64_t CountFor(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? 0 : it->second.delivered;
  }

  // Restore: carry a query's delivered total across the checkpoint.
  void SeedCount(const std::string& name, int64_t delivered) {
    by_name_[name].delivered = delivered;
  }

 private:
  struct QueryRoute {
    int64_t delivered = 0;
    StreamId stream = kInvalidStream;  // kInvalidStream while unbound
    int pos = 0;                       // index in routes_[stream]
  };
  using Entry = std::pair<const std::string, QueryRoute>;
  std::vector<std::vector<Entry*>> routes_;  // by StreamId
  std::unordered_map<std::string, QueryRoute> by_name_;
  const OutputHandler* handler_ = nullptr;
  std::atomic<int64_t>* total_ = nullptr;  // set before any OnOutput
  int handler_depth_ = 0;
};

StreamEngine::StreamEngine(OptimizerOptions options)
    : options_(options) {}

StreamEngine::~StreamEngine() { StopMetricsTicker(); }

Status StreamEngine::RegisterSource(const std::string& name, Schema schema,
                                    int sharable_label) {
  if (catalog_.Resolve(name) != nullptr) {
    return Status::AlreadyExists(StrCat("source '", name, "' exists"));
  }
  sources_.push_back({name, schema, sharable_label});
  catalog_.AddSource(name, std::move(schema), sharable_label);
  return Status::OK();
}

Status StreamEngine::SetShardCount(int n) {
  if (n < 1) return Status::InvalidArgument("shard count must be >= 1");
  if (started()) {
    return Status::Internal("SetShardCount must be called before Start()");
  }
  shard_count_ = n;
  return Status::OK();
}

int StreamEngine::FindQuery(const std::string& name) const {
  // Case-insensitive, matching Catalog resolution — otherwise two queries
  // differing only in case would collide in the catalog, and removing one
  // would strip the other's entry.
  auto it = query_index_.find(ToLower(name));
  return it == query_index_.end() ? -1 : it->second;
}

Status StreamEngine::AddQuery(Query query) {
  return AddQueryWithText(std::move(query), "");
}

Status StreamEngine::AddQueryWithText(Query query, std::string text) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("query has no body");
  }
  RUMOR_RETURN_IF_ERROR(CheckPredicates(*query.root));
  if (FindQuery(query.name) >= 0) {
    return Status::AlreadyExists(
        StrCat("query '", query.name, "' already exists"));
  }
  if (started()) return AddQueryLive(std::move(query), std::move(text));
  AppendQuery(std::move(query), std::move(text));
  return Status::OK();
}

void StreamEngine::AppendQuery(Query query, std::string text) {
  catalog_.AddQuery(query);
  query_index_[ToLower(query.name)] = static_cast<int>(queries_.size());
  queries_.push_back(std::move(query));
  query_texts_.push_back(std::move(text));
}

void StreamEngine::CompactQueries() {
  size_t kept = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].root == nullptr) continue;  // tombstone
    if (kept != i) {
      queries_[kept] = std::move(queries_[i]);
      query_texts_[kept] = std::move(query_texts_[i]);
    }
    query_index_[ToLower(queries_[kept].name)] = static_cast<int>(kept);
    ++kept;
  }
  queries_.resize(kept);
  query_texts_.resize(kept);
}

Status StreamEngine::AddQueryText(const std::string& rql,
                                  const std::string& name) {
  auto parsed = ParseQuery(rql, catalog_);
  if (!parsed.ok()) return parsed.status();
  Query query = std::move(parsed).value();
  if (!name.empty()) query.name = name;
  return AddQueryWithText(std::move(query), rql);
}

Status StreamEngine::AddScript(const std::string& rql) {
  std::vector<std::string> texts;
  auto parsed = ParseScript(rql, catalog_, &texts);
  if (!parsed.ok()) return parsed.status();
  for (size_t i = 0; i < parsed.value().size(); ++i) {
    RUMOR_RETURN_IF_ERROR(
        AddQueryWithText(std::move(parsed.value()[i]), std::move(texts[i])));
  }
  return Status::OK();
}

Status StreamEngine::AddQueryLive(Query query, std::string text) {
  if (busy()) return Status::Internal("cannot add queries from inside a push");
  // Compile the new query standalone into every replica, rolling back every
  // half-lowered m-op/channel/stream if compilation fails midway, then merge
  // it incrementally onto warm shared operators with O(1) share-index probes
  // per fresh m-op. Sharded, this runs ON each worker thread (replicas stay
  // identical because the sequence is deterministic), so backfill tuples
  // land on the arena of the thread that owns them.
  IncrementalMergeStats merged;
  RUMOR_RETURN_IF_ERROR(
      OnReplicas([&](int shard, Plan& plan, Executor& exec) -> Status {
        Plan::Marker marker = plan.Mark();
        auto compiled = CompileQuery(query, &plan);
        if (!compiled.ok()) {
          plan.RollbackTo(marker);
          return compiled.status();
        }
        const IncrementalMergeStats stats = MergeNewQueryIndexed(
            &plan, share_indexes_[shard].get(), marker.num_mops, options_);
        if (shard == 0) merged = stats;
        exec.Refresh();  // validates the plan
        return Status::OK();
      }));
  stats_.dynamic_adds += 1;
  stats_.incremental_cse_merges += merged.cse_merges;
  stats_.incremental_attach_merges += merged.attach_merges;
  stats_.incremental_rule_merges += merged.rule_merges;
  // Sharing-quality fields of stats_ are NOT refreshed here: the refcount
  // walk is O(queries × plan) and this path is latency-critical (the
  // bench_dynamic_add bar). CollectMetrics() recomputes them on demand.

  auto out = ActivePlan().OutputStreamOf(query.name);
  RUMOR_CHECK(out.has_value());
  sink_->Bind(*out, query.name);
  RefreshSourceIds();
  AppendQuery(std::move(query), std::move(text));
  return Status::OK();
}

namespace {
// Unmarks `name`'s output and prunes what only that output kept alive.
PruneStats UnshareQuery(Plan* plan, const std::string& name) {
  const std::optional<StreamId> out = plan->OutputStreamOf(name);
  RUMOR_CHECK(out.has_value() && plan->UnmarkOutput(name));
  return PruneUnreachable(plan, *out);
}
}  // namespace

Status StreamEngine::RemoveQuery(const std::string& name) {
  auto entry = query_index_.find(ToLower(name));
  if (entry == query_index_.end()) {
    return Status::NotFound(StrCat("no query named '", name, "'"));
  }
  const int index = entry->second;
  // The lookup is case-insensitive; the plan and sink know the query by its
  // registered spelling.
  const std::string canonical = queries_[index].name;
  if (started()) {
    if (busy()) {
      return Status::Internal("cannot remove queries from inside a push");
    }
    // Cone-local unsharing: tear down exactly what no surviving query
    // reaches.
    PruneStats pruned;
    RUMOR_RETURN_IF_ERROR(
        OnReplicas([&](int shard, Plan& plan, Executor& exec) -> Status {
          const PruneStats stats = UnshareQuery(&plan, canonical);
          if (shard == 0) pruned = stats;
          // Keep the share index current (O(delta)) so a long removal run
          // cannot outgrow the plan's event log between adds.
          share_indexes_[shard]->Sync();
          exec.Refresh();  // validates the plan
          return Status::OK();
        }));
    sink_->Unbind(canonical);
    stats_.dynamic_removes += 1;
    stats_.pruned_mops += pruned.removed_mops;
    stats_.pruned_members +=
        pruned.pruned_index_members + pruned.deactivated_members;
    stats_.pruned_visited_mops += pruned.visited_mops;
  }
  // Leave a tombstone so no later index shifts; compacting once tombstones
  // outnumber live queries keeps removal amortized O(1) and preserves the
  // add order that Checkpoint writes.
  catalog_.Remove(canonical);
  query_index_.erase(entry);
  queries_[index] = Query{};
  query_texts_[index] = std::string();
  if (queries_.size() > 2 * query_index_.size()) CompactQueries();
  return Status::OK();
}

Status StreamEngine::Start() {
  if (started()) return Status::Internal("engine already started");
  if (num_queries() == 0) {
    return Status::InvalidArgument("no queries added");
  }
  CompactQueries();
  sink_ = std::make_unique<HandlerSink>();
  sink_->SetHandler(&handler_);
  sink_->SetTotalCounter(&outputs_total_);
  // Every replica, 1 or N, is built the same way: compile, index the plan's
  // share points, then run the optimizer over that index. Sharded,
  // each worker builds its own replica and index from the shared (read-only
  // here) query list; the build is deterministic, so replica ids line up
  // across shards. A failed compile rolls the replica back to empty: plan_
  // outlives a failed Start(), and a retry compiles into it again.
  share_indexes_.resize(shard_count_);
  PlanFactory build = [this](int shard, Plan* plan,
                             OptimizeStats* stats) -> Status {
    const Plan::Marker empty = plan->Mark();
    auto compiled = CompileQueries(queries_, plan);
    if (!compiled.ok()) {
      plan->RollbackTo(empty);
      return compiled.status();
    }
    share_indexes_[shard] = std::make_unique<ShareIndex>(plan);
    *stats = Optimize(plan, options_, share_indexes_[shard].get());
    return Status::OK();
  };
  Status built;
  if (shard_count_ > 1) {
    ShardedExecutor::Options sharded_options;
    sharded_options.num_shards = shard_count_;
    sharded_options.metrics = metrics_options_;
    sharded_ = std::make_unique<ShardedExecutor>(sharded_options,
                                                 std::move(build), sink_.get());
    built = sharded_->Prepare();
    if (built.ok()) {
      stats_ = sharded_->optimize_stats();
      replica0_ = &sharded_->plan(0);
    } else {
      sharded_.reset();
    }
  } else {
    built = build(0, &plan_, &stats_);
    if (built.ok()) {
      executor_ = std::make_unique<Executor>(&plan_, sink_.get());
      executor_->SetMetricsOptions(metrics_options_);
      executor_->Prepare();
    }
  }
  if (!built.ok()) {
    share_indexes_.clear();
    sink_.reset();
    return built;
  }
  for (const Plan::OutputDef& def : ActivePlan().outputs()) {
    sink_->Bind(def.stream, def.query_name);
  }
  RefreshSourceIds();
  return Status::OK();
}

Status StreamEngine::OnReplicas(
    const ShardedExecutor::ShardCommand& fn) const {
  if (sharded_ != nullptr) return sharded_->MutateShards(fn);
  RUMOR_CHECK(executor_ != nullptr) << "engine not started";
  // Const callers (Checkpoint, CollectMetrics) pass commands that only
  // read the plan, as they do through MutateShards.
  return fn(0, const_cast<Plan&>(plan_), *executor_);
}

bool StreamEngine::busy() const {
  return sink_ != nullptr && sink_->in_handler();
}

void StreamEngine::RefreshSourceIds() {
  const Plan& plan = ActivePlan();
  // The table is keyed on the source set only, and sources are never
  // removed — skip the O(streams) rescan unless a new source appeared
  // (most live adds read already-known sources).
  if (static_cast<int>(source_ids_.size()) == plan.streams().num_sources()) {
    return;
  }
  source_ids_.clear();
  for (StreamId s : plan.streams().Sources()) {
    source_ids_.push_back({plan.streams().Get(s).name, s});
  }
}

Result<StreamId> StreamEngine::FindSourceId(const std::string& source) const {
  if (!started()) return Status::Internal("call Start() first");
  for (const auto& [name, id] : source_ids_) {
    if (name == source) return id;
  }
  return Status::NotFound(
      StrCat("source '", source, "' is not read by any query"));
}

Status StreamEngine::Push(const std::string& source, const Tuple& tuple) {
  auto id = FindSourceId(source);
  if (!id.ok()) return id.status();
  if (sharded_ != nullptr) {
    if (busy()) {
      return Status::Internal(
          "re-entrant push from an output handler is unsupported when "
          "sharded");
    }
    sharded_->PushSource(id.value(), tuple);
  } else {
    executor_->PushSource(id.value(), tuple);
  }
  RUMOR_METRIC(push_calls_.fetch_add(1, std::memory_order_relaxed));
  RUMOR_METRIC(tuples_pushed_.fetch_add(1, std::memory_order_relaxed));
  return Status::OK();
}

Status StreamEngine::PushBatch(const std::string& source,
                               std::span<const Tuple> tuples) {
  auto id = FindSourceId(source);
  if (!id.ok()) return id.status();
  if (sharded_ != nullptr) {
    if (busy()) {
      return Status::Internal(
          "re-entrant push from an output handler is unsupported when "
          "sharded");
    }
    sharded_->PushSourceBatch(id.value(), tuples);
  } else {
    executor_->PushSourceBatch(id.value(), tuples);
  }
  RUMOR_METRIC(push_calls_.fetch_add(1, std::memory_order_relaxed));
  RUMOR_METRIC(tuples_pushed_.fetch_add(
      static_cast<int64_t>(tuples.size()), std::memory_order_relaxed));
  return Status::OK();
}

void StreamEngine::Flush() { Quiesce(); }

ShardedExecutor* StreamEngine::Quiesce() const {
  if (sharded_ == nullptr) return nullptr;
  sharded_->Flush();
  return sharded_.get();
}

// --- durability ---------------------------------------------------------------

Status StreamEngine::Checkpoint(std::string* out) const {
  if (!started()) {
    return Status::Internal("checkpoint requires a started engine");
  }
  if (busy()) return Status::Internal("cannot checkpoint from inside a push");
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].root != nullptr && query_texts_[i].empty()) {
      return Status::InvalidArgument(
          StrCat("query '", queries_[i].name,
                 "' was added as a logical object; checkpoint requires "
                 "queries added from RQL text (AddQueryText/AddScript)"));
    }
  }

  SnapshotBuilder builder;
  {
    SnapshotWriter w;
    w.U32(static_cast<uint32_t>(shard_count_));
    w.I64(push_calls_.load(std::memory_order_relaxed));
    w.I64(tuples_pushed_.load(std::memory_order_relaxed));
    w.I64(outputs_total_.load(std::memory_order_relaxed));
    builder.AddSection(SnapshotSection::kEngine, w.Take());
  }
  {
    SnapshotWriter w;
    w.U32(static_cast<uint32_t>(sources_.size()));
    for (const RegisteredSource& src : sources_) {
      w.Str(src.name);
      w.I64(src.sharable_label);
      w.U32(static_cast<uint32_t>(src.schema.size()));
      for (const Attribute& attr : src.schema.attributes()) {
        w.Str(attr.name);
        w.U8(static_cast<uint8_t>(attr.type));
      }
    }
    builder.AddSection(SnapshotSection::kSources, w.Take());
  }
  {
    SnapshotWriter w;
    w.U32(static_cast<uint32_t>(num_queries()));
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i].root == nullptr) continue;  // tombstone
      w.Str(queries_[i].name);
      w.Str(query_texts_[i]);
      w.I64(OutputCount(queries_[i].name));
    }
    builder.AddSection(SnapshotSection::kQueries, w.Take());
  }
  // One state section per replica, serialized on the replica's own thread
  // — the same synchronization AddQuery/RemoveQuery use, so checkpoints
  // interleave safely with query churn and pushes.
  std::vector<std::string> payloads(shard_count_);
  RUMOR_RETURN_IF_ERROR(
      OnReplicas([&](int shard, Plan& plan, Executor&) -> Status {
        auto payload = SavePlanState(plan);
        if (!payload.ok()) return payload.status();
        payloads[shard] = std::move(payload).value();
        return Status::OK();
      }));
  for (std::string& payload : payloads) {
    builder.AddSection(SnapshotSection::kState, std::move(payload));
  }
  *out = builder.Take();
  return Status::OK();
}

Status StreamEngine::CheckpointToFile(const std::string& path) const {
  std::string bytes;
  RUMOR_RETURN_IF_ERROR(Checkpoint(&bytes));
  return WriteFileBytes(path, bytes);
}

Status StreamEngine::Restore(std::string_view snapshot) {
  if (started()) {
    return Status::Internal("restore requires a not-yet-started engine");
  }
  if (num_queries() > 0 || !sources_.empty()) {
    return Status::Internal("restore requires an empty engine");
  }

  // Stage 1: decode and validate the whole snapshot before touching any
  // engine state — a corrupt snapshot must leave the engine fully usable.
  std::vector<SnapshotSectionView> sections;
  RUMOR_RETURN_IF_ERROR(ParseSnapshot(snapshot, &sections));
  const SnapshotSectionView* engine_section = nullptr;
  const SnapshotSectionView* sources_section = nullptr;
  const SnapshotSectionView* queries_section = nullptr;
  std::vector<std::string_view> state_sections;
  for (const SnapshotSectionView& s : sections) {
    switch (s.id) {
      case SnapshotSection::kEngine: engine_section = &s; break;
      case SnapshotSection::kSources: sources_section = &s; break;
      case SnapshotSection::kQueries: queries_section = &s; break;
      case SnapshotSection::kState: state_sections.push_back(s.payload);
        break;
    }
  }
  if (engine_section == nullptr || sources_section == nullptr ||
      queries_section == nullptr || state_sections.empty()) {
    return Status::InvalidArgument("snapshot is missing required sections");
  }

  uint32_t saved_shards = 0;
  int64_t saved_push_calls = 0, saved_tuples = 0, saved_outputs = 0;
  {
    SnapshotReader r(engine_section->payload);
    RUMOR_RETURN_IF_ERROR(r.U32(&saved_shards));
    RUMOR_RETURN_IF_ERROR(r.I64(&saved_push_calls));
    RUMOR_RETURN_IF_ERROR(r.I64(&saved_tuples));
    RUMOR_RETURN_IF_ERROR(r.I64(&saved_outputs));
  }
  if (saved_shards != state_sections.size()) {
    return Status::InvalidArgument(
        StrCat("snapshot declares ", saved_shards, " shards but carries ",
               state_sections.size(), " state sections"));
  }

  std::vector<RegisteredSource> sources;
  {
    SnapshotReader r(sources_section->payload);
    uint32_t n = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&n));
    for (uint32_t i = 0; i < n; ++i) {
      RegisteredSource src;
      RUMOR_RETURN_IF_ERROR(r.Str(&src.name));
      int64_t label = 0;
      RUMOR_RETURN_IF_ERROR(r.I64(&label));
      src.sharable_label = static_cast<int>(label);
      uint32_t attrs = 0;
      RUMOR_RETURN_IF_ERROR(r.U32(&attrs));
      std::vector<Attribute> attributes;
      for (uint32_t a = 0; a < attrs; ++a) {
        Attribute attr;
        RUMOR_RETURN_IF_ERROR(r.Str(&attr.name));
        uint8_t type = 0;
        RUMOR_RETURN_IF_ERROR(r.U8(&type));
        if (type > static_cast<uint8_t>(ValueType::kBool)) {
          return Status::InvalidArgument("unknown attribute type");
        }
        attr.type = static_cast<ValueType>(type);
        attributes.push_back(std::move(attr));
      }
      src.schema = Schema(std::move(attributes));
      sources.push_back(std::move(src));
    }
  }

  struct SavedQuery {
    std::string name;
    std::string text;
    int64_t delivered = 0;
  };
  std::vector<SavedQuery> saved_queries;
  {
    SnapshotReader r(queries_section->payload);
    uint32_t n = 0;
    RUMOR_RETURN_IF_ERROR(r.U32(&n));
    for (uint32_t i = 0; i < n; ++i) {
      SavedQuery q;
      RUMOR_RETURN_IF_ERROR(r.Str(&q.name));
      RUMOR_RETURN_IF_ERROR(r.Str(&q.text));
      RUMOR_RETURN_IF_ERROR(r.I64(&q.delivered));
      saved_queries.push_back(std::move(q));
    }
  }
  if (saved_queries.empty()) {
    return Status::InvalidArgument("snapshot contains no queries");
  }

  std::vector<std::vector<MopState>> shard_states(state_sections.size());
  for (size_t s = 0; s < state_sections.size(); ++s) {
    RUMOR_RETURN_IF_ERROR(
        ParsePlanState(state_sections[s], &shard_states[s]));
  }
  auto merged_or = MergeShardStates(std::move(shard_states));
  if (!merged_or.ok()) return merged_or.status();
  const std::vector<MopState> merged = std::move(merged_or).value();

  // Stage 2: rebuild the engine — sources, queries (added before Start, so
  // the batch optimizer builds the plan(s) on this engine's shard count),
  // then Start.
  for (RegisteredSource& src : sources) {
    RUMOR_RETURN_IF_ERROR(
        RegisterSource(src.name, std::move(src.schema), src.sharable_label));
  }
  for (const SavedQuery& q : saved_queries) {
    RUMOR_RETURN_IF_ERROR(AddQueryText(q.text, q.name));
  }
  RUMOR_RETURN_IF_ERROR(Start());

  // Stage 3: load the merged state image into the fresh replica(s). Every
  // shard replica receives the full image ("lazy shedding"): partitioned
  // routing only ever feeds a shard the keys it owns, so foreign-key state
  // sits inert and ages out of the windows.
  RUMOR_RETURN_IF_ERROR(OnReplicas([&](int, Plan& plan, Executor&) -> Status {
    return LoadPlanState(plan, merged);
  }));

  // Stage 4: carry the observable counters across the crash.
  push_calls_.store(saved_push_calls, std::memory_order_relaxed);
  tuples_pushed_.store(saved_tuples, std::memory_order_relaxed);
  outputs_total_.store(saved_outputs, std::memory_order_relaxed);
  for (const SavedQuery& q : saved_queries) {
    sink_->SeedCount(q.name, q.delivered);
  }
  return Status::OK();
}

Status StreamEngine::RestoreFromFile(const std::string& path) {
  std::string bytes;
  RUMOR_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  return Restore(bytes);
}

int64_t StreamEngine::OutputCount(const std::string& query_name) const {
  return sink_ == nullptr ? 0 : sink_->CountFor(query_name);
}

std::string StreamEngine::Explain() const {
  const ShardedExecutor* sharded = Quiesce();
  std::string out = ExplainPlan(ActivePlan());
  if (sharded != nullptr) out += sharded->sharding().ToString(ActivePlan());
  return out;
}

std::string StreamEngine::ExplainAnalyze() const {
  // Replicas carry identical structure; shard 0's counters stand in
  // (CollectMetrics aggregates across all shards).
  const EngineMetrics em = CollectMetrics();
  std::string out = rumor::ExplainAnalyze(ActivePlan());
  if (em.latency.count() > 0) {
    out += StrCat("latency (ingress->sink, sampled): ", em.latency.Summary(),
                  "\n");
  }
  if (em.share_index.present) {
    const EngineMetrics::ShareIndexStats& s = em.share_index;
    out += StrCat("share index: exact=", s.exact_entries,
                  " member=", s.member_entries,
                  " index_targets=", s.index_target_entries,
                  " sel_singles=", s.sel_single_entries,
                  " agg_targets=", s.agg_target_entries, " bytes≈",
                  s.approx_bytes, "\n");
  }
  return out;
}

EngineMetrics StreamEngine::CollectMetrics() const {
  // Per-replica readings, each taken on the replica's own thread. Before
  // Start the (empty) configuring plan stands in.
  struct Replica {
    const Plan* plan = nullptr;
    const Executor* exec = nullptr;
    DataPlaneCounters counters;
  };
  std::vector<Replica> replicas(
      1, Replica{&plan_, nullptr, DataPlaneCounters::Capture()});
  ShardedExecutor* sharded = Quiesce();
  if (started()) {
    replicas.resize(shard_count_);
    RUMOR_CHECK(
        OnReplicas([&](int shard, Plan& plan, Executor& exec) -> Status {
          replicas[shard] = {&plan, &exec, DataPlaneCounters::Capture()};
          return Status::OK();
        }).ok());
  }
  int64_t deliveries = 0;
  for (const Replica& r : replicas) {
    if (r.exec != nullptr) deliveries += r.exec->deliveries();
  }
  EngineMetrics em =
      CollectEngineMetrics(*replicas[0].plan, stats_, deliveries);
  DataPlaneCounters totals = replicas[0].counters;
  for (size_t s = 1; s < replicas.size(); ++s) {
    AccumulateShardPlan(&em, *replicas[s].plan);
    totals += replicas[s].counters;
  }
  if (replicas[0].exec != nullptr) {
    em.latency = replicas[0].exec->output_latency();
  }
  if (sharded != nullptr) {
    em.shards = sharded->num_shards();
    em.shard_rows = sharded->ShardRows();
    // End-to-end latency: push call to ordered-merge delivery, recorded on
    // the control thread, whose own counters (the merge decode) join the
    // workers'.
    em.latency = sharded->merge_latency();
    totals += DataPlaneCounters::Capture();
  }
  SetDataPlaneCounters(&em, totals);
  // Shard 0's share index stands in (replicas stay identical).
  if (!share_indexes_.empty()) {
    const ShareIndex::Stats s = share_indexes_[0]->GetStats();
    em.share_index.present = true;
    em.share_index.exact_entries = s.exact_entries;
    em.share_index.member_entries = s.member_entries;
    em.share_index.index_target_entries = s.index_target_entries;
    em.share_index.sel_single_entries = s.sel_single_entries;
    em.share_index.agg_target_entries = s.agg_target_entries;
    em.share_index.posting_entries = s.posting_entries;
    em.share_index.approx_bytes = s.approx_bytes;
  }
  // Only the engine knows live query names and delivered counts; a raw-plan
  // caller gets empty query_rows.
  em.queries = num_queries();
  for (const Query& q : queries_) {
    if (q.root == nullptr) continue;  // tombstone
    em.query_rows.push_back({q.name, OutputCount(q.name)});
  }
  return em;
}

void StreamEngine::SetMetricsOptions(const MetricsOptions& options) {
  metrics_options_ = options;
  if (executor_ != nullptr) executor_->SetMetricsOptions(options);
}

void StreamEngine::StartMetricsTicker(std::chrono::milliseconds interval,
                                      size_t history_capacity) {
  StopMetricsTicker();
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    history_cap_ = history_capacity == 0 ? 1 : history_capacity;
  }
  {
    // Under the mutex: the new thread reads ticker_stop_ under ticker_mu_,
    // and an unsynchronized reset here raced a concurrent StopMetricsTicker
    // (the stop flag could be overwritten after the stopper set it, leaving
    // the previous ticker unjoined and spinning at engine destruction).
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = false;
  }
  ticker_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    for (;;) {
      if (ticker_cv_.wait_for(lock, interval,
                              [this] { return ticker_stop_; })) {
        return;
      }
      MetricsTick tick;
      tick.t_ns = TickerNowNs();
      tick.push_calls = push_calls_.load(std::memory_order_relaxed);
      tick.tuples_pushed = tuples_pushed_.load(std::memory_order_relaxed);
      tick.outputs = outputs_total_.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> hist(history_mu_);
      history_.push_back(tick);
      while (history_.size() > history_cap_) history_.pop_front();
    }
  });
}

void StreamEngine::StopMetricsTicker() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

std::vector<StreamEngine::MetricsTick> StreamEngine::MetricsHistory() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return {history_.begin(), history_.end()};
}

std::string StreamEngine::MetricsHistoryJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("ticks").BeginArray();
  for (const MetricsTick& t : MetricsHistory()) {
    w.BeginObject()
        .KV("t_ns", t.t_ns)
        .KV("push_calls", t.push_calls)
        .KV("tuples_pushed", t.tuples_pushed)
        .KV("outputs", t.outputs)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace rumor
