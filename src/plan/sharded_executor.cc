#include "plan/sharded_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "common/failpoint.h"
#include "common/trace.h"
#include "common/tuple.h"
#include "plan/spsc_queue.h"

namespace rumor {

namespace {
// Output blocks are flushed to the merge at this many entries, bounding
// both block latency and the size of a decoded burst.
constexpr size_t kMaxBlockEntries = 256;

#if RUMOR_METRICS_ENABLED
int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
#endif
}  // namespace

// One routed batch travelling control -> worker. Data batches carry a run of
// same-stream tuples flattened into (ts, end-offset, values) arrays — entry
// i's values are values[offsets[i-1] .. offsets[i]) with offsets[-1] = 0.
// Command batches carry a borrowed pointer to the ShardCommand (valid until
// the matching cmds_done increment). Shells are preallocated and recycled
// through the in_free ring, so vectors keep their warmed capacity.
struct ShardedExecutor::InBatch {
  enum class Kind : uint8_t { kData, kCommand };
  Kind kind = Kind::kData;
  uint64_t epoch = 0;
  StreamId stream = kInvalidStream;
  std::vector<Timestamp> ts;
  std::vector<uint32_t> offsets;
  std::vector<Value> values;
  const ShardCommand* cmd = nullptr;

  void Clear() {
    ts.clear();
    offsets.clear();
    values.clear();
    cmd = nullptr;
  }
};

// One run of encoded outputs travelling worker -> control.
// Same flat layout as InBatch, plus a per-entry stream id (one block mixes
// output streams of different widths).
struct ShardedExecutor::OutBlock {
  uint64_t epoch = 0;
  std::vector<StreamId> streams;
  std::vector<Timestamp> ts;
  std::vector<uint32_t> offsets;
  std::vector<Value> values;

  void Clear() {
    streams.clear();
    ts.clear();
    offsets.clear();
    values.clear();
  }
};

struct ShardedExecutor::Shard {
  explicit Shard(const Options& o)
      : in(o.in_ring),
        in_free(o.in_ring),
        out(o.out_ring),
        out_free(o.out_ring) {}

  // Rings. `in`/`out_free` are produced by the control thread; `in_free`/
  // `out` by the worker. The total shell count of each ring pair equals the
  // ring capacity, so a push by whoever holds a shell can never fail.
  SpscQueue<InBatch*> in;
  SpscQueue<InBatch*> in_free;
  SpscQueue<OutBlock*> out;
  SpscQueue<OutBlock*> out_free;
  std::vector<std::unique_ptr<InBatch>> in_shells;
  std::vector<std::unique_ptr<OutBlock>> out_shells;

  // Worker -> control publications. The release store to `completed` (resp.
  // `cmds_done`, `ready`) is the fence making the plain fields below it
  // visible to a control-thread acquire load.
  alignas(64) std::atomic<uint64_t> completed{0};
  DataPlaneCounters counters;  // published by completed
  int64_t deliveries = 0;      // published by completed
  alignas(64) std::atomic<uint64_t> cmds_done{0};
  Status mutate_status;  // published by cmds_done
  alignas(64) std::atomic<int> ready{0};
  Status ready_status;          // published by ready
  OptimizeStats optimize_stats;  // published by ready

  // Worker-owned; control may read only while the shard is quiesced.
  std::unique_ptr<Plan> plan;
  std::unique_ptr<Executor> executor;

  // Control-thread-only state.
  uint64_t last_sent = 0;            // highest epoch routed to this shard
  InBatch* staging = nullptr;        // batch being filled for this shard
  std::vector<InBatch*> stash;       // local free shells
  std::deque<OutBlock*> pending;     // popped blocks not yet merge-ready
  int64_t in_stall_ns = 0;           // time spent in AcquireShell's slow loop
  uint64_t merge_lag_hwm = 0;        // max epochs completed ahead of merge

  std::thread thread;
};

// Worker-side OutputSink: encodes emissions into OutBlocks and ships full
// blocks to the control thread. Blocking on an empty out_free ring is the
// back-pressure path — the control thread recycles shells as it merges,
// including incrementally mid-epoch, so this wait always terminates.
class ShardedExecutor::BlockSink : public OutputSink {
 public:
  BlockSink(SpscQueue<OutBlock*>* out, SpscQueue<OutBlock*>* out_free)
      : out_(out), out_free_(out_free) {}

  void SetEpoch(uint64_t epoch) { epoch_ = epoch; }

  void OnOutput(StreamId stream, const Tuple& tuple) override {
    if (cur_ == nullptr) cur_ = Acquire();
    cur_->streams.push_back(stream);
    cur_->ts.push_back(tuple.ts());
    std::span<const Value> v = tuple.values();
    cur_->values.insert(cur_->values.end(), v.begin(), v.end());
    cur_->offsets.push_back(static_cast<uint32_t>(cur_->values.size()));
    if (cur_->streams.size() >= kMaxBlockEntries) FlushBlock();
  }

  // Ships the partial block (end of epoch).
  void FlushBlock() {
    if (cur_ == nullptr) return;
    if (cur_->streams.empty()) return;  // keep the shell for the next epoch
    cur_->epoch = epoch_;
    RUMOR_CHECK(out_->TryPush(cur_));  // shells == capacity: cannot fail
    cur_ = nullptr;
  }

 private:
  OutBlock* Acquire() {
    OutBlock* b = nullptr;
    while (!out_free_->TryPop(&b)) out_free_->WaitNotEmpty();
    b->Clear();
    return b;
  }

  SpscQueue<OutBlock*>* out_;
  SpscQueue<OutBlock*>* out_free_;
  OutBlock* cur_ = nullptr;
  uint64_t epoch_ = 0;
};

ShardedExecutor::ShardedExecutor(Options options, PlanFactory factory,
                                 OutputSink* sink)
    : options_(options), factory_(std::move(factory)), merge_sink_(sink) {
  RUMOR_CHECK(merge_sink_ != nullptr);
}

ShardedExecutor::~ShardedExecutor() { Stop(); }

Status ShardedExecutor::Prepare() {
  RUMOR_CHECK(!prepared_) << "Prepare called twice";
  RUMOR_CHECK_GE(options_.num_shards, 1);
  prepared_ = true;

  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_));
    Shard& sh = *shards_.back();
    for (size_t i = 0; i < sh.in.capacity(); ++i) {
      sh.in_shells.push_back(std::make_unique<InBatch>());
      sh.stash.push_back(sh.in_shells.back().get());
    }
    for (size_t i = 0; i < sh.out.capacity(); ++i) {
      sh.out_shells.push_back(std::make_unique<OutBlock>());
      RUMOR_CHECK(sh.out_free.TryPush(sh.out_shells.back().get()));
    }
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_[s]->thread = std::thread(&ShardedExecutor::WorkerMain, this, s);
  }

  Status result;
  for (const auto& shp : shards_) {
    int r = shp->ready.load(std::memory_order_acquire);
    while (r == 0) {
      shp->ready.wait(r, std::memory_order_acquire);
      r = shp->ready.load(std::memory_order_acquire);
    }
    if (result.ok() && !shp->ready_status.ok()) result = shp->ready_status;
  }
  if (!result.ok()) {
    Stop();
    return result;
  }
  RefreshSharding();
  return Status::OK();
}

void ShardedExecutor::WorkerMain(int s) {
  Shard& sh = *shards_[s];
  sh.plan = std::make_unique<Plan>();
  Status built = factory_(s, sh.plan.get(), &sh.optimize_stats);

  BlockSink block_sink(&sh.out, &sh.out_free);
  if (built.ok()) {
    sh.executor = std::make_unique<Executor>(sh.plan.get(), &block_sink);
    sh.executor->SetMetricsOptions(options_.metrics);
    sh.executor->Prepare();
  }
  sh.ready_status = built;
  sh.ready.store(1, std::memory_order_release);
  sh.ready.notify_all();
  if (!built.ok()) {
    sh.executor.reset();
    sh.plan.reset();
    return;
  }

  std::vector<Tuple> scratch;
  for (;;) {
    InBatch* b = nullptr;
    if (!sh.in.TryPop(&b)) {
      if (sh.in.closed()) {
        if (!sh.in.TryPop(&b)) break;  // closed and drained
      } else {
        sh.in.WaitNotEmpty();
        continue;
      }
    }
    if (b->kind == InBatch::Kind::kCommand) {
      sh.mutate_status = (*b->cmd)(s, *sh.plan, *sh.executor);
      b->Clear();
      RUMOR_CHECK(sh.in_free.TryPush(b));
      sh.cmds_done.fetch_add(1, std::memory_order_release);
      sh.cmds_done.notify_all();
      continue;
    }

    const uint64_t epoch = b->epoch;
    const StreamId stream = b->stream;
    // Rematerialize this shard's slice of the epoch on the worker's arena.
    scratch.clear();
    uint32_t start = 0;
    for (size_t i = 0; i < b->ts.size(); ++i) {
      const uint32_t end = b->offsets[i];
      scratch.push_back(
          Tuple::Make(b->values.data() + start, end - start, b->ts[i]));
      start = end;
    }
    block_sink.SetEpoch(epoch);
    sh.executor->PushSourceBatch(stream, scratch);
    scratch.clear();  // release the shells' arena tuples on this thread
    block_sink.FlushBlock();
    b->Clear();
    RUMOR_CHECK(sh.in_free.TryPush(b));
    // Publish the epoch: counters/deliveries first, then the release store
    // they ride on.
    sh.counters = DataPlaneCounters::Capture();
    sh.deliveries = sh.executor->deliveries();
    sh.completed.store(epoch, std::memory_order_release);
    sh.completed.notify_all();
  }

  // Replica state (windows, partial matches) holds tuples of this worker's
  // arena — tear it down here, never on the control thread.
  sh.executor.reset();
  sh.plan.reset();
}

ShardedExecutor::InBatch* ShardedExecutor::AcquireShell(Shard& sh) {
  if (!sh.stash.empty()) {
    InBatch* b = sh.stash.back();
    sh.stash.pop_back();
    return b;
  }
  InBatch* b = nullptr;
  // Failpoint: pretend the free ring was momentarily empty, forcing the
  // slow drain path below even when shells are available.
  if (!RUMOR_FAILPOINT("spsc/acquire-stall") && sh.in_free.TryPop(&b)) {
    return b;
  }
#if RUMOR_METRICS_ENABLED
  const int64_t t0 = MonotonicNs();
#endif
  // The worker may itself be waiting for the ordered merge to recycle
  // out-shells — never wait without draining.
  do {
    DrainDeliveries();
    std::this_thread::yield();
  } while (!sh.in_free.TryPop(&b));
#if RUMOR_METRICS_ENABLED
  sh.in_stall_ns += MonotonicNs() - t0;
#endif
  return b;
}

void ShardedExecutor::PushSource(StreamId stream, const Tuple& tuple) {
  PushSourceBatch(stream, std::span<const Tuple>(&tuple, 1));
}

void ShardedExecutor::PushSourceBatch(StreamId stream,
                                      std::span<const Tuple> tuples) {
  RUMOR_CHECK(prepared_ && !stopped_);
  RUMOR_CHECK(!delivering_)
      << "re-entrant push from an output handler is not supported when "
         "sharded";
  if (tuples.empty()) return;
  const StreamRoute route =
      static_cast<size_t>(stream) < sharding_.routes.size()
          ? sharding_.routes[stream]
          : StreamRoute{};
  if (static_cast<size_t>(stream) >= rr_.size()) rr_.resize(stream + 1, 0);

  // The epoch is published (next_epoch_ bumped) only once all of its
  // batches are in the rings: AcquireShell may drain the merge mid-routing,
  // and the cursor must not reach an epoch whose shards' last_sent does not
  // cover it yet — it would count those shards done and skip their outputs.
  const uint64_t epoch = next_epoch_;
#if RUMOR_METRICS_ENABLED
  // Stamp every Nth epoch; the ordered merge records the latency when its
  // cursor passes the stamped epoch.
  if (options_.metrics.sample_every_n > 0 && --latency_countdown_ <= 0) {
    latency_countdown_ = options_.metrics.sample_every_n;
    pending_latency_.emplace_back(epoch, MonotonicNs());
  }
#endif
  const int n = options_.num_shards;
  for (const Tuple& t : tuples) {
    const int s = ShardOfTuple(route, t.values(), &rr_[stream], n);
    Shard& sh = *shards_[s];
    InBatch* b = sh.staging;
    if (b == nullptr) {
      b = AcquireShell(sh);
      b->Clear();
      b->kind = InBatch::Kind::kData;
      b->epoch = epoch;
      b->stream = stream;
      sh.staging = b;
    }
    b->ts.push_back(t.ts());
    std::span<const Value> v = t.values();
    b->values.insert(b->values.end(), v.begin(), v.end());
    b->offsets.push_back(static_cast<uint32_t>(b->values.size()));
  }
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    if (sh.staging == nullptr) continue;
    RUMOR_CHECK(sh.in.TryPush(sh.staging));  // holder of a shell never fails
    sh.staging = nullptr;
    sh.last_sent = epoch;
  }
  next_epoch_ = epoch + 1;
  DrainDeliveries();
}

void ShardedExecutor::DrainDeliveries() {
  while (next_deliver_epoch_ < next_epoch_) {
    const uint64_t e = next_deliver_epoch_;
    Shard& sh = *shards_[deliver_shard_];
    // Observe completion BEFORE popping: `completed` is release-stored after
    // the epoch's last out-push, so seeing it done guarantees the pops below
    // see every block of the epoch.
    const uint64_t completed = sh.completed.load(std::memory_order_acquire);
#if RUMOR_METRICS_ENABLED
    // Merge lag: epochs this shard finished that the ordered merge has not
    // delivered yet (the merge is the bottleneck when this grows).
    if (completed >= next_deliver_epoch_) {
      const uint64_t lag = completed - (next_deliver_epoch_ - 1);
      if (lag > sh.merge_lag_hwm) sh.merge_lag_hwm = lag;
    }
#endif
    const bool done = completed >= std::min(e, sh.last_sent);
    OutBlock* popped = nullptr;
    while (sh.out.TryPop(&popped)) sh.pending.push_back(popped);
    // Deliver everything merge-ready — including blocks of a still-running
    // epoch (incremental delivery keeps recycling shells, so a worker parked
    // on out_free always gets unblocked by this loop).
    while (!sh.pending.empty() && sh.pending.front()->epoch <= e) {
      OutBlock* b = sh.pending.front();
      sh.pending.pop_front();
      DeliverBlock(*b);
      b->Clear();
      RUMOR_CHECK(sh.out_free.TryPush(b));
    }
    if (!done) return;  // cursor shard still mid-epoch; retry later
    if (++deliver_shard_ == options_.num_shards) {
      deliver_shard_ = 0;
      ++next_deliver_epoch_;
#if RUMOR_METRICS_ENABLED
      while (!pending_latency_.empty() &&
             pending_latency_.front().first < next_deliver_epoch_) {
        merge_latency_.Record(MonotonicNs() - pending_latency_.front().second);
        pending_latency_.pop_front();
      }
#endif
    }
  }
}

void ShardedExecutor::DeliverBlock(const OutBlock& block) {
  delivering_ = true;
  uint32_t start = 0;
  for (size_t i = 0; i < block.streams.size(); ++i) {
    const uint32_t end = block.offsets[i];
    // Decoded on the control thread's arena; released before the next row.
    const Tuple t =
        Tuple::Make(block.values.data() + start, end - start, block.ts[i]);
    merge_sink_->OnOutput(block.streams[i], t);
    start = end;
  }
  delivering_ = false;
}

void ShardedExecutor::Flush() {
  if (!prepared_ || stopped_ || shards_.empty()) return;
  RUMOR_TRACE_SPAN("ShardedExecutor::Flush");
  int idle_passes = 0;
  while (next_deliver_epoch_ < next_epoch_) {
    const uint64_t before = next_deliver_epoch_;
    const int shard_before = deliver_shard_;
    DrainDeliveries();
    if (next_deliver_epoch_ != before || deliver_shard_ != shard_before) {
      idle_passes = 0;
      continue;
    }
    // No cursor progress: the cursor shard is computing. Yield first (on an
    // oversubscribed machine that *is* how the worker runs), then back off
    // to a micro-sleep. A hard wait on `completed` would deadlock when the
    // worker is itself parked on out_free.
    if (++idle_passes < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

Status ShardedExecutor::MutateShards(const ShardCommand& fn) {
  RUMOR_TRACE_SPAN("ShardedExecutor::MutateShards");
  RUMOR_CHECK(prepared_ && !stopped_);
  RUMOR_CHECK(!delivering_) << "cannot mutate the plan from an output handler";
  Flush();
  const Plan& replica0 = *shards_[0]->plan;
  const uint64_t seq_before = replica0.mutation_seq();
  const int n = options_.num_shards;
  std::vector<uint64_t> target(n);
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    target[s] = sh.cmds_done.load(std::memory_order_relaxed) + 1;
    InBatch* b = AcquireShell(sh);
    b->Clear();
    b->kind = InBatch::Kind::kCommand;
    b->cmd = &fn;
    RUMOR_CHECK(sh.in.TryPush(b));
  }
  Status result;
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[s];
    uint64_t c = sh.cmds_done.load(std::memory_order_acquire);
    while (c < target[s]) {
      sh.cmds_done.wait(c, std::memory_order_acquire);
      c = sh.cmds_done.load(std::memory_order_acquire);
    }
    if (result.ok() && !sh.mutate_status.ok()) result = sh.mutate_status;
  }
  // A mutation may have added/removed streams and stateful operators.
  if (replica0.mutation_seq() != seq_before) RefreshSharding();
  return result;
}

void ShardedExecutor::Stop() {
  if (stopped_) return;
  if (!shards_.empty()) Flush();
  stopped_ = true;
  for (const auto& shp : shards_) shp->in.Close();
  for (const auto& shp : shards_) {
    if (shp->thread.joinable()) shp->thread.join();
  }
}

void ShardedExecutor::RefreshSharding() {
  sharding_ = AnalyzeSharding(*shards_[0]->plan, options_.num_shards);
  rr_.assign(sharding_.routes.size(), 0);
}

const Plan& ShardedExecutor::plan(int shard) const {
  return *shards_[shard]->plan;
}

int64_t ShardedExecutor::deliveries(int shard) const {
  return shards_[shard]->deliveries;
}

const OptimizeStats& ShardedExecutor::optimize_stats() const {
  return shards_[0]->optimize_stats;
}

std::vector<EngineMetrics::ShardRow> ShardedExecutor::ShardRows() {
  Flush();
  std::vector<EngineMetrics::ShardRow> rows;
  rows.reserve(shards_.size());
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& sh = *shards_[s];
    EngineMetrics::ShardRow row{s, sh.deliveries, sh.counters};
    row.in_depth_hwm = sh.in.depth_hwm();
    row.out_depth_hwm = sh.out.depth_hwm();
    row.push_stall_ns = sh.in_stall_ns;
    row.worker_stall_ns = sh.out_free.consumer_wait_ns();
    row.merge_lag_hwm = sh.merge_lag_hwm;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace rumor
