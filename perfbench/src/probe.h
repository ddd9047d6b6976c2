// Measurement helpers of the benchmark: clocks, quantile summaries, process
// memory, the counting operator new, span tracking and output digests.
// Everything here observes the engine from outside, through its public API.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median and quartiles of a sample, with the same interpolation as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  int64_t n = 0;
  // Quartile distance as a share of the median (0 when the median is 0).
  double spread() const { return median != 0 ? (q3 - q1) / median : 0; }
};
Summary Summarize(std::vector<double> values);
// The q-quantile (0 < q < 1) of `values` by the same method.
double Quantile(std::vector<double> values, double q);
// Mean of the middle half of `values` (the lowest and highest quarter,
// rounded down, left out). Unlike the median it moves smoothly with the
// share of high and low values.
double InterquartileMean(std::vector<double> values);

// Resident set size of this process, and its high-water mark, in KiB.
int64_t RssKb();
int64_t PeakRssKb();
// Resets the high-water mark to the current RSS (Linux clear_refs "5").
// Returns false where the kernel does not support it.
bool ResetPeakRss();

// Heap allocations made through operator new by every thread while
// counting was on (alloc_count.cc; linked into this binary only). Counting
// starts off.
void SetAllocCounting(bool on);
int64_t AllocCount();

// Span recorder of the traced run. Each Begin/End pair is one call into a
// layer; spans nest on the calling thread, and a span's self time is its
// duration minus the time its child spans cover. Completed spans also go
// to rumor::Trace, so DumpChromeJson shows them in Perfetto.
class SpanTracker {
 public:
  struct Stat {
    const char* name;  // string literal
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void Begin(const char* name);
  void End();
  const std::vector<Stat>& stats() const { return stats_; }

 private:
  struct Open {
    int stat;
    int64_t start_ns;
    int64_t child_ns;
  };
  int StatIndex(const char* name);

  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Stat> stats_;
};

// Scoped span; free when the tracker is disabled.
class Span {
 public:
  Span(SpanTracker* tracker, const char* name)
      : tracker_(tracker->enabled() ? tracker : nullptr) {
    if (tracker_ != nullptr) tracker_->Begin(name);
  }
  ~Span() {
    if (tracker_ != nullptr) tracker_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracker* tracker_;
};

// Per-query output digests: a delivery count plus an order-sensitive hash.
// The hash chains per (query, group key) — the key is the integer in
// column 0 modulo `keys` — and folds order-insensitively across keys, so
// a sharded engine, which keeps per-key order but may interleave keys
// differently, must still match exactly. Queries are named q<id>; other
// names (the add/remove probes) only count toward total().
class DigestTable {
 public:
  explicit DigestTable(int keys) : keys_(keys) {}

  void Reserve(int64_t queries);
  void Add(const std::string& query, const rumor::Tuple& tuple) {
    ++total_;
    if (query.empty() || query[0] != 'q') return;
    int64_t id = 0;
    for (size_t i = 1; i < query.size(); ++i) id = id * 10 + (query[i] - '0');
    if (id >= static_cast<int64_t>(counts_.size())) Reserve(id + 1);
    ++counts_[id];
    int64_t key = 0;
    if (keys_ > 1) {
      key = tuple.at(0).AsInt() % keys_;
      if (key < 0) key += keys_;
    }
    uint64_t& chain = chains_[id * keys_ + key];
    chain = Mix(chain ^ tuple.ContentHash());
  }

  int64_t total() const { return total_; }
  int64_t queries() const { return static_cast<int64_t>(counts_.size()); }
  int64_t Count(int64_t id) const {
    return id < queries() ? counts_[id] : 0;
  }
  uint64_t Hash(int64_t id) const;

 private:
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb53fe1a85ec9ULL;
    x ^= x >> 33;
    return x + 0x9e3779b97f4a7c15ULL;
  }

  int keys_;
  int64_t total_ = 0;
  std::vector<int64_t> counts_;
  std::vector<uint64_t> chains_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
