#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/trace.h"

namespace perfbench {

namespace {

// Python's statistics.quantiles "exclusive" method for one cut point:
// position q * (n + 1) (1-based), clamped to [1, n - 1], interpolated.
double SortedQuantile(const std::vector<double>& v, double q) {
  const size_t n = v.size();
  if (n == 0) return 0;
  if (n == 1) return v[0];
  double pos = q * static_cast<double>(n + 1);
  size_t j = static_cast<size_t>(pos);
  j = std::clamp<size_t>(j, 1, n - 1);
  const double frac = pos - static_cast<double>(j);
  return v[j - 1] + frac * (v[j] - v[j - 1]);
}

double SortedMedian(const std::vector<double>& v) {
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Reads a "Key:   123 kB" line of /proc/self/status.
int64_t StatusKb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      kb = std::atoll(line + len + 1);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

Summary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  s.median = SortedMedian(values);
  s.q1 = SortedQuantile(values, 0.25);
  s.q3 = SortedQuantile(values, 0.75);
  return s;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, q);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

int64_t RssKb() { return StatusKb("VmRSS"); }
int64_t PeakRssKb() { return StatusKb("VmHWM"); }

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int SpanTracker::StatIndex(const char* name) {
  for (size_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].name == name || std::strcmp(stats_[i].name, name) == 0) {
      return static_cast<int>(i);
    }
  }
  stats_.push_back(Stat{name});
  return static_cast<int>(stats_.size()) - 1;
}

void SpanTracker::Begin(const char* name) {
  const int stat = StatIndex(name);
  stack_.push_back(Open{stat, NowNs(), 0});
}

void SpanTracker::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  Stat& s = stats_[open.stat];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  rumor::Trace::Record(s.name, open.start_ns, end);
}

void DigestTable::Reserve(int64_t queries) {
  if (queries <= static_cast<int64_t>(counts_.size())) return;
  counts_.resize(queries, 0);
  chains_.resize(queries * keys_, 0);
}

uint64_t DigestTable::Hash(int64_t id) const {
  if (id >= queries()) return 0;
  uint64_t h = 0;
  for (int k = 0; k < keys_; ++k) h ^= Mix(chains_[id * keys_ + k] + k);
  return h;
}

}  // namespace perfbench
