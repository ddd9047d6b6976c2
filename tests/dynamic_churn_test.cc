// Churn equivalence fuzz (acceptance criterion of the dynamic-MQO work):
// after a random interleaving of AddQuery / RemoveQuery / Push, the churned
// engine must behave exactly like a fresh engine started with the surviving
// query set. Window state depends on history a late-added query may not have
// seen, so the comparison is made after a window-clearing timestamp gap: both
// engines then observe identical in-window histories, and their per-query
// output sequences over a shared evaluation stream must match byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "common/hash.h"
#include "common/rng.h"

namespace rumor {
namespace {

// All windows <= kMaxWindow so a gap of kMaxWindow+1 clears every state.
constexpr int64_t kMaxWindow = 32;

Schema CpuSchema() {
  return Schema({{"pid", ValueType::kInt}, {"load", ValueType::kInt}});
}

// A small pool of query shapes exercising CSE, sσ, sα (incl. attach paths)
// and multi-aggregate zips.
std::string MakeRql(Rng& rng) {
  switch (rng.UniformInt(0, 6)) {
    case 0:
      return "SELECT * FROM CPU WHERE pid = " +
             std::to_string(rng.UniformInt(0, 3));
    case 1:
      return "SELECT * FROM CPU WHERE load > " +
             std::to_string(rng.UniformInt(10, 90));
    case 2:
      return "SELECT pid, AVG(load) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) +
             "] GROUP BY pid";
    case 3:
      return "SELECT pid, MIN(load) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) +
             "] GROUP BY pid";
    case 4:
      return "SELECT COUNT(*) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) + "]";
    case 5:
      return "SELECT pid, SUM(load), MAX(load) FROM CPU [RANGE " +
             std::to_string(rng.UniformInt(4, kMaxWindow)) +
             "] GROUP BY pid";
    default:
      return "SELECT * FROM CPU";
  }
}

using Outputs = std::map<std::string, std::vector<std::string>>;

// The full churn fuzz, parameterized by shard count. With shard_count > 1
// the churned engine runs partition-parallel and every AddQuery/RemoveQuery
// exercises the quiesce-merge-resume path on live workers; the reference
// stays single-threaded. Per-tuple pushes are one-tuple epochs, so the
// ordered merge reproduces the single-threaded output sequence exactly and
// the byte-for-byte comparison below is still valid.
void RunRandomChurn(int shard_count) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    StreamEngine churned;
    ASSERT_TRUE(churned.RegisterSource("CPU", CpuSchema()).ok());
    ASSERT_TRUE(churned.SetShardCount(shard_count).ok());

    int name_counter = 0;
    std::vector<std::pair<std::string, std::string>> active;  // name -> rql
    auto fresh_query = [&] {
      std::string name = "q" + std::to_string(name_counter++);
      std::string rql = MakeRql(rng);
      active.push_back({name, rql});
      return std::pair<std::string, std::string>{name, rql};
    };
    for (int i = 0; i < 2; ++i) {
      auto [name, rql] = fresh_query();
      ASSERT_TRUE(churned.AddQueryText(rql, name).ok());
    }
    ASSERT_TRUE(churned.Start().ok());

    // Random interleaving of pushes, adds, and removes.
    int64_t ts = 0;
    for (int step = 0; step < 60; ++step) {
      int64_t r = rng.UniformInt(0, 9);
      if (r < 6) {
        int n = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) {
          ASSERT_TRUE(churned
                          .Push("CPU", Tuple::MakeInts(
                                           {rng.UniformInt(0, 3),
                                            rng.UniformInt(0, 100)},
                                           ++ts))
                          .ok());
        }
      } else if (r < 8 || active.size() <= 1) {
        auto [name, rql] = fresh_query();
        ASSERT_TRUE(churned.AddQueryText(rql, name).ok()) << rql;
      } else {
        size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
        ASSERT_TRUE(churned.RemoveQuery(active[victim].first).ok());
        active.erase(active.begin() + victim);
      }
    }

    // Reference: a fresh engine over exactly the surviving query set.
    StreamEngine reference;
    ASSERT_TRUE(reference.RegisterSource("CPU", CpuSchema()).ok());
    for (const auto& [name, rql] : active) {
      ASSERT_TRUE(reference.AddQueryText(rql, name).ok());
    }
    ASSERT_TRUE(reference.Start().ok());

    // Window-clearing gap, then a shared evaluation stream into both.
    ts += kMaxWindow + 1;
    Outputs churned_rows, reference_rows;
    bool record = false;
    churned.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      if (record) {
        churned_rows[q].push_back(t.ToString() + "@" + std::to_string(t.ts()));
      }
    });
    reference.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      if (record) {
        reference_rows[q].push_back(t.ToString() + "@" +
                                    std::to_string(t.ts()));
      }
    });
    // The gap tuple itself flushes pre-churn state out of every window; both
    // engines see it, so both hold identical state when recording starts.
    Tuple gap = Tuple::MakeInts({0, 50}, ts);
    ASSERT_TRUE(churned.Push("CPU", gap).ok());
    ASSERT_TRUE(reference.Push("CPU", gap).ok());
    churned.Flush();  // gap outputs must land before recording starts
    record = true;
    for (int i = 0; i < 40; ++i) {
      Tuple t = Tuple::MakeInts(
          {rng.UniformInt(0, 3), rng.UniformInt(0, 100)}, ++ts);
      ASSERT_TRUE(churned.Push("CPU", t).ok());
      ASSERT_TRUE(reference.Push("CPU", t).ok());
    }
    churned.Flush();

    ASSERT_FALSE(active.empty());
    for (const auto& [name, rql] : active) {
      EXPECT_EQ(churned_rows[name], reference_rows[name])
          << "seed " << seed << " shards " << shard_count << " query " << name
          << ": " << rql;
    }
  }
}

TEST(DynamicChurnTest, RandomChurnMatchesFreshEngine) { RunRandomChurn(1); }

TEST(DynamicChurnTest, ChurnWhileShardedMatchesFreshEngine) {
  RunRandomChurn(3);
}

// Chained hash, per seed, of Explain() after every step of the seeded
// add/remove/push interleaving below, followed by every query's output rows
// (queries in name order, rows in delivery order). Recorded with the
// scan-based merge (MergeNewQuery, which rediscovered share points by
// scanning every live m-op on each add) the index-driven merge replaced;
// the two engines agreed on every step's plan and on every output row.
// Regenerate only for a deliberate change of the merge's target choices or
// of the Explain/row formats.
constexpr uint64_t kScanOracleDigests[] = {
    0x7b24bbd1627becd4ull, 0x7df9d553eb559098ull, 0xefb2b6f233f4c7b3ull,
    0x2e8faeb8ab7667b8ull, 0xa11e1a403c1eac38ull, 0x6e8f6bac2d0a8420ull,
};

// The indexed merge path against the pinned scan-merge verdict: merging
// through the index must be invisible, down to byte-equal plans after every
// step and byte-equal result sequences from the first tuple on.
TEST(DynamicChurnTest, IndexedMergingMatchesScanOracle) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
    StreamEngine engine;
    Outputs rows;
    ASSERT_TRUE(engine.RegisterSource("CPU", CpuSchema()).ok());
    engine.SetOutputHandler([&](const std::string& q, const Tuple& t) {
      rows[q].push_back(t.ToString() + "@" + std::to_string(t.ts()));
    });

    int name_counter = 0;
    std::vector<std::string> active;
    for (int i = 0; i < 2; ++i) {
      std::string name = "q" + std::to_string(name_counter++);
      active.push_back(name);
      ASSERT_TRUE(engine.AddQueryText(MakeRql(rng), name).ok());
    }
    ASSERT_TRUE(engine.Start().ok());
    ASSERT_NE(engine.share_index_for_testing(), nullptr);

    int64_t ts = 0;
    uint64_t digest = 0;
    for (int step = 0; step < 80; ++step) {
      int64_t r = rng.UniformInt(0, 9);
      if (r < 6) {
        int n = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) {
          Tuple t = Tuple::MakeInts(
              {rng.UniformInt(0, 3), rng.UniformInt(0, 100)}, ++ts);
          ASSERT_TRUE(engine.Push("CPU", t).ok());
        }
      } else if (r < 8 || active.size() <= 1) {
        std::string name = "q" + std::to_string(name_counter++);
        std::string rql = MakeRql(rng);
        active.push_back(name);
        ASSERT_TRUE(engine.AddQueryText(rql, name).ok()) << rql;
      } else {
        size_t victim = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
        ASSERT_TRUE(engine.RemoveQuery(active[victim]).ok());
        active.erase(active.begin() + victim);
      }
      digest = HashCombine(digest, HashBytes(engine.Explain()));
    }
    for (const auto& [q, q_rows] : rows) {
      digest = HashCombine(digest, HashBytes(q));
      for (const std::string& row : q_rows) {
        digest = HashCombine(digest, HashBytes(row));
      }
    }
    EXPECT_EQ(digest, kScanOracleDigests[seed - 1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rumor
