// Seeded 16-thread stress of the sharded lock-free read structures: the
// semantic store's COW table cells and the stats registry's estimator
// cells. Writers harvest disjoint slabs (and fire feedback) across enough
// tables to land in every shard of the cell maps; readers hammer the
// zero-lock probe paths concurrently. Invariants checked after the dust
// settles:
//   - probe accounting balances exactly (hits + misses == probes);
//   - no slab is lost: every Store call is a view, every unique row is
//     pooled, every region stored is covered;
//   - eviction (Clear) under way never corrupts a later quiescent state.
// Run under the TSan preset, this is the data-race canary for the whole
// snapshot-publication protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "semstore/semantic_store.h"
#include "stats/estimator.h"

namespace payless::semstore {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

constexpr int64_t kWeak = std::numeric_limits<int64_t>::min();
constexpr int kNumTables = 64;   // spread across all cell-map shards
constexpr int kNumThreads = 16;  // half writers, half readers
constexpr int64_t kKeys = 256;   // K domain; each slab covers 4 keys

/// Deterministic per-thread sequence (splitmix64): the schedule is seeded,
/// only the interleaving varies run to run.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class ShardStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
    for (int t = 0; t < kNumTables; ++t) {
      TableDef def;
      def.name = TableName(t);
      def.dataset = "D";
      def.columns = {
          ColumnDef::Free("K", ValueType::kInt64,
                          AttrDomain::Numeric(1, kKeys)),
          ColumnDef::Free("D", ValueType::kInt64, AttrDomain::Numeric(1, 8)),
          ColumnDef::Output("V", ValueType::kDouble)};
      def.cardinality = kKeys * 8;
      ASSERT_TRUE(cat_.RegisterTable(def).ok());
    }
  }

  static std::string TableName(int t) {
    return "T" + std::to_string(t);
  }

  const TableDef& def(int t) const { return *cat_.FindTable(TableName(t)); }

  /// Slab s of a table: keys [s*4+1, s*4+4], all dates. 64 disjoint slabs.
  static Box SlabRegion(int64_t s) {
    return Box({Interval(s * 4 + 1, s * 4 + 4), Interval(1, 8)});
  }

  static std::vector<Row> SlabRows(int64_t s) {
    std::vector<Row> rows;
    for (int64_t k = s * 4 + 1; k <= s * 4 + 4; ++k) {
      for (int64_t d = 1; d <= 8; ++d) {
        rows.push_back(
            Row{Value(k), Value(d), Value(static_cast<double>(k * 10 + d))});
      }
    }
    return rows;
  }

  catalog::Catalog cat_;
  SemanticStore store_;
};

TEST_F(ShardStressTest, ConcurrentStoreAndProbeAcrossShards) {
  constexpr int kSlabsPerTable = 16;  // 64 keys' worth per table
  std::atomic<int64_t> stores{0};

  std::vector<std::thread> threads;
  threads.reserve(kNumThreads);
  for (int w = 0; w < kNumThreads / 2; ++w) {
    threads.emplace_back([&, w] {
      // Writer w harvests slab s into every table where s % writers == w:
      // all writers touch all shards, no slab is stored twice.
      for (int t = 0; t < kNumTables; ++t) {
        for (int64_t s = w; s < kSlabsPerTable; s += kNumThreads / 2) {
          store_.Store(def(t), SlabRegion(s), SlabRows(s), /*epoch=*/s);
          stores.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < kNumThreads / 2; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0x5eed0000 + static_cast<uint64_t>(r);
      for (int i = 0; i < 2000; ++i) {
        rng = Mix(rng);
        const int t = static_cast<int>(rng % kNumTables);
        const int64_t s = static_cast<int64_t>((rng >> 8) % kSlabsPerTable);
        // Mixed probe kinds on the lock-free paths; results depend on the
        // interleaving, only the accounting identity is asserted later.
        if (i % 2 == 0) {
          (void)store_.Covers(def(t), SlabRegion(s), kWeak);
        } else {
          const SemanticStore::TableSnapshot pinned =
              store_.Pin(TableName(t));
          const std::vector<const Row*> rows =
              pinned.RowsInRegion(def(t), SlabRegion(s), kWeak);
          // A slab is all-or-nothing: stores are atomic snapshot swaps.
          EXPECT_TRUE(rows.empty() || rows.size() == 32u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Probe accounting balances exactly.
  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());

  // No lost slabs: every Store surfaced as a view, every unique row pooled,
  // every region covered.
  EXPECT_EQ(stores.load(), kNumTables * kSlabsPerTable);
  EXPECT_EQ(store_.TotalViews(),
            static_cast<size_t>(kNumTables * kSlabsPerTable));
  EXPECT_EQ(store_.TotalStoredRows(),
            static_cast<size_t>(kNumTables * kSlabsPerTable * 32));
  for (int t = 0; t < kNumTables; ++t) {
    EXPECT_EQ(store_.NumViews(TableName(t)),
              static_cast<size_t>(kSlabsPerTable));
    for (int64_t s = 0; s < kSlabsPerTable; ++s) {
      EXPECT_TRUE(store_.Covers(def(t), SlabRegion(s), kWeak));
      EXPECT_EQ(store_.Pin(TableName(t))
                    .RowsInRegion(def(t), SlabRegion(s), kWeak)
                    .size(),
                32u);
    }
  }
}

TEST_F(ShardStressTest, DuplicateHarvestsPoolOnce) {
  // Every writer stores the SAME slabs: views accumulate (append-only) but
  // the deduplicated row pool must not — regardless of interleaving.
  std::vector<std::thread> threads;
  for (int w = 0; w < kNumThreads; ++w) {
    threads.emplace_back([&] {
      for (int t = 0; t < 8; ++t) {
        for (int64_t s = 0; s < 4; ++s) {
          store_.Store(def(t), SlabRegion(s), SlabRows(s), /*epoch=*/0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(store_.TotalViews(), static_cast<size_t>(kNumThreads * 8 * 4));
  // Views are append-only (raw rows accumulate); the deduplicated pool
  // must hold each tuple exactly once.
  size_t pooled = 0;
  for (const StoreTableStats& stats : store_.SnapshotStats()) {
    pooled += stats.pooled_rows;
  }
  EXPECT_EQ(pooled, static_cast<size_t>(8 * 4 * 32));
  for (int t = 0; t < 8; ++t) {
    for (int64_t s = 0; s < 4; ++s) {
      EXPECT_EQ(store_.Pin(TableName(t))
                    .RowsInRegion(def(t), SlabRegion(s), kWeak)
                    .size(),
                32u);
    }
  }
}

TEST_F(ShardStressTest, EvictionUnderConcurrentHarvest) {
  // Clear racing Store must neither crash, corrupt a snapshot, nor break
  // the accounting identity; afterwards a quiescent re-harvest fully
  // restores coverage.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kNumThreads - 1; ++w) {
    threads.emplace_back([&, w] {
      uint64_t rng = 0xc1ea7 + static_cast<uint64_t>(w);
      for (int i = 0; i < 400; ++i) {
        rng = Mix(rng);
        const int t = static_cast<int>(rng % kNumTables);
        const int64_t s = static_cast<int64_t>((rng >> 8) % 16);
        store_.Store(def(t), SlabRegion(s), SlabRows(s), /*epoch=*/0);
        (void)store_.Covers(def(t), SlabRegion(s), kWeak);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      store_.Clear();
      std::this_thread::yield();
    }
  });
  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());

  store_.Clear();
  EXPECT_EQ(store_.TotalViews(), 0u);
  for (int64_t s = 0; s < 16; ++s) {
    store_.Store(def(0), SlabRegion(s), SlabRows(s), /*epoch=*/0);
  }
  EXPECT_EQ(store_.NumViews(TableName(0)), 16u);
  EXPECT_EQ(store_.TotalStoredRows(), static_cast<size_t>(16 * 32));
  for (int64_t s = 0; s < 16; ++s) {
    EXPECT_TRUE(store_.Covers(def(0), SlabRegion(s), kWeak));
  }
}

TEST_F(ShardStressTest, PinnedRowPointersSurviveConcurrentStoreAndDrop) {
  // Rows read through a pinned snapshot are references into it: while the
  // snapshot is held they must stay valid and unchanged, however the table
  // is grown (Store appends into the pool's open chunk) or evicted
  // (DropTable) meanwhile. Readers re-pin and check as writers churn; under
  // ASan a dangling pointer and under TSan a write to a referenced row fail
  // the test.
  const Box all({Interval(1, kKeys), Interval(1, 8)});
  for (int64_t s = 0; s < 4; ++s) {
    store_.Store(def(0), SlabRegion(s), SlabRows(s), /*epoch=*/0);
  }
  const SemanticStore::TableSnapshot first = store_.Pin(TableName(0));
  const std::vector<const Row*> first_rows =
      first.RowsInRegion(def(0), all, kWeak);
  ASSERT_EQ(first_rows.size(), 4u * 32u);
  std::vector<Row> first_copy;
  for (const Row* row : first_rows) first_copy.push_back(*row);

  // A row of SlabRows is (K, D, K * 10 + D): self-checking.
  const auto intact = [](const Row& row) {
    return row.size() == 3 &&
           row[2] == Value(static_cast<double>(row[0].AsInt64() * 10 +
                                               row[1].AsInt64()));
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0xd209 + static_cast<uint64_t>(w);
      while (!stop.load(std::memory_order_acquire)) {
        rng = Mix(rng);
        const int64_t s = static_cast<int64_t>(rng % 64);
        if (w == 1 && rng % 4 == 0) {
          store_.DropTable(TableName(0));
        } else {
          store_.Store(def(0), SlabRegion(s), SlabRows(s), /*epoch=*/0);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  std::atomic<int64_t> checked{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 300; ++i) {
        const SemanticStore::TableSnapshot pinned = store_.Pin(TableName(0));
        const std::vector<const Row*> rows =
            pinned.RowsInRegion(def(0), all, kWeak);
        std::this_thread::yield();  // let writers publish past this pin
        for (const Row* row : rows) EXPECT_TRUE(intact(*row));
        checked.fetch_add(static_cast<int64_t>(rows.size()),
                          std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  // The first pin outlived every Store and DropTable above.
  for (size_t i = 0; i < first_rows.size(); ++i) {
    EXPECT_EQ(*first_rows[i], first_copy[i]) << "row " << i;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(checked.load(), 0);
  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());
}

TEST_F(ShardStressTest, ReadersSeeMonotonicRowsWhileRunsMerge) {
  // Writers harvest one-key slabs of 8 rows each, some twice, so every
  // Store posts a small run and the runs merge again and again; readers pin
  // and read fixed regions throughout. Every row a reader gets must lie in
  // its region and appear once, and with no drop a region's row count
  // never falls from one read to the next.
  const auto key_slab = [](int64_t k) {
    return Box({Interval::Point(k), Interval(1, 8)});
  };
  const auto key_rows = [](int64_t k) {
    std::vector<Row> rows;
    for (int64_t d = 1; d <= 8; ++d) {
      rows.push_back(
          Row{Value(k), Value(d), Value(static_cast<double>(k * 10 + d))});
    }
    return rows;
  };
  const std::vector<Box> regions = {
      Box({Interval(1, 64), Interval(1, 8)}),      // posted on K
      Box({Interval(1, kKeys), Interval(1, 8)}),   // the whole table
      Box({Interval(100, 140), Interval(3, 5)}),   // narrow on both
      Box({Interval(65, kKeys), Interval(8, 8)})}; // too wide on K
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      uint64_t rng = 0x5eed + static_cast<uint64_t>(w);
      for (int64_t i = 0; i < kKeys; ++i) {
        rng = Mix(rng);
        // Writer 0 walks keys upward, writer 1 downward: their calls meet
        // in the middle and then repeat each other's keys.
        const int64_t k = w == 0 ? i + 1 : kKeys - i;
        store_.Store(def(0), key_slab(k), key_rows(k),
                     static_cast<int64_t>(rng % 4));
        if (rng % 8 == 0) {  // an identical repeat of the same call
          store_.Store(def(0), key_slab(k), key_rows(k), 0);
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const int64_t min_epoch = r == 0 ? kWeak : 0;
      std::vector<size_t> last(regions.size(), 0);
      do {
        for (size_t q = 0; q < regions.size(); ++q) {
          const SemanticStore::TableSnapshot pinned = store_.Pin(TableName(0));
          const std::vector<const Row*> rows =
              pinned.RowsInRegion(def(0), regions[q], min_epoch);
          std::vector<int64_t> seen;
          seen.reserve(rows.size());
          for (const Row* row : rows) {
            const int64_t k = row->at(0).AsInt64();
            const int64_t d = row->at(1).AsInt64();
            EXPECT_TRUE(regions[q].Contains(std::vector<int64_t>{k, d}))
                << "row (" << k << ", " << d << ") outside region " << q;
            seen.push_back(k * 16 + d);
          }
          std::sort(seen.begin(), seen.end());
          EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
              << "a row came out twice in region " << q;
          EXPECT_GE(rows.size(), last[q]) << "region " << q << " shrank";
          last[q] = rows.size();
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      } while (writers_done.load(std::memory_order_acquire) < 2);
    });
  }
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  // Quiescent: each region holds exactly its distinct rows.
  const SemanticStore::TableSnapshot pinned = store_.Pin(TableName(0));
  EXPECT_EQ(pinned.RowsInRegion(def(0), regions[0], kWeak).size(), 64u * 8u);
  EXPECT_EQ(pinned.RowsInRegion(def(0), regions[1], kWeak).size(),
            static_cast<size_t>(kKeys) * 8u);
  EXPECT_EQ(pinned.RowsInRegion(def(0), regions[2], kWeak).size(), 41u * 3u);
  EXPECT_EQ(pinned.RowsInRegion(def(0), regions[3], kWeak).size(),
            static_cast<size_t>(kKeys - 64));
  EXPECT_EQ(store_.SnapshotStats()[0].pooled_rows,
            static_cast<size_t>(kKeys) * 8u);
}

TEST_F(ShardStressTest, ConcurrentFeedbackAndEstimates) {
  stats::StatsRegistry stats(stats::StatsKind::kFeedbackHistogram);
  for (int t = 0; t < kNumTables; ++t) stats.RegisterTable(def(t));

  std::atomic<int64_t> feedbacks{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kNumThreads / 2; ++w) {
    threads.emplace_back([&, w] {
      for (int t = 0; t < kNumTables; ++t) {
        for (int64_t s = w; s < 16; s += kNumThreads / 2) {
          stats.Feedback(TableName(t), SlabRegion(s), /*actual_rows=*/32);
          feedbacks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < kNumThreads / 2; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0xe571 + static_cast<uint64_t>(r);
      for (int i = 0; i < 4000; ++i) {
        rng = Mix(rng);
        const int t = static_cast<int>(rng % kNumTables);
        const int64_t s = static_cast<int64_t>((rng >> 8) % 16);
        const double est = stats.EstimateRows(TableName(t), SlabRegion(s));
        // Estimates from a half-warm histogram vary; they must never be
        // negative, NaN, or read torn state (TSan enforces the latter).
        EXPECT_GE(est, 0.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(static_cast<int64_t>(stats.TotalFeedbacks()), feedbacks.load());
  // Fully fed back: every slab's estimate is exact.
  for (int t = 0; t < kNumTables; ++t) {
    for (int64_t s = 0; s < 16; ++s) {
      EXPECT_NEAR(stats.EstimateRows(TableName(t), SlabRegion(s)), 32.0,
                  1e-9);
    }
  }
}

}  // namespace
}  // namespace payless::semstore
