#include "semstore/semantic_store.h"

#include <gtest/gtest.h>

#include <limits>

namespace payless::semstore {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

constexpr int64_t kWeak = std::numeric_limits<int64_t>::min();

class SemStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
    TableDef def;
    def.name = "T";
    def.dataset = "D";
    def.columns = {
        ColumnDef::Free("c", ValueType::kString,
                        AttrDomain::Categorical({"x", "y"})),
        ColumnDef::Free("d", ValueType::kInt64, AttrDomain::Numeric(0, 99)),
        ColumnDef::Output("v", ValueType::kDouble)};
    def.cardinality = 0;
    ASSERT_TRUE(cat_.RegisterTable(def).ok());
  }

  const TableDef& def() const { return *cat_.FindTable("T"); }

  static Row MakeRow(const std::string& c, int64_t d, double v) {
    return Row{Value(c), Value(d), Value(v)};
  }

  static Box Region(int64_t c, int64_t dlo, int64_t dhi) {
    return Box({Interval::Point(c), Interval(dlo, dhi)});
  }

  catalog::Catalog cat_;
  SemanticStore store_;
};

TEST_F(SemStoreTest, RowPointEncodesConstrainableColumns) {
  const auto point = RowPoint(def(), MakeRow("y", 42, 1.5));
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(*point, (std::vector<int64_t>{1, 42}));
}

TEST_F(SemStoreTest, RowPointRejectsOutOfDomain) {
  EXPECT_FALSE(RowPoint(def(), MakeRow("z", 42, 1.5)).has_value());
  EXPECT_FALSE(RowPoint(def(), MakeRow("x", 500, 1.5)).has_value());
  EXPECT_FALSE(RowPoint(def(), {Value::Null(), Value(int64_t{1}),
                                Value(0.0)}).has_value());
}

TEST_F(SemStoreTest, StoreAndCoverSingleView) {
  store_.Store(def(), Region(0, 10, 20), {MakeRow("x", 15, 1.0)}, 0);
  EXPECT_EQ(store_.NumViews("T"), 1u);
  EXPECT_TRUE(store_.Covers(def(), Region(0, 12, 18), kWeak));
  EXPECT_FALSE(store_.Covers(def(), Region(0, 12, 25), kWeak));
  EXPECT_FALSE(store_.Covers(def(), Region(1, 12, 18), kWeak));
}

TEST_F(SemStoreTest, EmptyRegionNotStored) {
  store_.Store(def(), Box({Interval::Empty(), Interval(0, 5)}), {}, 0);
  EXPECT_EQ(store_.NumViews("T"), 0u);
}

TEST_F(SemStoreTest, CoverageMergesAdjacentRanges) {
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(0, 10, 19), {}, 0);
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Region(0, 0, 19));
}

TEST_F(SemStoreTest, CoverageMergesOverlappingRanges) {
  store_.Store(def(), Region(0, 0, 12), {}, 0);
  store_.Store(def(), Region(0, 8, 20), {}, 0);
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Region(0, 0, 20));
}

TEST_F(SemStoreTest, CoverageDropsContainedRegions) {
  store_.Store(def(), Region(0, 0, 50), {}, 0);
  store_.Store(def(), Region(0, 10, 20), {}, 0);
  EXPECT_EQ(store_.CoveredRegions("T", kWeak).size(), 1u);
}

TEST_F(SemStoreTest, CoverageKeepsDisjointRegionsSeparate) {
  // Gap on the numeric dimension: no merge possible.
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(0, 50, 60), {}, 0);
  EXPECT_EQ(store_.CoveredRegions("T", kWeak).size(), 2u);
}

TEST_F(SemStoreTest, CoverageMergesAdjacentCategoricalSlabs) {
  // Codes 0 and 1 are adjacent: the two same-range slabs merge. Coverage
  // boxes may legally span several categorical values — only CALLS cannot.
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(1, 0, 9), {}, 0);
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Box({Interval(0, 1), Interval(0, 9)}));
}

TEST_F(SemStoreTest, ChainOfMergesCollapsesToOne) {
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(0, 20, 29), {}, 0);
  store_.Store(def(), Region(0, 10, 19), {}, 0);  // bridges the gap
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Region(0, 0, 29));
}

TEST_F(SemStoreTest, RowsInRegionFiltersAndDedups) {
  store_.Store(def(), Region(0, 0, 20),
               {MakeRow("x", 5, 1.0), MakeRow("x", 15, 2.0)}, 0);
  store_.Store(def(), Region(0, 10, 30),
               {MakeRow("x", 15, 2.0), MakeRow("x", 25, 3.0)}, 0);
  const SemanticStore::TableSnapshot pinned = store_.Pin("T");
  const std::vector<const Row*> rows =
      pinned.RowsInRegion(def(), Region(0, 0, 99), kWeak);
  EXPECT_EQ(rows.size(), 3u);  // the duplicate (x,15) appears once
  const std::vector<const Row*> narrow =
      pinned.RowsInRegion(def(), Region(0, 10, 20), kWeak);
  ASSERT_EQ(narrow.size(), 1u);
  EXPECT_EQ((*narrow[0])[1], Value(int64_t{15}));
}

TEST_F(SemStoreTest, RowsInRegionUsesWidePathToo) {
  // A region wide on both dims exercises the linear pool scan.
  for (int64_t d = 0; d < 80; ++d) {
    store_.Store(def(), Region(d % 2, d, d), {MakeRow(d % 2 ? "y" : "x", d, 0.1)},
                 0);
  }
  const Box wide({Interval(0, 1), Interval(0, 99)});
  EXPECT_EQ(store_.Pin("T").RowsInRegion(def(), wide, kWeak).size(), 80u);
}

TEST_F(SemStoreTest, EpochFilteringForXWeekConsistency) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 5, 1.0)}, /*epoch=*/1);
  store_.Store(def(), Region(0, 10, 19), {MakeRow("x", 15, 2.0)},
               /*epoch=*/5);
  // min_epoch 3: only the newer view counts.
  EXPECT_FALSE(store_.Covers(def(), Region(0, 0, 9), 3));
  EXPECT_TRUE(store_.Covers(def(), Region(0, 10, 19), 3));
  const SemanticStore::TableSnapshot pinned = store_.Pin("T");
  EXPECT_EQ(pinned.RowsInRegion(def(), Region(0, 0, 19), 3).size(), 1u);
  EXPECT_EQ(pinned.RowsInRegion(def(), Region(0, 0, 19), 0).size(), 2u);
}

TEST_F(SemStoreTest, EpochPathPrefersNewestDuplicate) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 5, 1.0)}, 1);
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 5, 1.0)}, 2);
  EXPECT_EQ(store_.Pin("T").RowsInRegion(def(), Region(0, 0, 9), 0).size(),
            1u);
}

TEST_F(SemStoreTest, Counters) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 1, 0.0)}, 0);
  store_.Store(def(), Region(1, 0, 9), {MakeRow("y", 1, 0.0)}, 0);
  EXPECT_EQ(store_.TotalViews(), 2u);
  EXPECT_EQ(store_.TotalStoredRows(), 2u);
  store_.Clear();
  EXPECT_EQ(store_.TotalViews(), 0u);
  EXPECT_TRUE(store_.CoveredRegions("T", kWeak).empty());
  EXPECT_TRUE(
      store_.Pin("T").RowsInRegion(def(), Region(0, 0, 9), kWeak).empty());
}

TEST_F(SemStoreTest, CoversEmptyRegionTrivially) {
  EXPECT_TRUE(store_.Covers(def(), Box({Interval::Empty(), Interval(0, 1)}),
                            kWeak));
}

TEST_F(SemStoreTest, ViewsOfUnknownTableEmpty) {
  EXPECT_TRUE(store_.ViewsOf("Nope").empty());
  EXPECT_EQ(store_.NumViews("Nope"), 0u);
}

TEST_F(SemStoreTest, ProbeCountersClassifyEveryOutcome) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 1, 0.0)}, 0);

  EXPECT_TRUE(store_.Covers(def(), Region(0, 2, 8), kWeak));   // hit
  EXPECT_FALSE(store_.Covers(def(), Region(0, 2, 50), kWeak));  // miss
  EXPECT_FALSE(store_.Covers(def(), Region(1, 2, 8), kWeak));   // miss
  // Empty region: trivially covered, still one (hit) probe.
  EXPECT_TRUE(store_.Covers(def(), Box({Interval::Empty(), Interval(0, 1)}),
                            kWeak));
  // Rows lookups are probes too: hit iff rows came back.
  const SemanticStore::TableSnapshot pinned = store_.Pin("T");
  EXPECT_FALSE(pinned.RowsInRegion(def(), Region(0, 0, 9), kWeak).empty());
  EXPECT_TRUE(pinned.RowsInRegion(def(), Region(1, 0, 9), kWeak).empty());

  EXPECT_EQ(store_.TotalProbes(), 6);
  EXPECT_EQ(store_.TotalHits(), 3);
  EXPECT_EQ(store_.TotalMisses(), 3);
  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());
}

TEST_F(SemStoreTest, BoundMetricsMirrorProbeAndEvictionCounters) {
  obs::Counter hits, misses, evictions;
  store_.BindMetrics(&hits, &misses, &evictions);
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 1, 0.0)}, 0);
  store_.Store(def(), Region(1, 0, 9), {}, 0);

  EXPECT_TRUE(store_.Covers(def(), Region(0, 2, 8), kWeak));
  EXPECT_FALSE(store_.Covers(def(), Region(0, 50, 60), kWeak));
  EXPECT_EQ(hits.value(), 1);
  EXPECT_EQ(misses.value(), 1);
  EXPECT_EQ(evictions.value(), 0);

  // Clear() is the eviction point: one eviction per dropped view.
  store_.Clear();
  EXPECT_EQ(evictions.value(), 2);
  EXPECT_EQ(store_.TotalEvictions(), 2);
}

TEST_F(SemStoreTest, SnapshotStatsSummarizesCoverage) {
  store_.Store(def(), Region(0, 0, 49), {MakeRow("x", 1, 0.0)}, 3);
  store_.Store(def(), Region(1, 0, 99), {MakeRow("y", 2, 0.0)}, 5);
  EXPECT_TRUE(store_.Covers(def(), Region(0, 0, 9), kWeak));

  const std::vector<StoreTableStats> stats = store_.SnapshotStats();
  ASSERT_EQ(stats.size(), 1u);
  const StoreTableStats& t = stats[0];
  EXPECT_EQ(t.table, "T");
  EXPECT_EQ(t.views, 2);
  EXPECT_EQ(t.pooled_rows, 2);
  EXPECT_GT(t.approx_bytes, 0);
  EXPECT_EQ(t.min_epoch, 3);
  EXPECT_EQ(t.max_epoch, 5);
  EXPECT_EQ(t.probes, 1);
  EXPECT_EQ(t.hits, 1);
  // Domain is 2 categories x 100 values = 200 points; 50 + 100 covered.
  EXPECT_NEAR(t.covered_fraction, 150.0 / 200.0, 1e-9);

  const std::string json = store_.StatsJson();
  EXPECT_NE(json.find("\"tables\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"T\""), std::string::npos) << json;
  EXPECT_NE(json.find("covered_fraction"), std::string::npos) << json;
}

}  // namespace
}  // namespace payless::semstore
