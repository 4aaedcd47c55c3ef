#include "stats/estimator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "common/rng.h"

namespace payless::stats {
namespace {

Box Grid2D(int64_t w, int64_t h) {
  return Box({Interval(0, w - 1), Interval(0, h - 1)});
}

TEST(UniformEstimatorTest, FullRegionReturnsCardinality) {
  UniformEstimator est(Grid2D(10, 10), 500);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Grid2D(10, 10)), 500.0);
}

TEST(UniformEstimatorTest, ProportionalToVolume) {
  UniformEstimator est(Grid2D(10, 10), 500);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(0, 4), Interval(0, 9)})),
                   250.0);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(0, 0), Interval(0, 0)})),
                   5.0);
}

TEST(UniformEstimatorTest, ClipsToDomain) {
  UniformEstimator est(Grid2D(10, 10), 100);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(5, 50), Interval(0, 9)})),
                   50.0);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Box({Interval(20, 30), Interval(0, 9)})),
                   0.0);
}

TEST(UniformEstimatorTest, OnlyWholeTableFeedbackRecalibrates) {
  UniformEstimator est(Grid2D(10, 10), 100);
  est.Feedback(Box({Interval(0, 4), Interval(0, 9)}), 90);  // ignored
  EXPECT_DOUBLE_EQ(est.EstimateRows(Grid2D(10, 10)), 100.0);
  est.Feedback(Grid2D(10, 10), 200);
  EXPECT_DOUBLE_EQ(est.EstimateRows(Grid2D(10, 10)), 200.0);
}

TEST(FeedbackHistogramTest, StartsUniform) {
  FeedbackHistogram hist(Grid2D(10, 10), 100);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 4), Interval(0, 9)})),
                   50.0);
  EXPECT_EQ(hist.num_buckets(), 1u);
}

TEST(FeedbackHistogramTest, ExactAfterAlignedFeedback) {
  FeedbackHistogram hist(Grid2D(10, 10), 100);
  const Box region({Interval(0, 4), Interval(0, 9)});
  hist.Feedback(region, 80);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(region), 80.0);
  // Mass conservation is NOT imposed outside the region: the rest keeps its
  // prior estimate.
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(5, 9), Interval(0, 9)})),
                   50.0);
}

TEST(FeedbackHistogramTest, DisjointFeedbacksStayExact) {
  FeedbackHistogram hist(Grid2D(100, 1), 1000);
  hist.Feedback(Box({Interval(0, 24), Interval(0, 0)}), 10);
  hist.Feedback(Box({Interval(25, 49), Interval(0, 0)}), 700);
  hist.Feedback(Box({Interval(50, 99), Interval(0, 0)}), 40);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 24), Interval(0, 0)})),
                   10.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(25, 49), Interval(0, 0)})),
                   700.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(50, 99), Interval(0, 0)})),
                   40.0);
  EXPECT_NEAR(hist.total_count(), 750.0, 1e-6);
}

TEST(FeedbackHistogramTest, RefinementOverwritesCoarseFeedback) {
  FeedbackHistogram hist(Grid2D(100, 1), 1000);
  hist.Feedback(Box({Interval(0, 99), Interval(0, 0)}), 500);
  hist.Feedback(Box({Interval(0, 9), Interval(0, 0)}), 200);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 9), Interval(0, 0)})),
                   200.0);
  // The coarse region total is no longer 500 (the refinement added mass),
  // but the untouched part keeps its share: 500 * 90/100 = 450.
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(10, 99), Interval(0, 0)})),
                   450.0);
}

TEST(FeedbackHistogramTest, ZeroFeedbackZeroesRegion) {
  FeedbackHistogram hist(Grid2D(10, 1), 100);
  hist.Feedback(Box({Interval(0, 4), Interval(0, 0)}), 0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(0, 4), Interval(0, 0)})),
                   0.0);
  EXPECT_DOUBLE_EQ(hist.EstimateRows(Box({Interval(5, 9), Interval(0, 0)})),
                   50.0);
}

TEST(FeedbackHistogramTest, FeedbackOnZeroMassRegionRedistributes) {
  FeedbackHistogram hist(Grid2D(10, 1), 100);
  hist.Feedback(Box({Interval(0, 4), Interval(0, 0)}), 0);
  hist.Feedback(Box({Interval(0, 1), Interval(0, 0)}), 30);
  EXPECT_NEAR(hist.EstimateRows(Box({Interval(0, 1), Interval(0, 0)})), 30.0,
              1e-6);
}

TEST(FeedbackHistogramTest, OutOfDomainFeedbackIgnored) {
  FeedbackHistogram hist(Grid2D(10, 1), 100);
  hist.Feedback(Box({Interval(20, 30), Interval(0, 0)}), 999);
  EXPECT_DOUBLE_EQ(hist.total_count(), 100.0);
  EXPECT_EQ(hist.num_feedbacks(), 0u);
}

TEST(FeedbackHistogramTest, CapacityBoundRespected) {
  FeedbackHistogram hist(Grid2D(1000, 1), 10000, /*max_buckets=*/8);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const int64_t lo = rng.Uniform(0, 990);
    hist.Feedback(Box({Interval(lo, lo + 9), Interval(0, 0)}), 10);
  }
  EXPECT_LE(hist.num_buckets(), 16u);  // 2x guard in implementation
  // Still answers estimates sanely.
  EXPECT_GE(hist.EstimateRows(Grid2D(1000, 1)), 0.0);
}

TEST(FeedbackHistogramTest, ConvergesToTrueCountsUnderRepeatedFeedback) {
  // Ground truth: 1000 rows concentrated in [0, 99] of a 10k-wide domain.
  FeedbackHistogram hist(Box({Interval(0, 9999)}), 5000);
  const auto truth = [](const Interval& r) {
    const Interval hit = r.Intersect(Interval(0, 99));
    return hit.empty() ? int64_t{0} : hit.Width() * 10;
  };
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const int64_t lo = rng.Uniform(0, 9900);
    const Interval r(lo, lo + rng.Uniform(10, 99));
    hist.Feedback(Box({r}), truth(r));
  }
  // After the learning phase, estimates for fresh ranges should be far more
  // accurate than the cold uniform assumption.
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const int64_t lo = rng.Uniform(0, 9900);
    const Interval r(lo, lo + 50);
    err += std::abs(hist.EstimateRows(Box({r})) -
                    static_cast<double>(truth(r)));
  }
  EXPECT_LT(err / 20.0, 60.0);  // cold-start error would be ~25 per miss
                                // and ~500 inside the hot range
}

TEST(StatsRegistryTest, RegisterAndEstimate) {
  catalog::Catalog cat;
  ASSERT_TRUE(
      cat.RegisterDataset(catalog::DatasetDef{"D", 1.0, 100}).ok());
  catalog::TableDef def;
  def.name = "T";
  def.dataset = "D";
  def.columns = {catalog::ColumnDef::Free(
      "a", ValueType::kInt64, catalog::AttrDomain::Numeric(0, 99))};
  def.cardinality = 1000;
  ASSERT_TRUE(cat.RegisterTable(def).ok());

  StatsRegistry registry;
  registry.RegisterTable(*cat.FindTable("T"));
  EXPECT_TRUE(registry.HasTable("T"));
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 49)})), 500.0);
  registry.Feedback("T", Box({Interval(0, 49)}), 10);
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 49)})), 10.0);
  EXPECT_EQ(registry.TotalFeedbacks(), 1u);
}

TEST(StatsRegistryTest, UnknownTableEstimatesZero) {
  StatsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.EstimateRows("Nope", Box({Interval(0, 1)})), 0.0);
  registry.Feedback("Nope", Box({Interval(0, 1)}), 5);  // no crash
}

TEST(StatsRegistryTest, LearningDisabledStaysUniform) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.RegisterDataset(catalog::DatasetDef{"D", 1.0, 100}).ok());
  catalog::TableDef def;
  def.name = "T";
  def.dataset = "D";
  def.columns = {catalog::ColumnDef::Free(
      "a", ValueType::kInt64, catalog::AttrDomain::Numeric(0, 99))};
  def.cardinality = 1000;
  ASSERT_TRUE(cat.RegisterTable(def).ok());

  StatsRegistry registry(/*learning_enabled=*/false);
  registry.RegisterTable(*cat.FindTable("T"));
  registry.Feedback("T", Box({Interval(0, 49)}), 10);
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 49)})), 500.0);
}

TEST(StatsRegistryTest, RegisterIsIdempotent) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.RegisterDataset(catalog::DatasetDef{"D", 1.0, 100}).ok());
  catalog::TableDef def;
  def.name = "T";
  def.dataset = "D";
  def.columns = {catalog::ColumnDef::Free(
      "a", ValueType::kInt64, catalog::AttrDomain::Numeric(0, 9))};
  def.cardinality = 100;
  ASSERT_TRUE(cat.RegisterTable(def).ok());
  StatsRegistry registry;
  registry.RegisterTable(*cat.FindTable("T"));
  registry.Feedback("T", Box({Interval(0, 4)}), 7);
  registry.RegisterTable(*cat.FindTable("T"));  // must not reset learning
  EXPECT_DOUBLE_EQ(registry.EstimateRows("T", Box({Interval(0, 4)})), 7.0);
}

// A seeded run of 200 feedbacks on a 3-dimension histogram must give the
// same estimate doubles, bit for bit, and the same durability bytes as the
// recorded run: the box representation may change, the arithmetic and the
// snapshot format may not.
TEST(FeedbackHistogramTest, SeededFeedbackIsBitIdentical) {
  const Box full({Interval(0, 49), Interval(0, 29), Interval(0, 9)});
  FeedbackHistogram hist(full, 10000);
  std::mt19937_64 rng(16);
  const auto pick = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  const auto random_box = [&] {
    const auto iv = [&](int64_t max) {
      const int64_t lo = pick(-2, max);
      return Interval(lo, pick(lo, max + 2));
    };
    return Box({iv(49), iv(29), iv(9)});
  };
  uint64_t digest = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      digest ^= bytes[i];
      digest *= 1099511628211ull;
    }
  };
  for (int i = 0; i < 200; ++i) {
    hist.Feedback(random_box(), pick(0, 3000));
    for (int q = 0; q < 3; ++q) {
      const double estimate = hist.EstimateRows(random_box());
      uint64_t bits = 0;
      std::memcpy(&bits, &estimate, sizeof(bits));
      mix(&bits, sizeof(bits));
    }
  }
  EXPECT_EQ(digest, 16717159695367954355ull);

  std::string saved;
  common::BinWriter writer(&saved);
  hist.SaveState(writer);
  std::string cloned;
  common::BinWriter clone_writer(&cloned);
  hist.Clone()->SaveState(clone_writer);
  EXPECT_EQ(cloned, saved);
  digest = 1469598103934665603ull;
  mix(saved.data(), saved.size());
  EXPECT_EQ(saved.size(), 247572u);
  EXPECT_EQ(digest, 5556250607472224971ull);
  EXPECT_EQ(hist.num_buckets(), 4125u);
}

// Parameterized sweep: feedback is idempotent — repeating the same
// observation never changes the estimate further.
class FeedbackIdempotence : public ::testing::TestWithParam<int64_t> {};

TEST_P(FeedbackIdempotence, RepeatedFeedbackStable) {
  FeedbackHistogram hist(Box({Interval(0, 999)}), 12345);
  const int64_t lo = GetParam() * 83;
  const Box region({Interval(lo, lo + 99)});
  hist.Feedback(region, 321);
  const double first = hist.EstimateRows(region);
  hist.Feedback(region, 321);
  hist.Feedback(region, 321);
  EXPECT_NEAR(hist.EstimateRows(region), first, 1e-9);
  EXPECT_NEAR(first, 321.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Offsets, FeedbackIdempotence,
                         ::testing::Range<int64_t>(0, 10));

}  // namespace
}  // namespace payless::stats
