#include "common/geometry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"

namespace payless {
namespace {

TEST(IntervalTest, DefaultIsEmpty) {
  EXPECT_TRUE(Interval().empty());
  EXPECT_EQ(Interval().Width(), 0);
}

TEST(IntervalTest, PointInterval) {
  const Interval p = Interval::Point(5);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.Width(), 1);
  EXPECT_TRUE(p.Contains(5));
  EXPECT_FALSE(p.Contains(4));
}

TEST(IntervalTest, WidthInclusive) {
  EXPECT_EQ(Interval(3, 7).Width(), 5);
}

TEST(IntervalTest, WidthSaturates) {
  const Interval huge(std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max());
  EXPECT_EQ(huge.Width(), std::numeric_limits<int64_t>::max());
}

TEST(IntervalTest, ContainsInterval) {
  EXPECT_TRUE(Interval(0, 10).Contains(Interval(3, 7)));
  EXPECT_TRUE(Interval(0, 10).Contains(Interval(0, 10)));
  EXPECT_FALSE(Interval(0, 10).Contains(Interval(5, 11)));
  EXPECT_TRUE(Interval(0, 10).Contains(Interval::Empty()));
}

TEST(IntervalTest, Overlaps) {
  EXPECT_TRUE(Interval(0, 5).Overlaps(Interval(5, 9)));
  EXPECT_FALSE(Interval(0, 5).Overlaps(Interval(6, 9)));
  EXPECT_FALSE(Interval(0, 5).Overlaps(Interval::Empty()));
}

TEST(IntervalTest, IntersectProducesEmptyOnDisjoint) {
  EXPECT_TRUE(Interval(0, 3).Intersect(Interval(5, 8)).empty());
  EXPECT_EQ(Interval(0, 6).Intersect(Interval(4, 9)), Interval(4, 6));
}

TEST(IntervalTest, EmptyIntervalsCompareEqual) {
  EXPECT_EQ(Interval(3, 2), Interval(10, 5));
}

TEST(BoxTest, ZeroDimensionalBoxIsUnit) {
  const Box unit;
  EXPECT_FALSE(unit.empty());
  EXPECT_EQ(unit.Volume(), 1);
  EXPECT_TRUE(unit.Overlaps(unit));
  EXPECT_TRUE(unit.Contains(Box{}));
}

TEST(BoxTest, EmptyWhenAnyDimEmpty) {
  EXPECT_TRUE(Box({Interval(0, 5), Interval::Empty()}).empty());
  EXPECT_FALSE(Box({Interval(0, 5), Interval(1, 1)}).empty());
}

TEST(BoxTest, VolumeIsProduct) {
  EXPECT_EQ(Box({Interval(0, 9), Interval(0, 4)}).Volume(), 50);
}

TEST(BoxTest, VolumeSaturates) {
  const Box huge({Interval(0, int64_t{1} << 40),
                  Interval(0, int64_t{1} << 40)});
  EXPECT_EQ(huge.Volume(), std::numeric_limits<int64_t>::max());
}

TEST(BoxTest, ContainsPoint) {
  const Box box({Interval(0, 5), Interval(10, 20)});
  EXPECT_TRUE(box.Contains(std::vector<int64_t>{0, 20}));
  EXPECT_FALSE(box.Contains(std::vector<int64_t>{6, 15}));
}

TEST(BoxTest, IntersectComponentWise) {
  const Box a({Interval(0, 10), Interval(0, 10)});
  const Box b({Interval(5, 15), Interval(-5, 5)});
  EXPECT_EQ(a.Intersect(b), Box({Interval(5, 10), Interval(0, 5)}));
}

// Boxes of up to four dimensions keep their intervals inline and wider ones
// spill to the heap; both sides of that boundary, and the unit box, must
// behave the same under every operation.
TEST(BoxTest, InlineAndSpilledBoxesBehaveAlike) {
  for (const size_t n : {size_t{0}, size_t{4}, size_t{5}}) {
    SCOPED_TRACE(n);
    std::vector<Interval> wide, narrow;
    for (size_t d = 0; d < n; ++d) {
      const int64_t base = static_cast<int64_t>(d) * 10;
      wide.emplace_back(base, base + 9);
      narrow.emplace_back(base + 2, base + 4);
    }
    const Box a(wide);
    const Box b(narrow);
    ASSERT_EQ(a.num_dims(), n);

    Box copy = a;  // copy construction
    EXPECT_EQ(copy, a);
    Box assigned(narrow);
    assigned = a;  // copy assignment over a box of the same size
    EXPECT_EQ(assigned, a);
    Box moved = std::move(copy);  // move construction
    EXPECT_EQ(moved, a);
    Box move_assigned;
    move_assigned = std::move(moved);  // move assignment into a 0-d box
    EXPECT_EQ(move_assigned, a);
    move_assigned = b;  // and back over a box of the same size
    EXPECT_EQ(move_assigned, b);

    EXPECT_EQ(a.Intersect(b), b);
    EXPECT_TRUE(a.Contains(b));
    EXPECT_EQ(b.Contains(a), n == 0);
    EXPECT_EQ(a.Volume(), n == 0 ? 1 : static_cast<int64_t>(std::pow(10, n)));
    EXPECT_EQ(b.Volume(), n == 0 ? 1 : static_cast<int64_t>(std::pow(3, n)));
    std::vector<int64_t> point(n);
    for (size_t d = 0; d < n; ++d) point[d] = static_cast<int64_t>(d) * 10 + 3;
    EXPECT_TRUE(a.Contains(point));
    EXPECT_TRUE(b.Contains(point));
    if (n > 0) {
      Box changed = a;
      changed.dim(n - 1) = Interval(500, 600);
      EXPECT_FALSE(changed == a);
      EXPECT_TRUE(a.Intersect(changed).empty());
      EXPECT_EQ(a.Intersect(changed).num_dims(), n);
      EXPECT_EQ(a.dims().size(), n);
      EXPECT_EQ(a.dims()[n - 1], Interval(static_cast<int64_t>(n - 1) * 10,
                                          static_cast<int64_t>(n - 1) * 10 + 9));
    }

    std::string bytes;
    common::BinWriter writer(&bytes);
    common::WriteBox(writer, a);
    EXPECT_EQ(bytes.size(), 4 + 16 * n);
    common::BinReader reader(bytes);
    Box read({Interval(1, 1)});
    ASSERT_TRUE(common::ReadBox(reader, &read));
    EXPECT_EQ(read, a);
    EXPECT_EQ(read.num_dims(), n);
  }
}

TEST(SubtractBoxTest, DisjointLeavesOriginal) {
  const Box a({Interval(0, 4)});
  const Box b({Interval(10, 12)});
  const std::vector<Box> diff = SubtractBox(a, b);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], a);
}

TEST(SubtractBoxTest, FullyCoveredYieldsNothing) {
  EXPECT_TRUE(SubtractBox(Box({Interval(2, 3)}), Box({Interval(0, 9)})).empty());
}

TEST(SubtractBoxTest, MiddleCutYieldsTwoPieces1D) {
  const std::vector<Box> diff =
      SubtractBox(Box({Interval(0, 9)}), Box({Interval(4, 6)}));
  ASSERT_EQ(diff.size(), 2u);
  int64_t total = 0;
  for (const Box& piece : diff) total += piece.Volume();
  EXPECT_EQ(total, 7);
}

TEST(SubtractBoxTest, CornerOverlap2D) {
  const Box a({Interval(0, 9), Interval(0, 9)});
  const Box b({Interval(5, 15), Interval(5, 15)});
  const std::vector<Box> diff = SubtractBox(a, b);
  int64_t total = 0;
  for (const Box& piece : diff) total += piece.Volume();
  EXPECT_EQ(total, 100 - 25);
  // Pieces are pairwise disjoint.
  for (size_t i = 0; i < diff.size(); ++i) {
    for (size_t j = i + 1; j < diff.size(); ++j) {
      EXPECT_FALSE(diff[i].Overlaps(diff[j]));
    }
  }
}

TEST(SubtractAllTest, MultipleHoles) {
  const Box base({Interval(0, 9)});
  const std::vector<Box> holes = {Box({Interval(0, 2)}), Box({Interval(7, 9)})};
  const std::vector<Box> diff = SubtractAll(base, holes);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], Box({Interval(3, 6)}));
}

TEST(SubtractAllTest, EmptyBaseYieldsNothing) {
  EXPECT_TRUE(SubtractAll(Box({Interval::Empty()}), {}).empty());
}

TEST(IsCoveredTest, ExactTiling) {
  const Box target({Interval(0, 9), Interval(0, 9)});
  EXPECT_TRUE(IsCovered(target, {Box({Interval(0, 9), Interval(0, 4)}),
                                 Box({Interval(0, 9), Interval(5, 9)})}));
  EXPECT_FALSE(IsCovered(target, {Box({Interval(0, 9), Interval(0, 4)}),
                                  Box({Interval(0, 8), Interval(5, 9)})}));
}

TEST(IsCoveredTest, EmptyTargetAlwaysCovered) {
  EXPECT_TRUE(IsCovered(Box({Interval::Empty()}), {}));
}

// ---------------------------------------------------------------------------
// Property sweep: subtraction semantics checked against brute-force lattice
// membership on random 2-d boxes over a small grid.
// ---------------------------------------------------------------------------

class SubtractionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubtractionProperty, MatchesBruteForceLattice) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const auto random_box = [&rng] {
    const int64_t x1 = rng.Uniform(0, 11);
    const int64_t x2 = rng.Uniform(0, 11);
    const int64_t y1 = rng.Uniform(0, 11);
    const int64_t y2 = rng.Uniform(0, 11);
    return Box({Interval(std::min(x1, x2), std::max(x1, x2)),
                Interval(std::min(y1, y2), std::max(y1, y2))});
  };
  const Box base = random_box();
  std::vector<Box> holes;
  const int64_t num_holes = rng.Uniform(0, 4);
  for (int64_t i = 0; i < num_holes; ++i) holes.push_back(random_box());

  const std::vector<Box> diff = SubtractAll(base, holes);

  // Pieces are pairwise disjoint and inside the base.
  for (size_t i = 0; i < diff.size(); ++i) {
    EXPECT_TRUE(base.Contains(diff[i]));
    for (size_t j = i + 1; j < diff.size(); ++j) {
      EXPECT_FALSE(diff[i].Overlaps(diff[j]));
    }
  }

  // Exact lattice membership.
  for (int64_t x = 0; x <= 11; ++x) {
    for (int64_t y = 0; y <= 11; ++y) {
      const std::vector<int64_t> p = {x, y};
      bool in_base = base.Contains(p);
      bool in_hole = false;
      for (const Box& hole : holes) {
        if (hole.Contains(p)) in_hole = true;
      }
      bool in_diff = false;
      for (const Box& piece : diff) {
        if (piece.Contains(p)) in_diff = true;
      }
      EXPECT_EQ(in_diff, in_base && !in_hole)
          << "point (" << x << "," << y << ")";
    }
  }

  EXPECT_EQ(IsCovered(base, holes), diff.empty());
}

INSTANTIATE_TEST_SUITE_P(Random, SubtractionProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace payless
