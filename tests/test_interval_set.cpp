#include "util/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace {

using tcw::Interval;
using tcw::IntervalSet;

TEST(Interval, Basics) {
  const Interval iv{1.0, 3.0};
  EXPECT_DOUBLE_EQ(iv.length(), 2.0);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(2.9));
  EXPECT_FALSE(iv.contains(3.0));  // half-open
  EXPECT_FALSE(iv.contains(0.99));
}

TEST(IntervalSet, StartsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.total_measure(), 0.0);
  EXPECT_FALSE(s.contains(0.0));
  EXPECT_DOUBLE_EQ(s.first_uncovered(5.0), 5.0);
}

TEST(IntervalSet, InsertDisjoint) {
  IntervalSet s;
  s.insert(0.0, 1.0);
  s.insert(2.0, 3.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(0.5));
  EXPECT_FALSE(s.contains(1.5));
  EXPECT_TRUE(s.contains(2.0));
  EXPECT_TRUE(s.check_invariant());
}

TEST(IntervalSet, InsertMergesOverlaps) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(1.0, 3.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 3.0);
}

TEST(IntervalSet, InsertMergesAdjacent) {
  IntervalSet s;
  s.insert(0.0, 1.0);
  s.insert(1.0, 2.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 2.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(0.0), 2.0);
}

TEST(IntervalSet, InsertBridgesManyParts) {
  IntervalSet s;
  s.insert(0.0, 1.0);
  s.insert(2.0, 3.0);
  s.insert(4.0, 5.0);
  s.insert(0.5, 4.5);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 5.0);
}

TEST(IntervalSet, EmptyInsertIsNoop) {
  IntervalSet s;
  s.insert(1.0, 1.0);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, EraseSplitsInterval) {
  IntervalSet s;
  s.insert(0.0, 10.0);
  s.erase(3.0, 7.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(2.9));
  EXPECT_FALSE(s.contains(3.0));
  EXPECT_FALSE(s.contains(6.9));
  EXPECT_TRUE(s.contains(7.0));
  EXPECT_DOUBLE_EQ(s.total_measure(), 6.0);
}

TEST(IntervalSet, EraseBelowTrims) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(3.0, 5.0);
  s.erase_below(4.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.total_measure(), 1.0);
  EXPECT_TRUE(s.contains(4.5));
}

TEST(IntervalSet, EraseBelowAtPartEndDropsThePart) {
  // hi == x: the part lies wholly below x and goes; the next is untouched.
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(3.0, 5.0);
  s.erase_below(2.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.parts()[0], (Interval{3.0, 5.0}));
  s.erase_below(5.0);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, EraseBelowInsidePartTrimsOnlyThatPart) {
  // lo < x < hi: the straddling part is trimmed to [x, hi); later parts
  // keep their bounds.
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(3.0, 5.0);
  s.insert(7.0, 9.0);
  s.erase_below(3.5);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.parts()[0], (Interval{3.5, 5.0}));
  EXPECT_EQ(s.parts()[1], (Interval{7.0, 9.0}));
  EXPECT_TRUE(s.check_invariant());
  // A cut below every part changes nothing; a cut in a gap drops the
  // parts below it and trims none.
  s.erase_below(-1.0);
  EXPECT_EQ(s.size(), 2u);
  s.erase_below(6.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.parts()[0], (Interval{7.0, 9.0}));
}

TEST(IntervalSet, EraseBelowOnEmptySet) {
  IntervalSet s;
  s.erase_below(4.0);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.check_invariant());
}

TEST(IntervalSet, MeasureWithinRange) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(3.0, 5.0);
  EXPECT_DOUBLE_EQ(s.measure(1.0, 4.0), 2.0);  // [1,2) + [3,4)
  EXPECT_DOUBLE_EQ(s.measure(-5.0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(s.measure(2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(s.measure(4.0, 4.0), 0.0);
}

TEST(IntervalSet, FirstUncoveredWalksThroughParts) {
  IntervalSet s;
  s.insert(0.0, 2.0);
  s.insert(2.0, 4.0);  // merges
  s.insert(5.0, 6.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(0.0), 4.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(4.5), 4.5);
  EXPECT_DOUBLE_EQ(s.first_uncovered(5.0), 6.0);
  EXPECT_DOUBLE_EQ(s.first_uncovered(7.0), 7.0);
}

TEST(IntervalSet, GapsWithinRange) {
  IntervalSet s;
  s.insert(1.0, 2.0);
  s.insert(3.0, 4.0);
  const auto gaps = s.gaps(0.0, 5.0);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Interval{0.0, 1.0}));
  EXPECT_EQ(gaps[1], (Interval{2.0, 3.0}));
  EXPECT_EQ(gaps[2], (Interval{4.0, 5.0}));
}

TEST(IntervalSet, GapsOfEmptySetIsWholeRange) {
  IntervalSet s;
  const auto gaps = s.gaps(2.0, 7.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], (Interval{2.0, 7.0}));
}

TEST(IntervalSet, GapsOfFullyCoveredRangeIsEmpty) {
  IntervalSet s;
  s.insert(0.0, 10.0);
  EXPECT_TRUE(s.gaps(2.0, 7.0).empty());
}

TEST(IntervalSet, MaxCovered) {
  IntervalSet s;
  EXPECT_FALSE(s.max_covered().has_value());
  s.insert(1.0, 2.0);
  s.insert(5.0, 8.0);
  EXPECT_DOUBLE_EQ(s.max_covered().value(), 8.0);
}

TEST(IntervalSet, BackwardsIntervalRejected) {
  IntervalSet s;
  EXPECT_THROW(s.insert(2.0, 1.0), tcw::ContractViolation);
  EXPECT_THROW(s.erase(2.0, 1.0), tcw::ContractViolation);
}

// ---------------------------------------------------------------------------
// Property test: a random operation sequence agrees with a brute-force
// boolean-grid model, and the structural invariant always holds.
// ---------------------------------------------------------------------------

class IntervalSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSetPropertyTest, MatchesBruteForceModel) {
  // Model: cover [0, 200) at resolution 0.5 => 400 cells.
  constexpr int kCells = 400;
  constexpr double kRes = 0.5;
  std::vector<bool> model(kCells, false);
  IntervalSet s;
  tcw::sim::Rng rng(0xABCD + static_cast<unsigned>(GetParam()));

  for (int op = 0; op < 300; ++op) {
    const auto a = static_cast<double>(tcw::sim::uniform_index(rng, kCells));
    const auto len = static_cast<double>(tcw::sim::uniform_index(rng, 60));
    const double lo = a * kRes;
    const double hi = std::min(lo + len * kRes, kCells * kRes);
    const bool insert = tcw::sim::bernoulli(rng, 0.6);
    if (insert) {
      s.insert(lo, hi);
    } else {
      s.erase(lo, hi);
    }
    for (int c = static_cast<int>(lo / kRes); c < static_cast<int>(hi / kRes);
         ++c) {
      model[static_cast<std::size_t>(c)] = insert;
    }
    ASSERT_TRUE(s.check_invariant());
  }

  // Compare membership at cell midpoints and aggregate measure.
  double model_measure = 0.0;
  for (int c = 0; c < kCells; ++c) {
    const double mid = (c + 0.5) * kRes;
    EXPECT_EQ(s.contains(mid), model[static_cast<std::size_t>(c)])
        << "cell " << c;
    if (model[static_cast<std::size_t>(c)]) model_measure += kRes;
  }
  EXPECT_NEAR(s.total_measure(), model_measure, 1e-9);

  // first_uncovered agrees with a scan over the model.
  for (double x : {0.0, 10.25, 100.0, 199.75}) {
    int cell = static_cast<int>(x / kRes);
    double expect = x;
    while (cell < kCells && model[static_cast<std::size_t>(cell)] &&
           expect >= cell * kRes) {
      expect = (cell + 1) * kRes;
      ++cell;
    }
    EXPECT_DOUBLE_EQ(s.first_uncovered(x), expect) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalSetPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
