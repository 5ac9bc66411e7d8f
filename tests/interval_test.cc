#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>

#include "common/rng.h"
#include "rtec/interval.h"

namespace maritime::rtec {
namespace {

// ---------------------------------------------------------------------------
// Brute-force reference model: a fluent over the discrete domain (0, 256]
// represented as a bitset, where bit t means "holds at time-point t+1".
// The point queries are checked against this model.
// ---------------------------------------------------------------------------
constexpr int kDomain = 256;
using Bits = std::bitset<kDomain>;

Bits ToBits(const IntervalList& list) {
  Bits b;
  for (const Interval& i : list) {
    for (Timestamp t = i.since + 1; t <= i.till; ++t) {
      if (t >= 1 && t <= kDomain) b.set(static_cast<size_t>(t - 1));
    }
  }
  return b;
}

/// A random list satisfying the IntervalList invariant, built in time order:
/// each interval is non-empty and starts at least one point past the
/// previous one's end, so no two are adjacent.
IntervalList RandomNormalized(Rng& rng, int max_intervals) {
  IntervalList out;
  const int n = static_cast<int>(rng.NextInt(0, max_intervals));
  Timestamp cursor = rng.NextInt(0, 8);
  for (int i = 0; i < n && cursor < kDomain - 1; ++i) {
    const Timestamp since = cursor;
    const Timestamp till =
        std::min<Timestamp>(since + rng.NextInt(1, 24), kDomain);
    out.push_back(Interval{since, till});
    cursor = till + rng.NextInt(1, 16);
  }
  return out;
}

TEST(IntervalTest, CoversSemantics) {
  // (10, 25] holds at 11..25 (paper Section 4.1 example).
  const Interval i{10, 25};
  EXPECT_FALSE(i.Covers(10));
  EXPECT_TRUE(i.Covers(11));
  EXPECT_TRUE(i.Covers(25));
  EXPECT_FALSE(i.Covers(26));
  EXPECT_EQ(i.Length(), 15);
}

TEST(IntervalTest, EmptyInterval) {
  const Interval i{5, 5};
  EXPECT_FALSE(i.NonEmpty());
  EXPECT_FALSE(i.Covers(5));
}

TEST(IsNormalizedTest, AcceptsSortedDisjointNonAdjacent) {
  EXPECT_TRUE(IsNormalized(IntervalList{}));
  EXPECT_TRUE(IsNormalized(IntervalList{{0, 10}, {20, 30}, {31, 40}}));
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    EXPECT_TRUE(IsNormalized(RandomNormalized(rng, 10)));
  }
}

TEST(IsNormalizedTest, RejectsEachBrokenInvariant) {
  EXPECT_FALSE(IsNormalized(IntervalList{{5, 5}}));             // empty
  EXPECT_FALSE(IsNormalized(IntervalList{{7, 6}}));             // inverted
  EXPECT_FALSE(IsNormalized(IntervalList{{20, 30}, {0, 10}}));  // unsorted
  EXPECT_FALSE(IsNormalized(IntervalList{{0, 20}, {10, 30}}));  // overlap
  // (0,10] and (10,20] hold continuously: one maximal interval, not two.
  EXPECT_FALSE(IsNormalized(IntervalList{{0, 10}, {10, 20}}));
}

TEST(HoldsAtTest, MatchesBruteForceProperty) {
  Rng rng(47);
  for (int trial = 0; trial < 100; ++trial) {
    const IntervalList l = RandomNormalized(rng, 8);
    const Bits b = ToBits(l);
    for (Timestamp t = 1; t <= kDomain; ++t) {
      EXPECT_EQ(HoldsAt(l, t), b.test(static_cast<size_t>(t - 1)))
          << "t=" << t;
    }
  }
}

TEST(HoldsRightOfTest, CountsEpisodeStartingExactlyAtT) {
  IntervalList l = {{10, 20}};
  EXPECT_FALSE(HoldsAt(l, 10));
  EXPECT_TRUE(HoldsRightOf(l, 10));   // starts at 10: holds at 11
  EXPECT_TRUE(HoldsRightOf(l, 19));
  EXPECT_FALSE(HoldsRightOf(l, 20));  // ends at 20: does not hold at 21
}

}  // namespace
}  // namespace maritime::rtec
