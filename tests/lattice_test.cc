// The config-lattice differential (lattice_harness.h) over a fixed set of
// seeds, with the coverage and counter checks that keep agreement from being
// vacuous: every axis value is drawn, every CE of the paper's set (and the
// adrift extension) is recognized somewhere, and the engines really took the
// paths each draw is meant to exercise.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/strings.h"
#include "lattice_harness.h"

namespace maritime::lattice {
namespace {

using enum surveillance::EngineMode;

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kDraws = 48;

// Checks `d` against the reference and the engines' counters: naive runs
// neither hit nor miss the cache, incremental runs hit it, skewed-fleet runs
// narrow spans without the fleet floor, and at omega >= 30 beta most key
// evaluations fast-forward.
Outcome ExpectAgrees(const Draw& d) {
  SCOPED_TRACE(Describe(d));
  Outcome o;
  const std::string failure = Check(d, &o);
  EXPECT_TRUE(failure.empty()) << failure;
  EXPECT_EQ(o.cache_hits > 0, o.incremental);
  EXPECT_TRUE(o.incremental || o.cache_misses == 0) << o.cache_misses;
  if (o.incremental && d.shape == Shape::kSkewed) {
    EXPECT_GT(o.spans_narrowed, 0u);
    EXPECT_EQ(o.fleet_floor_hits, 0u);
  }
  EXPECT_TRUE(!o.incremental || d.ratio < 30 || o.fast_forwards * 2 > o.evals)
      << o.fast_forwards << " fast-forwards of " << o.evals << " evaluations";
  return o;
}

TEST(LatticeTest, FixedDrawsAgreeWithTheReference) {
  std::set<std::string> drawn;
  std::set<std::string> recognized;
  int skewed_checks = 0;
  int long_window_checks = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kDraws; ++seed) {
    const Draw d = DrawFromSeed(seed);
    const Outcome o = ExpectAgrees(d);
    ASSERT_TRUE(o.failure.empty());

    const bool pipeline = d.shape == Shape::kPipeline;
    drawn.insert(StrPrintf("shape %d", static_cast<int>(d.shape)));
    if (pipeline) drawn.insert(StrPrintf("shards %d", d.shards));
    if (pipeline) drawn.insert(StrPrintf("archive %d", d.archive ? 1 : 0));
    drawn.insert(StrPrintf("partitions %d", d.partitions));
    drawn.insert(StrPrintf("facts %d", d.spatial_facts ? 1 : 0));
    drawn.insert(StrPrintf("engine %d", static_cast<int>(d.engine)));
    drawn.insert(StrPrintf("beta %lld", static_cast<long long>(d.slide)));
    drawn.insert(StrPrintf("ratio %d", d.ratio));
    drawn.insert(StrPrintf("cut %d %d", pipeline ? 1 : 0,
                           static_cast<int>(d.cut)));
    recognized.insert(o.recognized.begin(), o.recognized.end());
    skewed_checks += o.incremental && d.shape == Shape::kSkewed ? 1 : 0;
    long_window_checks += o.incremental && d.ratio >= 30 ? 1 : 0;
  }

  std::set<std::string> axes;
  for (int shape = 0; shape < 4; ++shape) {
    axes.insert(StrPrintf("shape %d", shape));
  }
  for (int v : {1, 2, 4}) axes.insert(StrPrintf("shards %d", v));
  for (int v : {1, 2}) axes.insert(StrPrintf("partitions %d", v));
  for (int v : {0, 1}) {
    axes.insert(StrPrintf("facts %d", v));
    axes.insert(StrPrintf("archive %d", v));
    for (int cut = 0; cut < 3; ++cut) axes.insert(StrPrintf("cut %d %d", v, cut));
  }
  for (int v = 0; v < 3; ++v) axes.insert(StrPrintf("engine %d", v));
  for (long long v : {2, 5, 10}) axes.insert(StrPrintf("beta %lld", v * kMinute));
  for (int v : {1, 2, 3, 6, 30, 60}) axes.insert(StrPrintf("ratio %d", v));
  for (const std::string& axis : axes) {
    EXPECT_TRUE(drawn.count(axis) > 0) << "never drawn: " << axis;
  }
  for (const char* ce : {"suspicious", "illegalFishing", "illegalShipping",
                         "dangerousShipping", "adrift"}) {
    EXPECT_TRUE(recognized.count(ce) > 0) << "never recognized: " << ce;
  }
  EXPECT_GT(skewed_checks, 0);
  EXPECT_GT(long_window_checks, 0);
}

// The end-to-end differential suites the lattice replaced, each pinned to
// the lattice points that cover it.
Draw Point(Shape shape, surveillance::EngineMode engine, bool facts, Cut cut,
           uint64_t seed, int shards = 1, int partitions = 1) {
  Draw d = DrawFromSeed(seed);
  while (d.shape != shape) d = DrawFromSeed(++seed);
  d.engine = engine;
  d.spatial_facts = facts;
  d.cut = cut;
  d.cut_slide = static_cast<int>(d.horizon / d.slide / 2);
  d.shards = shape == Shape::kPipeline ? shards : 1;
  d.partitions = partitions;
  if (engine != kNaive && d.ratio == 1) d.ratio = 6;
  return d;
}

TEST(PipelineEngineDifferentialTest, AutoMatchesNaive) {
  for (int p : {1, 2}) {
    ExpectAgrees(Point(Shape::kPipeline, kAuto, false, Cut::kNone, 100, 1, p));
  }
}
TEST(PipelineEngineDifferentialTest,
     ShardedPartitionedParallelIncrementalMatchesNaive) {
  ExpectAgrees(Point(Shape::kPipeline, kIncremental, false, Cut::kNone, 110,
                     4, 2));
}
TEST(ShardedTrackerTest, PipelineRecognitionIsShardCountInvariant) {
  for (int s : {2, 4}) {
    ExpectAgrees(Point(Shape::kPipeline, kNaive, false, Cut::kNone, 120, s));
  }
}
TEST(SnapshotRecoveryTest, NaiveRecognitionBitIdenticalAfterRecovery) {
  ExpectAgrees(Point(Shape::kPipeline, kNaive, false, Cut::kMemory, 130));
}
TEST(SnapshotRecoveryTest, IncrementalRecognitionBitIdenticalAfterRecovery) {
  ExpectAgrees(Point(Shape::kPipeline, kIncremental, true, Cut::kMemory, 140));
}
TEST(SnapshotRecoveryTest, ShardedPartitionedBitIdenticalAfterRecovery) {
  ExpectAgrees(Point(Shape::kPipeline, kIncremental, false, Cut::kMemory, 150,
                     4, 2));
}
TEST(SnapshotRecoveryTest, FileRoundTripRecovery) {
  ExpectAgrees(Point(Shape::kPipeline, kIncremental, false, Cut::kFile, 160,
                     2, 2));
}
TEST(SnapshotRecoveryTest, ResumeOnFreshPipelineEqualsRun) {
  ExpectAgrees(Point(Shape::kPipeline, kNaive, false, Cut::kNone, 170, 2, 2));
}
TEST(MaritimeIncrementalDifferentialTest, FleetStreamBitIdentical) {
  ExpectAgrees(Point(Shape::kTracked, kIncremental, false, Cut::kNone, 200));
}
TEST(MaritimeIncrementalDifferentialTest, SpatialFactsModeBitIdentical) {
  ExpectAgrees(Point(Shape::kTracked, kIncremental, true, Cut::kNone, 210));
}
TEST(MaritimeIncrementalDifferentialTest, LongWindowBitIdentical) {
  Draw d = Point(Shape::kTracked, kIncremental, false, Cut::kNone, 220);
  d.ratio = 30;
  ExpectAgrees(d);
}
// omega = 540 beta (a 3 h window of 20 s slides over a 6 h feed), cut
// midway: the window start passes the first three hours of points while
// almost every key is clean, so most slides skip most keys and slide their
// timelines through the symbolic window bounds, before and after a restore.
TEST(LatticeTest, VeryLongWindowIncrementalCutMidStream) {
  Draw d = Point(Shape::kTracked, kIncremental, false, Cut::kMemory, 230);
  d.slide = 20;
  d.ratio = 540;
  d.horizon = 6 * kHour;
  d.cut_slide = static_cast<int>(d.horizon / d.slide / 2);
  ExpectAgrees(d);
}
TEST(MaritimeScopedDirtyTest, SkewedFleetOnDemandBitIdentical) {
  ExpectAgrees(Point(Shape::kSkewed, kIncremental, false, Cut::kNone, 300));
}
TEST(MaritimeScopedDirtyTest, SkewedFleetSpatialFactsSnapshotBitIdentical) {
  for (Cut cut : {Cut::kMemory, Cut::kFile}) {
    ExpectAgrees(Point(Shape::kSkewed, kIncremental, true, cut, 310, 1, 2));
  }
}
TEST(SpatialModeEquivalenceProperty, RandomStreamsRecognizeIdentically) {
  for (uint64_t seed = 400; seed < 440; seed += 10) {
    ExpectAgrees(Point(Shape::kLoitering, kNaive, true, Cut::kNone, seed));
  }
}
TEST(SpatialModeEquivalenceProperty,
     IncrementalDelayedLoiteringWithRestoreRecognizeIdentically) {
  std::set<std::string> seen;
  for (uint64_t seed = 500; seed < 530; seed += 10) {
    const Outcome o = ExpectAgrees(
        Point(Shape::kLoitering, kIncremental, true, Cut::kMemory, seed));
    seen.insert(o.recognized.begin(), o.recognized.end());
  }
  EXPECT_EQ(seen.count("suspicious") + seen.count("illegalFishing"), 2u);
}

// A fix (or fact group) delivered late moves a stopped vessel away from an
// area before the window start; the incremental run must still withdraw the
// `suspicious` interval the vessel's old position supported. Fails when the
// engine purges coords, or the recognizer purges fact groups, before
// evaluation (DESIGN.md §14).
TEST(LatticeTest, DelayedFixMovingAVesselAwayIsProjected) {
  for (const bool facts : {false, true}) {
    Draw d = DrawFromSeed(1527);
    d.spatial_facts = facts;
    const std::string failure = Check(d);
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(LatticeTest, ShrinkHalvesTheInputWhileTheFailurePersists) {
  Draw d = DrawFromSeed(kFirstSeed);
  d.vessels = 12;
  d.horizon = 6 * kHour;
  d.slide = 5 * kMinute;
  const Draw small = Shrink(d, [](const Draw& c) {
    return c.vessels >= 3 && c.horizon >= 90 * kMinute;
  });
  EXPECT_EQ(small.vessels, 3);
  EXPECT_EQ(small.horizon, 90 * kMinute);
  EXPECT_EQ(small.seed, d.seed);
}

}  // namespace
}  // namespace maritime::lattice
