#include "tracker/sharded_tracker.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/thread_pool.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "stream/replayer.h"
#include "stream/sliding_window.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"

namespace maritime::tracker {
namespace {

::testing::AssertionResult SameSequence(const std::vector<CriticalPoint>& a,
                                        const std::vector<CriticalPoint>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sequence sizes differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::ostringstream os;
      os << "point " << i << " differs: " << a[i] << " vs " << b[i];
      return ::testing::AssertionFailure() << os.str();
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<stream::PositionTuple> FleetStream(uint64_t seed, int vessels,
                                               Duration duration,
                                               sim::World* world) {
  sim::FleetConfig cfg;
  cfg.vessels = vessels;
  cfg.duration = duration;
  cfg.seed = seed;
  sim::FleetSimulator fleet(world, cfg);
  return fleet.Generate();
}

/// Replays `tuples` slide by slide through a sharded tracker, returning the
/// concatenation of every slide's merged critical points plus the Finish
/// tail — the full summarized stream a downstream consumer would see.
std::vector<CriticalPoint> RunSharded(
    const std::vector<stream::PositionTuple>& tuples, int shards,
    common::ThreadPool* pool, TrackerStats* stats_out = nullptr) {
  ShardedMobilityTracker tracker(TrackerParams(), shards, pool);
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence queries(
      stream::WindowSpec{kHour, 10 * kMinute}, replayer.first_timestamp());
  const Timestamp last = replayer.last_timestamp();
  std::vector<CriticalPoint> all;
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    const auto cps = tracker.ProcessSlide(batch, q);
    all.insert(all.end(), cps.begin(), cps.end());
    if (q >= last) break;
  }
  tracker.Finish(&all);
  if (stats_out != nullptr) *stats_out = tracker.stats();
  return all;
}

TEST(ShardedTrackerTest, OneShardMatchesSerialTrackerBitForBit) {
  sim::World world = sim::BuildWorld(31);
  const auto tuples = FleetStream(7, 25, 6 * kHour, &world);
  ASSERT_FALSE(tuples.empty());

  // Reference: the plain serial path (MobilityTracker + one Compressor),
  // exactly as the pipeline ran before sharding existed.
  MobilityTracker serial;
  Compressor compressor;
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence queries(
      stream::WindowSpec{kHour, 10 * kMinute}, replayer.first_timestamp());
  const Timestamp last = replayer.last_timestamp();
  std::vector<CriticalPoint> expected;
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    std::vector<CriticalPoint> raw;
    for (const auto& t : batch) serial.Process(t, &raw);
    serial.AdvanceTo(q, &raw);
    compressor.Compress(&raw, batch.size());
    expected.insert(expected.end(), raw.begin(), raw.end());
    if (q >= last) break;
  }
  // The sharded Finish sorts its tail into stream order; apply the same
  // canonical order to the serial tail before comparing.
  std::vector<CriticalPoint> tail;
  serial.Finish(&tail);
  std::stable_sort(tail.begin(), tail.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.tau != b.tau) return a.tau < b.tau;
                     return a.mmsi < b.mmsi;
                   });
  expected.insert(expected.end(), tail.begin(), tail.end());

  const auto sharded = RunSharded(tuples, 1, &common::ThreadPool::Shared());
  EXPECT_TRUE(SameSequence(expected, sharded));
}

TEST(ShardedTrackerTest, ShardCountsProduceIdenticalCriticalPoints) {
  sim::World world = sim::BuildWorld(32);
  const auto tuples = FleetStream(11, 40, 8 * kHour, &world);
  ASSERT_FALSE(tuples.empty());

  TrackerStats s1, s2, s8;
  const auto one = RunSharded(tuples, 1, &common::ThreadPool::Shared(), &s1);
  const auto two = RunSharded(tuples, 2, &common::ThreadPool::Shared(), &s2);
  const auto eight =
      RunSharded(tuples, 8, &common::ThreadPool::Shared(), &s8);

  EXPECT_TRUE(SameSequence(one, two));
  EXPECT_TRUE(SameSequence(one, eight));

  // Aggregated counters are shard-count invariant too.
  EXPECT_EQ(s1.processed, s2.processed);
  EXPECT_EQ(s1.processed, s8.processed);
  EXPECT_EQ(s1.accepted, s8.accepted);
  EXPECT_EQ(s1.critical_points, s8.critical_points);
  EXPECT_EQ(s1.stale_discarded, s8.stale_discarded);
  EXPECT_EQ(s1.outliers_discarded, s8.outliers_discarded);
}

TEST(ShardedTrackerTest, ProcessSlideRoutesByMmsi) {
  common::ThreadPool pool(0);
  ShardedMobilityTracker tracker(TrackerParams(), 4, &pool);
  std::vector<stream::PositionTuple> batch;
  for (stream::Mmsi m = 1; m <= 8; ++m) {
    batch.push_back({m, geo::GeoPoint{24.0, 37.0}, 100});
  }
  const auto out = tracker.ProcessSlide(batch, 100);
  EXPECT_EQ(tracker.vessel_count(), 8u);
  EXPECT_EQ(out.size(), 8u);  // one kFirst each
  for (stream::Mmsi m = 1; m <= 8; ++m) {
    EXPECT_NE(tracker.FindVessel(m), nullptr) << "mmsi " << m;
  }
  EXPECT_EQ(tracker.FindVessel(999), nullptr);
  EXPECT_EQ(tracker.stats().processed, 8u);
}

TEST(ShardedTrackerTest, PerShardSlideStatsAccountForTheWholeBatch) {
  common::ThreadPool pool(2);
  ShardedMobilityTracker tracker(TrackerParams(), 4, &pool);
  std::vector<stream::PositionTuple> batch;
  for (stream::Mmsi m = 1; m <= 40; ++m) {
    batch.push_back({m, geo::GeoPoint{24.0 + 0.001 * m, 37.0}, 50});
  }
  std::vector<ShardSlideStats> per_shard;
  const auto cps = tracker.ProcessSlide(batch, 100, &per_shard);
  ASSERT_EQ(per_shard.size(), 4u);
  size_t tuples = 0, criticals = 0;
  for (const auto& s : per_shard) {
    tuples += s.tuples;
    criticals += s.critical_points;
    EXPECT_GE(s.seconds, 0.0);
  }
  EXPECT_EQ(tuples, batch.size());
  EXPECT_EQ(criticals, cps.size());
  EXPECT_EQ(cps.size(), 40u);  // every vessel's kFirst point
}

}  // namespace
}  // namespace maritime::tracker
