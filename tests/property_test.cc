// Randomized property tests across module boundaries: these catch the
// interactions unit tests miss. All generators are seeded per-trial, so any
// failure reproduces deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "sim/scenarios.h"
#include "tracker/mobility_tracker.h"
#include "tracker/reconstruct.h"

namespace maritime {
namespace {

// ---------------------------------------------------------------------------
// Property: tracker output invariants on random voyages, across parameter
// settings.
// ---------------------------------------------------------------------------

std::vector<stream::PositionTuple> RandomVoyage(Rng& rng, stream::Mmsi mmsi) {
  sim::TraceBuilder b(mmsi,
                      geo::GeoPoint{rng.NextDouble(23.0, 27.0),
                                    rng.NextDouble(35.5, 40.5)},
                      rng.NextInt(0, 600));
  const int segments = static_cast<int>(rng.NextInt(3, 8));
  double bearing = rng.NextDouble(0.0, 360.0);
  for (int s = 0; s < segments; ++s) {
    switch (rng.NextBelow(5)) {
      case 0:
        bearing = rng.NextDouble(0.0, 360.0);
        b.Cruise(bearing, rng.NextDouble(6.0, 18.0),
                 rng.NextInt(10 * kMinute, kHour), 60);
        break;
      case 1:
        b.Drift(rng.NextInt(15 * kMinute, kHour), 120, 10.0);
        break;
      case 2:
        b.Cruise(bearing, rng.NextDouble(1.5, 3.8),
                 rng.NextInt(20 * kMinute, kHour), 60);
        break;
      case 3:
        b.Silence(rng.NextInt(12 * kMinute, 40 * kMinute));
        break;
      case 4:
        b.SmoothTurn(rng.NextDouble(-90.0, 90.0),
                     static_cast<int>(rng.NextInt(5, 20)),
                     rng.NextDouble(8.0, 14.0), 60);
        bearing = b.last_bearing_deg();
        break;
    }
  }
  return b.Build();
}

class TrackerInvariantProperty : public ::testing::TestWithParam<double> {};

TEST_P(TrackerInvariantProperty, HoldOnRandomVoyages) {
  tracker::TrackerParams params;
  params.turn_threshold_deg = GetParam();
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(9100 + trial * 17 + static_cast<uint64_t>(GetParam()));
    const auto tuples = RandomVoyage(rng, 500 + trial);
    tracker::MobilityTracker tracker(params);
    std::vector<tracker::CriticalPoint> cps;
    for (const auto& t : tuples) tracker.Process(t, &cps);
    tracker.Finish(&cps);

    // Invariant: accounting adds up.
    const auto& st = tracker.stats();
    EXPECT_EQ(st.processed, tuples.size());
    EXPECT_EQ(st.processed,
              st.accepted + st.stale_discarded +
                  (st.outliers_discarded - st.outlier_resets));
    EXPECT_EQ(st.critical_points, cps.size());

    // Invariant: per vessel, critical flags that bound episodes alternate
    // and never nest (a stop cannot start while one is open, etc.).
    int stop_depth = 0, slow_depth = 0, gap_depth = 0;
    Timestamp last_tau = INT64_MIN;
    std::sort(cps.begin(), cps.end(),
              [](const auto& a, const auto& b) { return a.tau < b.tau; });
    for (const auto& cp : cps) {
      EXPECT_GE(cp.tau, last_tau);
      last_tau = cp.tau;
      if (cp.Has(tracker::kStopStart)) ++stop_depth;
      if (cp.Has(tracker::kStopEnd)) --stop_depth;
      if (cp.Has(tracker::kSlowMotionStart)) ++slow_depth;
      if (cp.Has(tracker::kSlowMotionEnd)) --slow_depth;
      if (cp.Has(tracker::kGapStart)) ++gap_depth;
      if (cp.Has(tracker::kGapEnd)) --gap_depth;
      EXPECT_GE(stop_depth, 0);
      EXPECT_LE(stop_depth, 1);
      EXPECT_GE(slow_depth, 0);
      EXPECT_LE(slow_depth, 1);
      EXPECT_GE(gap_depth, 0);
      EXPECT_LE(gap_depth, 1);
      // Episode-end durations are consistent.
      if (cp.Has(tracker::kStopEnd) || cp.Has(tracker::kSlowMotionEnd) ||
          cp.Has(tracker::kGapEnd)) {
        EXPECT_GT(cp.duration, 0) << cp;
      }
      EXPECT_TRUE(geo::IsValidPosition(cp.pos)) << cp;
    }
    EXPECT_EQ(stop_depth, 0) << "stop closed by Finish";
    EXPECT_EQ(slow_depth, 0) << "slow motion closed by Finish";

    // Invariant: the synopsis is a *reduction* and reconstruction is sane.
    EXPECT_LE(cps.size(), tuples.size() + 4u);
    if (!cps.empty()) {
      const double rmse = tracker::TrajectoryRmseMeters(tuples, cps);
      EXPECT_LT(rmse, 20000.0) << "reconstruction within a few km even on "
                                  "adversarial random voyages";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TurnThresholds, TrackerInvariantProperty,
                         ::testing::Values(5.0, 10.0, 20.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return StrPrintf("Theta%d",
                                            static_cast<int>(info.param));
                         });

// ---------------------------------------------------------------------------
// Property: compression never increases when the turn threshold widens
// (more tolerance => fewer or equal critical points), on the same stream.
// ---------------------------------------------------------------------------
TEST(CompressionMonotonicityProperty, WiderThresholdNeverAddsPoints) {
  for (uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(9500 + trial);
    const auto tuples = RandomVoyage(rng, 700 + trial);
    bool first = true;
    size_t previous = 0;
    for (const double dtheta : {5.0, 10.0, 15.0, 20.0}) {
      tracker::TrackerParams params;
      params.turn_threshold_deg = dtheta;
      tracker::MobilityTracker tracker(params);
      std::vector<tracker::CriticalPoint> cps;
      for (const auto& t : tuples) tracker.Process(t, &cps);
      tracker.Finish(&cps);
      // Heading-threshold detections (turns) shrink; episode markers are
      // threshold-independent. Allow a small slack because a missed turn
      // can occasionally re-partition smooth-turn accumulation.
      if (!first) {
        EXPECT_LE(cps.size(), previous + 3)
            << "trial " << trial << " dtheta " << dtheta;
      }
      first = false;
      previous = cps.size();
    }
  }
}

}  // namespace
}  // namespace maritime
