#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "sim/scenarios.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"

namespace maritime::tracker {
namespace {

using sim::TraceBuilder;
using stream::PositionTuple;

const geo::GeoPoint kOrigin{24.0, 37.0};
constexpr stream::Mmsi kShip = 23700001;

std::vector<CriticalPoint> RunTracker(
    MobilityTracker& tracker, const std::vector<PositionTuple>& tuples,
    bool finish = true) {
  std::vector<CriticalPoint> out;
  for (const auto& t : tuples) tracker.Process(t, &out);
  if (finish) tracker.Finish(&out);
  return out;
}

size_t CountFlag(const std::vector<CriticalPoint>& cps, CriticalFlag f) {
  return static_cast<size_t>(
      std::count_if(cps.begin(), cps.end(),
                    [f](const CriticalPoint& c) { return c.Has(f); }));
}

TEST(TrackerParamsTest, DefaultsValid) {
  EXPECT_TRUE(TrackerParams().Validate().ok());
}

TEST(TrackerParamsTest, RejectsBadValues) {
  TrackerParams p;
  p.min_speed_knots = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = TrackerParams();
  p.speed_change_ratio = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = TrackerParams();
  p.history_size = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = TrackerParams();
  p.turn_threshold_deg = 200.0;
  EXPECT_FALSE(p.Validate().ok());
  p = TrackerParams();
  p.slow_speed_knots = 0.5;  // below min_speed
  EXPECT_FALSE(p.Validate().ok());
}

TEST(CriticalFlagsTest, Stringification) {
  EXPECT_EQ(CriticalFlagsToString(0), "none");
  EXPECT_EQ(CriticalFlagsToString(kTurn), "turn");
  EXPECT_EQ(CriticalFlagsToString(kTurn | kSpeedChange),
            "turn|speed_change");
}

TEST(TrackerTest, FirstPositionIsCritical) {
  MobilityTracker tracker;
  const auto cps = RunTracker(
      tracker, {PositionTuple{kShip, kOrigin, 100}}, /*finish=*/false);
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_TRUE(cps[0].Has(kFirst));
  EXPECT_EQ(cps[0].tau, 100);
}

TEST(TrackerTest, StraightCruiseEmitsNothingInBetween) {
  // A vessel on a straight, constant-speed course contributes no critical
  // points beyond its first/last anchors: the paper's core compression
  // claim.
  MobilityTracker tracker;
  const auto tuples =
      TraceBuilder(kShip, kOrigin, 0).Cruise(45.0, 12.0, 2 * kHour, 30).Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_EQ(cps.size(), 2u);
  EXPECT_TRUE(cps.front().Has(kFirst));
  EXPECT_TRUE(cps.back().Has(kLast));
  EXPECT_GT(tracker.stats().processed, 200u);
  EXPECT_GT(tracker.stats().CompressionRatio(), 0.98);
}

TEST(TrackerTest, StaleTuplesDiscarded) {
  MobilityTracker tracker;
  std::vector<CriticalPoint> out;
  tracker.Process({kShip, kOrigin, 100}, &out);
  tracker.Process({kShip, kOrigin, 90}, &out);   // older
  tracker.Process({kShip, kOrigin, 100}, &out);  // duplicate time
  EXPECT_EQ(tracker.stats().stale_discarded, 2u);
  EXPECT_EQ(tracker.stats().accepted, 1u);
}

TEST(TrackerTest, SharpTurnDetected) {
  MobilityTracker tracker;  // default Δθ = 5°
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Cruise(40.0, 12.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_GE(CountFlag(cps, kTurn), 1u);
}

TEST(TrackerTest, TurnBelowThresholdIgnored) {
  TrackerParams p;
  p.turn_threshold_deg = 15.0;
  MobilityTracker tracker(p);
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Cruise(10.0, 12.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_EQ(CountFlag(cps, kTurn), 0u);
  // The 10° change still accumulates as a smooth turn (cumulative < Δθ here,
  // single change of 10 < 15): nothing at all.
  EXPECT_EQ(CountFlag(cps, kSmoothTurn), 0u);
}

TEST(TrackerTest, SmoothTurnAccumulates) {
  TrackerParams p;
  p.turn_threshold_deg = 15.0;
  MobilityTracker tracker(p);
  // 3° per report: each below Δθ=15°, cumulatively 36° — a smooth turn.
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 10 * kMinute, 30)
                          .SmoothTurn(36.0, 12, 12.0, 30)
                          .Cruise(36.0, 12.0, 10 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_GE(CountFlag(cps, kSmoothTurn), 1u);
  EXPECT_EQ(CountFlag(cps, kTurn), 0u);
}

TEST(TrackerTest, SpeedChangeDetected) {
  MobilityTracker tracker;  // α = 25%
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 14.0, 20 * kMinute, 30)
                          .Cruise(0.0, 7.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_GE(CountFlag(cps, kSpeedChange), 1u);
}

TEST(TrackerTest, SmallSpeedFluctuationIgnored) {
  MobilityTracker tracker;
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Cruise(0.0, 11.0, 20 * kMinute, 30)  // ~8% change
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_EQ(CountFlag(cps, kSpeedChange), 0u);
}

TEST(TrackerTest, LongTermStopStartAndEnd) {
  MobilityTracker tracker;  // m = 10, r = 200 m
  const Timestamp stop_begin = 20 * kMinute;
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, stop_begin, 30)
                          .Drift(40 * kMinute, 60, 10.0)
                          .Cruise(90.0, 12.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  ASSERT_EQ(CountFlag(cps, kStopStart), 1u);
  ASSERT_EQ(CountFlag(cps, kStopEnd), 1u);
  const auto start = std::find_if(
      cps.begin(), cps.end(),
      [](const CriticalPoint& c) { return c.Has(kStopStart); });
  const auto end = std::find_if(
      cps.begin(), cps.end(),
      [](const CriticalPoint& c) { return c.Has(kStopEnd); });
  // The stop begins at (roughly) the first drift sample and lasts ~40 min.
  EXPECT_NEAR(static_cast<double>(start->tau),
              static_cast<double>(stop_begin), 2.0 * 60.0 + 1.0);
  EXPECT_GT(end->duration, 30 * kMinute);
  EXPECT_LE(end->duration, 41 * kMinute);
  // The representative point (centroid) is near the actual anchorage.
  const geo::GeoPoint anchorage =
      geo::DestinationPoint(kOrigin, 0.0,
                            12.0 * geo::kKnotsToMps * stop_begin);
  EXPECT_LT(geo::HaversineMeters(end->pos, anchorage), 100.0);
}

TEST(TrackerTest, ShortPauseIsNotAStop) {
  MobilityTracker tracker;  // m = 10
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Hold(4 * kMinute, 60)  // only 4 pause samples
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_EQ(CountFlag(cps, kStopStart), 0u);
  EXPECT_EQ(CountFlag(cps, kStopEnd), 0u);
}

TEST(TrackerTest, SlowMotionDetected) {
  MobilityTracker tracker;  // slow threshold 4 kn, m = 10
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 10.0, 20 * kMinute, 30)
                          .Cruise(0.0, 2.8, 30 * kMinute, 60)  // trawling
                          .Cruise(0.0, 10.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_EQ(CountFlag(cps, kSlowMotionStart), 1u);
  EXPECT_EQ(CountFlag(cps, kSlowMotionEnd), 1u);
  // Slow-motion samples spread along a path: no stop detected.
  EXPECT_EQ(CountFlag(cps, kStopStart), 0u);
}

TEST(TrackerTest, GapDetectedRetrospectively) {
  MobilityTracker tracker;  // ΔT = 10 min
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Silence(30 * kMinute)
                          .Cruise(0.0, 12.0, 20 * kMinute, 30)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  ASSERT_EQ(CountFlag(cps, kGapStart), 1u);
  ASSERT_EQ(CountFlag(cps, kGapEnd), 1u);
  const auto gs = std::find_if(cps.begin(), cps.end(), [](const auto& c) {
    return c.Has(kGapStart);
  });
  const auto ge = std::find_if(cps.begin(), cps.end(), [](const auto& c) {
    return c.Has(kGapEnd);
  });
  EXPECT_EQ(ge->tau - gs->tau, ge->duration);
  EXPECT_GE(ge->duration, 30 * kMinute);
}

TEST(TrackerTest, GapDetectedOnlineByAdvanceTo) {
  MobilityTracker tracker;
  std::vector<CriticalPoint> out;
  const auto tuples =
      TraceBuilder(kShip, kOrigin, 0).Cruise(0.0, 12.0, 10 * kMinute, 30)
          .Build();
  for (const auto& t : tuples) tracker.Process(t, &out);
  const Timestamp last_report = tuples.back().tau;
  out.clear();
  // Query times keep firing while the vessel is silent.
  tracker.AdvanceTo(last_report + 5 * kMinute, &out);
  EXPECT_EQ(CountFlag(out, kGapStart), 0u) << "not silent long enough yet";
  tracker.AdvanceTo(last_report + 11 * kMinute, &out);
  ASSERT_EQ(CountFlag(out, kGapStart), 1u);
  EXPECT_EQ(out[0].tau, last_report) << "gap reported at its starting point";
  // No duplicate report on later slides.
  tracker.AdvanceTo(last_report + kHour, &out);
  EXPECT_EQ(CountFlag(out, kGapStart), 1u);
  // When the vessel resumes, the gap closes.
  out.clear();
  tracker.Process({kShip, kOrigin, last_report + 2 * kHour}, &out);
  ASSERT_EQ(CountFlag(out, kGapEnd), 1u);
  EXPECT_EQ(out[0].duration, 2 * kHour);
}

// Feed timestamps are arbitrary int64 values, so the span between two of
// them may not fit a Duration. A forward jump that does not fit saturates:
// it reads as a gap, never as a negative or wrapped span.
TEST(TrackerTest, JumpBeyondTheDurationRangeIsAGap) {
  constexpr Timestamp kEarly = -9'000'000'000'000'000'000;
  constexpr Timestamp kLate = 9'000'000'000'000'000'000;
  constexpr Duration kLongest = std::numeric_limits<Duration>::max();
  {
    MobilityTracker tracker;
    std::vector<CriticalPoint> out;
    tracker.Process({kShip, kOrigin, kEarly}, &out);
    tracker.Process({kShip, kOrigin, kLate}, &out);
    ASSERT_EQ(CountFlag(out, kGapStart), 1u);
    ASSERT_EQ(CountFlag(out, kGapEnd), 1u);
    EXPECT_EQ(out.back().tau, kLate);
    EXPECT_EQ(out.back().duration, kLongest);
    // Back to the early time: a stale report, not a gap.
    out.clear();
    tracker.Process({kShip, kOrigin, kEarly}, &out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(tracker.stats().stale_discarded, 1u);
  }
  {
    // The same jump seen by a query time far past the last report.
    MobilityTracker tracker;
    std::vector<CriticalPoint> out;
    tracker.Process({kShip, kOrigin, kEarly}, &out);
    out.clear();
    tracker.AdvanceTo(kLate, &out);
    ASSERT_EQ(CountFlag(out, kGapStart), 1u);
    EXPECT_EQ(out[0].tau, kEarly);
    out.clear();
    tracker.Process({kShip, kOrigin, kLate}, &out);
    ASSERT_EQ(CountFlag(out, kGapEnd), 1u);
    EXPECT_EQ(out[0].duration, kLongest);
  }
}

TEST(TrackerTest, StopInterruptedByGapIsClosed) {
  MobilityTracker tracker;
  const auto tuples = TraceBuilder(kShip, kOrigin, 0)
                          .Cruise(0.0, 12.0, 10 * kMinute, 30)
                          .Drift(30 * kMinute, 60, 8.0)
                          .Silence(kHour, /*keep_moving=*/false)
                          .Drift(10 * kMinute, 60, 8.0)
                          .Build();
  const auto cps = RunTracker(tracker, tuples);
  // The stop must have been finalized before the gap started.
  ASSERT_GE(CountFlag(cps, kStopEnd), 1u);
  ASSERT_GE(CountFlag(cps, kGapStart), 1u);
  const auto stop_end = std::find_if(cps.begin(), cps.end(), [](const auto& c) {
    return c.Has(kStopEnd);
  });
  const auto gap_start = std::find_if(
      cps.begin(), cps.end(), [](const auto& c) { return c.Has(kGapStart); });
  EXPECT_LE(stop_end->tau, gap_start->tau);
}

TEST(TrackerTest, OutlierDiscarded) {
  MobilityTracker tracker;
  auto builder = TraceBuilder(kShip, kOrigin, 0);
  builder.Cruise(0.0, 10.0, 20 * kMinute, 30)
      .Outlier(4000.0, 90.0, 30)
      .Cruise(0.0, 10.0, 20 * kMinute, 30);
  const auto tuples = std::move(builder).Build();
  const auto cps = RunTracker(tracker, tuples);
  EXPECT_EQ(tracker.stats().outliers_discarded, 1u);
  // The bogus position must not appear among the critical points: every
  // critical point stays on (or near) the true track, far from the 4 km
  // offset where the outlier was injected.
  const geo::GeoPoint true_track_abeam = geo::DestinationPoint(
      kOrigin, 0.0, 10.0 * geo::kKnotsToMps * 20.0 * 60.0);  // 20 min @10 kn
  const geo::GeoPoint bogus =
      geo::DestinationPoint(true_track_abeam, 90.0, 4000.0);
  for (const auto& cp : cps) {
    EXPECT_GT(geo::HaversineMeters(cp.pos, bogus), 1000.0) << cp;
  }
}

TEST(TrackerTest, PersistentDeviationResetsInsteadOfDiscardingForever) {
  TrackerParams p;
  p.outlier_reset_count = 3;
  MobilityTracker tracker(p);
  std::vector<CriticalPoint> out;
  // Steady 10 kn north for 15 samples.
  auto builder = TraceBuilder(kShip, kOrigin, 0);
  builder.Cruise(0.0, 10.0, 8 * kMinute, 30);
  for (const auto& t : builder.tuples()) tracker.Process(t, &out);
  // Then the vessel genuinely jumps: a fast run at a wildly different
  // velocity (e.g. corrected GPS). After outlier_reset_count consecutive
  // "outliers" the tracker accepts the new course.
  const geo::GeoPoint far =
      geo::DestinationPoint(builder.position(), 90.0, 20000.0);
  Timestamp t = builder.now();
  for (int i = 0; i < 5; ++i) {
    t += 30;
    tracker.Process(
        {kShip, geo::DestinationPoint(far, 0.0, 100.0 * i), t}, &out);
  }
  EXPECT_GE(tracker.stats().outlier_resets, 1u);
  const VesselState* vs = tracker.FindVessel(kShip);
  ASSERT_NE(vs, nullptr);
  EXPECT_LT(geo::HaversineMeters(vs->last.pos, far), 1000.0);
}

TEST(TrackerTest, PerVesselIsolation) {
  MobilityTracker tracker;
  const auto a = TraceBuilder(kShip, kOrigin, 0)
                     .Cruise(0.0, 12.0, 30 * kMinute, 30)
                     .Build();
  const auto b = TraceBuilder(kShip + 1, geo::GeoPoint{25.0, 38.0}, 0)
                     .Cruise(180.0, 8.0, 30 * kMinute, 30)
                     .Build();
  const auto merged = sim::MergeTraces({a, b});
  const auto cps = RunTracker(tracker, merged);
  EXPECT_EQ(tracker.vessel_count(), 2u);
  // Interleaving two straight cruises must not create spurious events.
  EXPECT_EQ(CountFlag(cps, kTurn), 0u);
  EXPECT_EQ(CountFlag(cps, kFirst), 2u);
  EXPECT_EQ(CountFlag(cps, kLast), 2u);
}

TEST(TrackerTest, ComplexityIsBoundedPerVesselState) {
  // O(m) state: the recent-velocity and heading rings must stay at m.
  TrackerParams p;
  p.history_size = 10;
  MobilityTracker tracker(p);
  const auto tuples =
      TraceBuilder(kShip, kOrigin, 0).Cruise(0.0, 12.0, 3 * kHour, 30).Build();
  std::vector<CriticalPoint> out;
  for (const auto& t : tuples) tracker.Process(t, &out);
  const VesselState* vs = tracker.FindVessel(kShip);
  ASSERT_NE(vs, nullptr);
  // Fixed-capacity rings of m: full after a long cruise, never larger.
  EXPECT_EQ(vs->recent_velocities.capacity(), 10u);
  EXPECT_EQ(vs->recent_velocities.size(), 10u);
  EXPECT_EQ(vs->heading_diffs.capacity(), 10u);
  EXPECT_LE(vs->heading_diffs.size(), 10u);
  EXPECT_EQ(vs->slow_samples.capacity(), 10u);
  EXPECT_LE(vs->slow_samples.size(), 10u);
}

TEST(CompressorTest, CoalescesSameVesselSameTime) {
  Compressor c;
  CriticalPoint a;
  a.mmsi = kShip;
  a.tau = 100;
  a.flags = kTurn;
  CriticalPoint b = a;
  b.flags = kSpeedChange;
  b.duration = 60;
  std::vector<CriticalPoint> out = {a, b};
  c.Compress(&out, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flags, kTurn | kSpeedChange);
  EXPECT_EQ(out[0].duration, 60);
  EXPECT_EQ(c.stats().raw_positions, 10u);
  EXPECT_EQ(c.stats().critical_points, 1u);
  EXPECT_NEAR(c.stats().ratio(), 0.9, 1e-12);
}

TEST(CompressorTest, SortsStreamOrder) {
  Compressor c;
  CriticalPoint a;
  a.mmsi = 2;
  a.tau = 100;
  CriticalPoint b;
  b.mmsi = 1;
  b.tau = 200;
  CriticalPoint d;
  d.mmsi = 1;
  d.tau = 50;
  std::vector<CriticalPoint> out = {a, b, d};
  c.Compress(&out, 3);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tau, 50);
  EXPECT_EQ(out[1].tau, 100);
  EXPECT_EQ(out[2].tau, 200);
}

TEST(CompressorTest, EmptyBatch) {
  Compressor c;
  std::vector<CriticalPoint> out;
  c.Compress(&out, 100);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(c.stats().raw_positions, 100u);
  EXPECT_NEAR(c.stats().ratio(), 1.0, 1e-12);
}

// The off-course test as first written, before the cached components and
// the early-out: v_m as a Velocity from the mean of the last m velocities'
// components, then the deviation of v_now from it.
bool ReferenceOffCourse(const std::vector<geo::Velocity>& history, size_t m,
                        const geo::Velocity& v_now, const TrackerParams& p) {
  const size_t first = history.size() > m ? history.size() - m : 0;
  const size_t n = history.size() - first;
  if (n < 3) return false;
  double east = 0.0, north = 0.0;
  for (size_t i = first; i < history.size(); ++i) {
    east += history[i].east_mps();
    north += history[i].north_mps();
  }
  east /= static_cast<double>(n);
  north /= static_cast<double>(n);
  const double mps = std::hypot(east, north);
  geo::Velocity v_m;
  v_m.speed_knots = mps * geo::kMpsToKnots;
  v_m.heading_deg =
      mps > 0.0
          ? geo::NormalizeBearingDeg(geo::RadToDeg(std::atan2(east, north)))
          : 0.0;
  const double deviation = std::hypot(v_now.east_mps() - v_m.east_mps(),
                                      v_now.north_mps() - v_m.north_mps()) *
                           geo::kMpsToKnots;
  const double threshold = std::max(p.outlier_min_speed_knots,
                                    p.outlier_speed_factor * v_m.speed_knots);
  return deviation > threshold;
}

TEST(OffCourseTest, MatchesFullComputationNearThreshold) {
  std::mt19937 rng(20261016);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double kEps[] = {0.0,   1e-15, -1e-15, 1e-12, -1e-12,
                         1e-9,  -1e-9, 2e-9,   -2e-9, 1e-6,  -1e-6};
  const size_t m = 10;
  uint64_t cases = 0, mismatches = 0, off_course = 0, on_course = 0;
  for (int round = 0; round < 20000; ++round) {
    TrackerParams p;
    if (round % 3 != 0) p.outlier_speed_factor = 1.0 + 4.0 * unit(rng);
    if (round % 4 == 1) p.outlier_min_speed_knots = 0.5 + 40.0 * unit(rng);
    if (round % 4 == 2) p.outlier_min_speed_knots = 0.0;

    // Histories: empty to twice m (so the ring wraps), at zero, slow or
    // cruising speeds, with a random or a common heading.
    std::vector<geo::Velocity> history(rng() % (2 * m + 1));
    const int speed_kind = static_cast<int>(rng() % 4);
    const bool common_heading = rng() % 2 == 0;
    const double heading0 = 360.0 * unit(rng);
    for (geo::Velocity& v : history) {
      v.speed_knots = speed_kind == 0   ? 0.0
                      : speed_kind == 1 ? 0.5 * unit(rng)
                                        : 30.0 * unit(rng);
      v.heading_deg = common_heading ? heading0 : 360.0 * unit(rng);
    }
    std::vector<geo::VelocityComponents> slots(m);
    Ring<geo::VelocityComponents> recent(slots.data(), m);
    for (const geo::Velocity& v : history) recent.push_back(v.components());

    // v_m and the threshold, for placing v_now around it.
    double east = 0.0, north = 0.0;
    const size_t first = history.size() > m ? history.size() - m : 0;
    for (size_t i = first; i < history.size(); ++i) {
      east += history[i].east_mps();
      north += history[i].north_mps();
    }
    const double n =
        static_cast<double>(std::max<size_t>(1, history.size() - first));
    const geo::Velocity v_m =
        geo::Velocity::FromComponents(east / n, north / n);
    const double threshold = std::max(p.outlier_min_speed_knots,
                                      p.outlier_speed_factor * v_m.speed_knots);

    std::vector<geo::Velocity> candidates;
    candidates.push_back(geo::Velocity{0.0, 0.0});
    candidates.push_back(geo::Velocity{40.0 * unit(rng), 360.0 * unit(rng)});
    for (const double eps : kEps) {
      // Deviation |v_now - v_m| = threshold (1 + eps) in a random direction.
      const double dir = geo::DegToRad(360.0 * unit(rng));
      const double r = threshold * (1.0 + eps) * geo::kKnotsToMps;
      candidates.push_back(geo::Velocity::FromComponents(
          v_m.east_mps() + r * std::sin(dir),
          v_m.north_mps() + r * std::cos(dir)));
      // Anti-parallel to v_m, where |v_now| + |v_m| is the deviation and the
      // early-out's bound is tight.
      const double s = (threshold - v_m.speed_knots) * (1.0 + eps);
      if (s >= 0.0) {
        candidates.push_back(geo::Velocity{
            s, geo::NormalizeBearingDeg(v_m.heading_deg + 180.0)});
      }
    }
    for (const geo::Velocity& v_now : candidates) {
      const bool expected = ReferenceOffCourse(history, m, v_now, p);
      const bool got = IsOffCourse(recent, v_now, v_now.components(), p);
      ++cases;
      if (got != expected) {
        if (mismatches == 0) {
          ADD_FAILURE() << "first mismatch: history " << history.size()
                        << ", v_now " << v_now.speed_knots << " kn @ "
                        << v_now.heading_deg << ", expected " << expected;
        }
        ++mismatches;
      }
      if (history.size() >= 3 && v_now.speed_knots > 0.0) {
        (expected ? off_course : on_course)++;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
  // Both outcomes are well represented.
  EXPECT_GT(off_course, cases / 10);
  EXPECT_GT(on_course, cases / 10);
}

}  // namespace
}  // namespace maritime::tracker
