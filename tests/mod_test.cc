#include <gtest/gtest.h>

#include <limits>

#include "mod/hermes.h"
#include "mod/store.h"
#include "mod/trips.h"

namespace maritime::mod {
namespace {

const geo::GeoPoint kPortA{24.0, 37.0};
const geo::GeoPoint kPortB{25.0, 38.0};
const geo::GeoPoint kMidway{24.5, 37.5};

surveillance::KnowledgeBase MakeKb() {
  surveillance::KnowledgeBase kb(1000.0);
  surveillance::AreaInfo a;
  a.id = 1000;
  a.name = "alpha";
  a.kind = surveillance::AreaKind::kPort;
  a.polygon = geo::Polygon::RegularPolygon(kPortA, 800.0, 10);
  kb.AddArea(a);
  a = surveillance::AreaInfo();
  a.id = 1001;
  a.name = "beta";
  a.kind = surveillance::AreaKind::kPort;
  a.polygon = geo::Polygon::RegularPolygon(kPortB, 800.0, 10);
  kb.AddArea(a);
  return kb;
}

tracker::CriticalPoint Cp(stream::Mmsi mmsi, geo::GeoPoint pos, Timestamp tau,
                          uint32_t flags = 0) {
  tracker::CriticalPoint cp;
  cp.mmsi = mmsi;
  cp.pos = pos;
  cp.tau = tau;
  cp.flags = flags;
  return cp;
}

/// A voyage A -> B as critical points: departure stop at A, two en-route
/// points, arrival stop at B.
std::vector<tracker::CriticalPoint> VoyageAtoB(stream::Mmsi mmsi,
                                               Timestamp start) {
  return {
      Cp(mmsi, kPortA, start, tracker::kStopEnd),
      Cp(mmsi, geo::Interpolate(kPortA, kMidway, 0.9), start + kHour,
         tracker::kTurn),
      Cp(mmsi, geo::Interpolate(kMidway, kPortB, 0.5), start + 2 * kHour,
         tracker::kSpeedChange),
      Cp(mmsi, kPortB, start + 3 * kHour, tracker::kStopEnd),
  };
}

/// The return voyage B -> A.
std::vector<tracker::CriticalPoint> VoyageBtoA(stream::Mmsi mmsi,
                                               Timestamp start) {
  return {
      Cp(mmsi, kPortB, start, tracker::kStopEnd),
      Cp(mmsi, geo::Interpolate(kPortB, kMidway, 0.9), start + kHour,
         tracker::kTurn),
      Cp(mmsi, geo::Interpolate(kMidway, kPortA, 0.5), start + 2 * kHour,
         tracker::kSpeedChange),
      Cp(mmsi, kPortA, start + 3 * kHour, tracker::kStopEnd),
  };
}

TEST(TripBuilderTest, SegmentsBetweenPortStops) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  std::vector<Trip> trips;
  for (const auto& cp : VoyageAtoB(7, 0)) builder.Add(cp, &trips);
  ASSERT_EQ(trips.size(), 1u);
  const Trip& t = trips[0];
  EXPECT_EQ(t.mmsi, 7u);
  EXPECT_EQ(t.origin_port, 1000);
  EXPECT_EQ(t.destination_port, 1001);
  EXPECT_EQ(t.start_tau, 0);
  EXPECT_EQ(t.end_tau, 3 * kHour);
  EXPECT_EQ(t.points.size(), 4u);
  EXPECT_GT(t.distance_m, 100000.0);  // A-B is well over 100 km
}

TEST(TripBuilderTest, UnknownOriginForVesselFirstSeenAtSea) {
  // "Origin port O may remain unknown, because the ship might have been on
  // the move when the AIS base stations started receiving its signals."
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  std::vector<Trip> trips;
  builder.Add(Cp(7, kMidway, 0, tracker::kFirst), &trips);
  builder.Add(Cp(7, kPortB, kHour, tracker::kStopEnd), &trips);
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].origin_port, -1);
  EXPECT_EQ(trips[0].destination_port, 1001);
}

TEST(TripBuilderTest, StopOutsidePortsDoesNotSegment) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  std::vector<Trip> trips;
  builder.Add(Cp(7, kPortA, 0, tracker::kStopEnd), &trips);
  builder.Add(Cp(7, kMidway, kHour, tracker::kStopEnd), &trips);  // at sea
  EXPECT_TRUE(trips.empty());
  EXPECT_EQ(builder.pending_points(), 2u);
}

TEST(TripBuilderTest, RepeatedPortStopsDoNotCreateDegenerateTrips) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb, /*min_trip_distance_m=*/1000.0);
  std::vector<Trip> trips;
  // Three stop-ends while moored in port Alpha (tiny displacements).
  builder.Add(Cp(7, kPortA, 0, tracker::kStopEnd), &trips);
  builder.Add(Cp(7, geo::DestinationPoint(kPortA, 10.0, 30.0), kHour,
                 tracker::kStopEnd),
              &trips);
  builder.Add(Cp(7, geo::DestinationPoint(kPortA, 200.0, 40.0), 2 * kHour,
                 tracker::kStopEnd),
              &trips);
  EXPECT_TRUE(trips.empty());
}

TEST(TripBuilderTest, OpenEndedTripStaysPending) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  std::vector<Trip> trips;
  builder.Add(Cp(7, kPortA, 0, tracker::kStopEnd), &trips);
  builder.Add(Cp(7, kMidway, kHour, tracker::kTurn), &trips);
  EXPECT_TRUE(trips.empty());
  EXPECT_EQ(builder.open_segments(), 1u);
  EXPECT_EQ(builder.pending_points(), 2u);
}

TEST(TrajectoryStoreTest, IndexesAndQueries) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  TrajectoryStore store;
  std::vector<Trip> trips;
  for (const auto& cp : VoyageAtoB(7, 0)) builder.Add(cp, &trips);
  for (const auto& cp : VoyageAtoB(8, kHour)) builder.Add(cp, &trips);
  for (auto& t : trips) store.AddTrip(std::move(t));
  ASSERT_EQ(store.trip_count(), 2u);

  EXPECT_EQ(store.TripsOfVessel(7).size(), 1u);
  EXPECT_EQ(store.TripsOfVessel(9).size(), 0u);
  EXPECT_EQ(store.TripsTo(1001).size(), 2u);
  EXPECT_EQ(store.TripsTo(1000).size(), 0u);

  EXPECT_EQ(store.TripsOverlapping(0, 30 * kMinute).size(), 1u);
  EXPECT_EQ(store.TripsOverlapping(0, 5 * kHour).size(), 2u);
  EXPECT_EQ(store.TripsOverlapping(10 * kHour, 20 * kHour).size(), 0u);
}

TEST(TrajectoryStoreTest, TripPointersSurviveLaterInsertions) {
  // Regression: trips_ was a std::vector, so pointers handed out by
  // TripsOfVessel/TripsTo dangled as soon as a later AddTrip reallocated the
  // backing storage (ASan catches the stale read). The deque-backed store
  // must keep them valid for the lifetime of the store.
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  TrajectoryStore store;
  std::vector<Trip> trips;
  for (const auto& cp : VoyageAtoB(7, 0)) builder.Add(cp, &trips);
  for (auto& t : trips) store.AddTrip(std::move(t));
  trips.clear();

  const std::vector<const Trip*> early = store.TripsOfVessel(7);
  ASSERT_EQ(early.size(), 1u);
  const Trip* held = early[0];
  const Timestamp held_end = held->end_tau;

  // Enough insertions to force any vector-backed store through several
  // reallocations.
  for (stream::Mmsi m = 100; m < 200; ++m) {
    for (const auto& cp : VoyageAtoB(m, static_cast<Timestamp>(m) * kHour)) {
      builder.Add(cp, &trips);
    }
  }
  for (auto& t : trips) store.AddTrip(std::move(t));
  ASSERT_GT(store.trip_count(), 100u);

  EXPECT_EQ(held->mmsi, 7u);
  EXPECT_EQ(held->end_tau, held_end);
  EXPECT_EQ(held, store.TripsOfVessel(7)[0]);
}

TEST(TrajectoryStoreTest, OriginDestinationMatrix) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  TrajectoryStore store;
  std::vector<Trip> trips;
  for (const auto& cp : VoyageAtoB(7, 0)) builder.Add(cp, &trips);
  for (const auto& cp : VoyageAtoB(8, 0)) builder.Add(cp, &trips);
  for (auto& t : trips) store.AddTrip(std::move(t));
  const auto od = store.OriginDestinationMatrix();
  ASSERT_EQ(od.size(), 1u);
  const OdCell& cell = od.at({1000, 1001});
  EXPECT_EQ(cell.trips, 2u);
  EXPECT_EQ(cell.AvgTravelTime(), 3 * kHour);
  EXPECT_GT(cell.AvgDistanceM(), 100000.0);
}

TEST(TrajectoryStoreTest, StatisticsTable4Shape) {
  const auto kb = MakeKb();
  TripBuilder builder(&kb);
  TrajectoryStore store;
  std::vector<Trip> trips;
  for (const auto& cp : VoyageAtoB(7, 0)) builder.Add(cp, &trips);
  for (const auto& cp : VoyageBtoA(7, 6 * kHour)) builder.Add(cp, &trips);
  for (const auto& cp : VoyageAtoB(8, 0)) builder.Add(cp, &trips);
  for (auto& t : trips) store.AddTrip(std::move(t));
  const TripStatistics s = store.ComputeStatistics(5);
  EXPECT_EQ(s.trip_count, 3u);
  EXPECT_EQ(s.staged_points, 5u);
  EXPECT_EQ(s.points_in_trips, 12u);
  EXPECT_NEAR(s.avg_trips_per_vessel, 1.5, 1e-9);
  EXPECT_NEAR(s.avg_points_per_trip, 4.0, 1e-9);
  EXPECT_EQ(s.avg_travel_time, 3 * kHour);
  const std::string text = s.ToString();
  EXPECT_NE(text.find("Number of trips between ports"), std::string::npos);
  EXPECT_NE(text.find("Average travel time per trip"), std::string::npos);
}

// Each trip's travel time fits a Duration, but their sum need not: it is
// held at the limit instead of overflowing.
TEST(TripStatisticsTest, TravelTimeSumsSaturate) {
  constexpr Duration kLong = std::numeric_limits<Duration>::max() / 2 + 1;
  TrajectoryStore store;
  for (int i = 0; i < 2; ++i) {
    Trip t;
    t.mmsi = 7;
    t.origin_port = 1000;
    t.destination_port = 1001;
    t.start_tau = 0;
    t.end_tau = kLong;
    store.AddTrip(std::move(t));
  }
  const TripStatistics s = store.ComputeStatistics(0);
  EXPECT_EQ(s.avg_travel_time, std::numeric_limits<Duration>::max() / 2);
  const auto od = store.OriginDestinationMatrix();
  EXPECT_EQ(od.at({1000, 1001}).total_travel_time,
            std::numeric_limits<Duration>::max());
}

TEST(TripStatisticsTest, EmptyStore) {
  TrajectoryStore store;
  const TripStatistics s = store.ComputeStatistics(0);
  EXPECT_EQ(s.trip_count, 0u);
  EXPECT_EQ(s.avg_points_per_trip, 0.0);
  EXPECT_EQ(s.avg_travel_time, 0);
}

TEST(HermesArchiverTest, PhasesMoveDataThrough) {
  const auto kb = MakeKb();
  HermesArchiver archiver(&kb);
  archiver.StageBatch(VoyageAtoB(7, 0));
  EXPECT_EQ(archiver.pending_points(), 4u);
  EXPECT_EQ(archiver.Reconstruct(), 1u);
  EXPECT_EQ(archiver.store().trip_count(), 0u) << "not loaded yet";
  EXPECT_EQ(archiver.Load(), 1u);
  EXPECT_EQ(archiver.store().trip_count(), 1u);
  // The arrival stop stays pending as the anchor of the next segment.
  EXPECT_EQ(archiver.pending_points(), 1u);
  EXPECT_EQ(archiver.timings().batches, 1u);
}

TEST(HermesArchiverTest, IncrementalBatches) {
  const auto kb = MakeKb();
  HermesArchiver archiver(&kb);
  const auto voyage = VoyageAtoB(7, 0);
  // Deliver the voyage in two delta batches, as window eviction would.
  archiver.ArchiveBatch({voyage[0], voyage[1]});
  EXPECT_EQ(archiver.store().trip_count(), 0u);
  archiver.ArchiveBatch({voyage[2], voyage[3]});
  EXPECT_EQ(archiver.store().trip_count(), 1u);
  const TripStatistics s = archiver.Statistics();
  EXPECT_EQ(s.trip_count, 1u);
  EXPECT_EQ(s.points_in_trips, 4u);
}

}  // namespace
}  // namespace maritime::mod
