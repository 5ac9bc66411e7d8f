#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "geo/geo_point.h"
#include "geo/polygon.h"
#include "geo/velocity.h"

namespace maritime::geo {
namespace {

// Piraeus and Heraklion, roughly.
const GeoPoint kPiraeus{23.6460, 37.9420};
const GeoPoint kHeraklion{25.1442, 35.3387};

TEST(GeoPointTest, ValidPositions) {
  EXPECT_TRUE(IsValidPosition(GeoPoint{0, 0}));
  EXPECT_TRUE(IsValidPosition(GeoPoint{-180, -90}));
  EXPECT_TRUE(IsValidPosition(GeoPoint{180, 90}));
  EXPECT_FALSE(IsValidPosition(GeoPoint{181, 0}));
  EXPECT_FALSE(IsValidPosition(GeoPoint{0, 91}));
  EXPECT_FALSE(IsValidPosition(GeoPoint{NAN, 0}));
}

TEST(HaversineTest, ZeroForIdenticalPoints) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kPiraeus, kPiraeus), 0.0);
}

TEST(HaversineTest, KnownDistance) {
  // Piraeus–Heraklion is about 317 km great-circle.
  const double d = HaversineMeters(kPiraeus, kHeraklion);
  EXPECT_NEAR(d, 317000.0, 5000.0);
}

TEST(HaversineTest, Symmetric) {
  EXPECT_DOUBLE_EQ(HaversineMeters(kPiraeus, kHeraklion),
                   HaversineMeters(kHeraklion, kPiraeus));
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111km) {
  const double d =
      HaversineMeters(GeoPoint{24.0, 37.0}, GeoPoint{24.0, 38.0});
  EXPECT_NEAR(d, 111195.0, 200.0);
}

TEST(HaversineBatchTest, RefMetersToMatchesScalar) {
  const HaversineRef ref(kPiraeus);
  EXPECT_EQ(ref.MetersTo(kHeraklion), HaversineMeters(kPiraeus, kHeraklion));
  EXPECT_EQ(ref.MetersTo(kPiraeus), 0.0);
}

TEST(HaversineBatchTest, MinEdgeDistanceMatchesPerEdgeSweep) {
  Rng rng(73);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<GeoPoint> ring;
    const int n = static_cast<int>(rng.NextInt(2, 12));
    for (int i = 0; i < n; ++i) {
      ring.push_back(GeoPoint{rng.NextDouble(23.0, 26.0),
                              rng.NextDouble(35.0, 38.0)});
    }
    const GeoPoint p{rng.NextDouble(23.0, 26.0), rng.NextDouble(35.0, 38.0)};
    double expected = std::numeric_limits<double>::infinity();
    for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
      expected =
          std::min(expected, DistanceToSegmentMeters(p, ring[j], ring[i]));
    }
    EXPECT_EQ(MinEdgeDistanceMeters(p, ring), expected) << "trial " << trial;
  }
}

TEST(BearingTest, CardinalDirections) {
  const GeoPoint origin{24.0, 37.0};
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint{24.0, 38.0}), 0.0, 0.01);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint{25.0, 37.0}), 90.0, 0.5);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint{24.0, 36.0}), 180.0, 0.01);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint{23.0, 37.0}), 270.0, 0.5);
}

TEST(DestinationTest, RoundTripsWithBearingAndDistance) {
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint origin{rng.NextDouble(20.0, 28.0),
                          rng.NextDouble(34.0, 41.0)};
    const double bearing = rng.NextDouble(0.0, 360.0);
    const double dist = rng.NextDouble(10.0, 50000.0);
    const GeoPoint dest = DestinationPoint(origin, bearing, dist);
    EXPECT_NEAR(HaversineMeters(origin, dest), dist, dist * 1e-6 + 0.01);
    EXPECT_NEAR(BearingDifferenceDeg(InitialBearingDeg(origin, dest), bearing),
                0.0, 0.01);
  }
}

TEST(DestinationTest, ZeroDistanceIsIdentity) {
  const GeoPoint p = DestinationPoint(kPiraeus, 123.0, 0.0);
  EXPECT_NEAR(p.lon, kPiraeus.lon, 1e-12);
  EXPECT_NEAR(p.lat, kPiraeus.lat, 1e-12);
}

TEST(InterpolateTest, Endpoints) {
  const GeoPoint a{1, 2}, b{3, 6};
  EXPECT_EQ(Interpolate(a, b, 0.0), a);
  EXPECT_EQ(Interpolate(a, b, 1.0), b);
  const GeoPoint mid = Interpolate(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.lon, 2.0);
  EXPECT_DOUBLE_EQ(mid.lat, 4.0);
}

TEST(CentroidTest, AverageOfPoints) {
  const GeoPoint c =
      Centroid({GeoPoint{0, 0}, GeoPoint{2, 0}, GeoPoint{2, 2}, GeoPoint{0, 2}});
  EXPECT_DOUBLE_EQ(c.lon, 1.0);
  EXPECT_DOUBLE_EQ(c.lat, 1.0);
}

TEST(MedianPointTest, RobustToOutlier) {
  // One far-away outlier must not drag the median point.
  std::vector<GeoPoint> pts = {GeoPoint{1.0, 1.0}, GeoPoint{1.1, 1.0},
                               GeoPoint{1.2, 1.0}, GeoPoint{1.1, 1.1},
                               GeoPoint{50.0, 50.0}};
  const GeoPoint m = MedianPoint(pts);
  EXPECT_NEAR(m.lon, 1.1, 1e-9);
  EXPECT_NEAR(m.lat, 1.0, 1e-9);
}

TEST(BearingMathTest, Normalization) {
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(370.0), 10.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(-10.0), 350.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(360.0), 0.0);
}

TEST(BearingMathTest, SignedDifference) {
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(10.0, 350.0), -20.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(90.0, 90.0), 0.0);
}

TEST(VelocityTest, ComponentsRoundTrip) {
  const Velocity v{10.0, 45.0};
  const Velocity back = Velocity::FromComponents(v.east_mps(), v.north_mps());
  EXPECT_NEAR(back.speed_knots, 10.0, 1e-9);
  EXPECT_NEAR(back.heading_deg, 45.0, 1e-9);
}

TEST(VelocityTest, BetweenTwoPoints) {
  // 1 NM due north in 6 minutes = 10 knots heading 0.
  const GeoPoint a{24.0, 37.0};
  const GeoPoint b = DestinationPoint(a, 0.0, 1852.0);
  const Velocity v = VelocityBetween(a, 0, b, 360);
  EXPECT_NEAR(v.speed_knots, 10.0, 0.01);
  EXPECT_NEAR(v.heading_deg, 0.0, 0.1);
}

TEST(VelocityTest, ZeroDisplacementHasZeroSpeed) {
  const Velocity v = VelocityBetween(kPiraeus, 0, kPiraeus, 60);
  EXPECT_DOUBLE_EQ(v.speed_knots, 0.0);
}

TEST(VelocityTest, MeanOfOpposedVelocitiesCancels) {
  const VelocityComponents a = Velocity{10.0, 0.0}.components();
  const VelocityComponents b = Velocity{10.0, 180.0}.components();
  const VelocityComponents m =
      MeanComponents(a.east_mps + b.east_mps, a.north_mps + b.north_mps, 2);
  EXPECT_NEAR(SpeedKnots(m), 0.0, 1e-9);
}

TEST(VelocityTest, DeviationCapturesHeadingChange) {
  // Same speed, opposite heading: deviation is 2x the speed.
  EXPECT_NEAR(VelocityDeviationKnots(Velocity{10.0, 0.0}.components(),
                                     Velocity{10.0, 180.0}),
              20.0, 1e-9);
  EXPECT_NEAR(VelocityDeviationKnots(Velocity{10.0, 90.0}.components(),
                                     Velocity{10.0, 90.0}),
              0.0, 1e-9);
}

class PolygonTest : public ::testing::Test {
 protected:
  // A 2x2 degree square around (24, 37).
  Polygon square_{std::vector<GeoPoint>{GeoPoint{23, 36}, GeoPoint{25, 36},
                                        GeoPoint{25, 38}, GeoPoint{23, 38}}};
};

TEST_F(PolygonTest, ContainsInterior) {
  EXPECT_TRUE(square_.Contains(GeoPoint{24, 37}));
  EXPECT_TRUE(square_.Contains(GeoPoint{23.01, 36.01}));
}

TEST_F(PolygonTest, ExcludesExterior) {
  EXPECT_FALSE(square_.Contains(GeoPoint{22.9, 37}));
  EXPECT_FALSE(square_.Contains(GeoPoint{24, 38.5}));
  EXPECT_FALSE(square_.Contains(GeoPoint{30, 30}));
}

TEST_F(PolygonTest, DistanceZeroInside) {
  EXPECT_DOUBLE_EQ(square_.DistanceMeters(GeoPoint{24, 37}), 0.0);
}

TEST_F(PolygonTest, DistanceToNearestEdge) {
  // 0.1 degrees of latitude north of the top edge ≈ 11.1 km.
  const double d = square_.DistanceMeters(GeoPoint{24, 38.1});
  EXPECT_NEAR(d, 11120.0, 100.0);
}

TEST_F(PolygonTest, BoundingBox) {
  EXPECT_DOUBLE_EQ(square_.bbox().min_lon, 23.0);
  EXPECT_DOUBLE_EQ(square_.bbox().max_lat, 38.0);
  EXPECT_TRUE(square_.bbox().Contains(GeoPoint{24, 37}));
  EXPECT_FALSE(square_.bbox().Contains(GeoPoint{22, 37}));
}

TEST_F(PolygonTest, VertexCentroid) {
  const GeoPoint c = square_.VertexCentroid();
  EXPECT_DOUBLE_EQ(c.lon, 24.0);
  EXPECT_DOUBLE_EQ(c.lat, 37.0);
}

TEST(PolygonFactoryTest, RegularPolygonApproximatesCircle) {
  const GeoPoint center{24.0, 37.0};
  const Polygon p = Polygon::RegularPolygon(center, 5000.0, 16);
  ASSERT_EQ(p.vertices().size(), 16u);
  for (const GeoPoint& v : p.vertices()) {
    EXPECT_NEAR(HaversineMeters(center, v), 5000.0, 1.0);
  }
  EXPECT_TRUE(p.Contains(center));
  EXPECT_FALSE(p.Contains(DestinationPoint(center, 90.0, 6000.0)));
  // Interior point just inside the inradius.
  EXPECT_TRUE(p.Contains(DestinationPoint(center, 45.0, 4000.0)));
}

TEST(PolygonEdgeCasesTest, EmptyPolygon) {
  const Polygon empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.Contains(GeoPoint{0, 0}));
  EXPECT_TRUE(std::isinf(empty.DistanceMeters(GeoPoint{0, 0})));
}

TEST(PolygonEdgeCasesTest, DegenerateTwoVertexPolygonNeverContains) {
  const Polygon line(std::vector<GeoPoint>{GeoPoint{0, 0}, GeoPoint{1, 1}});
  EXPECT_FALSE(line.Contains(GeoPoint{0.5, 0.5}));
}

}  // namespace
}  // namespace maritime::geo
