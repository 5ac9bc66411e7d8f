#include "geo/velocity.h"

#include <cassert>
#include <cmath>

namespace maritime::geo {

Velocity Velocity::FromComponents(double east_mps, double north_mps) {
  Velocity v;
  v.speed_knots = SpeedKnots({east_mps, north_mps});
  v.heading_deg = v.speed_knots > 0.0 ? NormalizeBearingDeg(RadToDeg(
                                            std::atan2(east_mps, north_mps)))
                                      : 0.0;
  return v;
}

double SpeedKnots(const VelocityComponents& c) {
  return std::hypot(c.east_mps, c.north_mps) * kMpsToKnots;
}

Velocity VelocityBetween(const GeoPoint& a, Timestamp t_a, const GeoPoint& b,
                         Timestamp t_b) {
  return VelocityBetween(TrackPoint(a), t_a, TrackPoint(b), t_b);
}

Velocity VelocityBetween(const TrackPoint& a, Timestamp t_a,
                         const TrackPoint& b, Timestamp t_b, double* meters) {
  assert(t_b > t_a);
  const double dist_m = HaversineMeters(a, b);
  const double dt_s = static_cast<double>(t_b - t_a);
  Velocity v;
  v.speed_knots = (dist_m / dt_s) * kMpsToKnots;
  v.heading_deg = dist_m > 0.0 ? InitialBearingDeg(a, b) : 0.0;
  if (meters != nullptr) *meters = dist_m;
  return v;
}

VelocityComponents MeanComponents(double east_sum, double north_sum,
                                  size_t n) {
  assert(n > 0);
  return {east_sum / static_cast<double>(n),
          north_sum / static_cast<double>(n)};
}

double VelocityDeviationKnots(const VelocityComponents& a, const Velocity& b) {
  const double de = a.east_mps - b.east_mps();
  const double dn = a.north_mps - b.north_mps();
  return std::hypot(de, dn) * kMpsToKnots;
}

}  // namespace maritime::geo
