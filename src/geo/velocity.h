#ifndef MARITIME_GEO_VELOCITY_H_
#define MARITIME_GEO_VELOCITY_H_

#include "common/time.h"
#include "geo/geo_point.h"

namespace maritime::geo {

/// Cartesian form of a velocity, in m/s.
struct VelocityComponents {
  double east_mps = 0.0;
  double north_mps = 0.0;
};

/// An instantaneous velocity vector: speed over ground plus heading. The
/// mobility tracker maintains one such vector per vessel, computed from its
/// two most recent positions (paper Section 3.1).
struct Velocity {
  double speed_knots = 0.0;   ///< Magnitude, in knots (>= 0).
  double heading_deg = 0.0;   ///< Direction, degrees clockwise from north.

  /// Eastward component in m/s.
  double east_mps() const {
    return speed_knots * kKnotsToMps * std::sin(DegToRad(heading_deg));
  }
  /// Northward component in m/s.
  double north_mps() const {
    return speed_knots * kKnotsToMps * std::cos(DegToRad(heading_deg));
  }

  /// Both components, each evaluated as east_mps()/north_mps() evaluate it.
  VelocityComponents components() const { return {east_mps(), north_mps()}; }

  /// Builds a velocity from east/north components in m/s.
  static Velocity FromComponents(double east_mps, double north_mps);
};

/// Velocity derived from two timestamped positions via linear interpolation
/// (paper footnote 2). Precondition: t_b > t_a.
Velocity VelocityBetween(const GeoPoint& a, Timestamp t_a, const GeoPoint& b,
                         Timestamp t_b);

/// VelocityBetween for positions whose latitude trig is at hand, which the
/// distance and the bearing share (the same expressions in both formulas).
/// When `meters` is given it receives the Haversine distance the speed was
/// derived from, bit-identical to HaversineMeters(a.pos, b.pos).
Velocity VelocityBetween(const TrackPoint& a, Timestamp t_a,
                         const TrackPoint& b, Timestamp t_b,
                         double* meters = nullptr);

/// Components of the mean velocity vector of n velocities whose components
/// sum to (east_sum, north_sum), each sum taken in sequence order (vector
/// average, so opposing headings cancel — this is the v_m the paper uses to
/// spot off-course outliers). Precondition: n > 0.
VelocityComponents MeanComponents(double east_sum, double north_sum,
                                  size_t n);

/// The speed of Velocity::FromComponents(c.east_mps, c.north_mps), without
/// evaluating its heading.
double SpeedKnots(const VelocityComponents& c);

/// Euclidean norm of the vector difference between two velocities, `a`
/// given by its components, in knots. Captures "abrupt change in velocity
/// (both in speed and heading)".
double VelocityDeviationKnots(const VelocityComponents& a, const Velocity& b);

}  // namespace maritime::geo

#endif  // MARITIME_GEO_VELOCITY_H_
