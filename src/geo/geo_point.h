#ifndef MARITIME_GEO_GEO_POINT_H_
#define MARITIME_GEO_GEO_POINT_H_

#include <cmath>
#include <ostream>
#include <span>
#include <vector>

namespace maritime::geo {

/// Mean Earth radius in meters (IUGG value used by the Haversine formula).
inline constexpr double kEarthRadiusMeters = 6371008.8;

inline constexpr double kPi = 3.14159265358979323846;

/// Conversion between knots and meters/second (1 knot = 1852 m / 3600 s).
inline constexpr double kKnotsToMps = 1852.0 / 3600.0;
inline constexpr double kMpsToKnots = 3600.0 / 1852.0;

inline constexpr double DegToRad(double deg) { return deg * kPi / 180.0; }
inline constexpr double RadToDeg(double rad) { return rad * 180.0 / kPi; }

/// A geographic position in degrees: longitude in [-180, 180], latitude in
/// [-90, 90]. Vessels are abstracted as 2-D point entities (paper Section 2).
struct GeoPoint {
  double lon = 0.0;
  double lat = 0.0;

  friend bool operator==(const GeoPoint& a, const GeoPoint& b) {
    return a.lon == b.lon && a.lat == b.lat;
  }
};

inline std::ostream& operator<<(std::ostream& os, const GeoPoint& p) {
  return os << "(" << p.lon << "," << p.lat << ")";
}

/// True iff lon/lat are inside their legal ranges.
bool IsValidPosition(const GeoPoint& p);

/// Great-circle distance between `a` and `b` in meters (Haversine formula,
/// the distance the paper uses both in the tracker and in RTEC's `close`
/// predicate).
double HaversineMeters(const GeoPoint& a, const GeoPoint& b);

/// One endpoint of a Haversine batch with its latitude trig hoisted: every
/// distance against the same reference point reuses cos(lat_ref) instead of
/// recomputing it, which is the dominant shared subexpression of the formula
/// (and of the planar projection in segment distances). MetersTo evaluates
/// the exact expression HaversineMeters does, in the same order, so batched
/// and scalar distances are bit-identical.
struct HaversineRef {
  double lon = 0.0;
  double lat = 0.0;
  double cos_phi = 1.0;  ///< cos(DegToRad(lat)).

  HaversineRef() = default;
  explicit HaversineRef(const GeoPoint& p)
      : HaversineRef(p, std::cos(DegToRad(p.lat))) {}
  /// With `cos_phi` = cos(DegToRad(p.lat)) already at hand.
  HaversineRef(const GeoPoint& p, double cos_phi_p)
      : lon(p.lon), lat(p.lat), cos_phi(cos_phi_p) {}

  double MetersTo(const GeoPoint& q) const {
    return MetersTo(q, std::cos(DegToRad(q.lat)));
  }

  /// MetersTo with `cos_phi_q` = cos(DegToRad(q.lat)) already at hand.
  double MetersTo(const GeoPoint& q, double cos_phi_q) const {
    const double dphi = DegToRad(q.lat - lat);
    const double dlambda = DegToRad(q.lon - lon);
    const double sin_dphi = std::sin(dphi / 2.0);
    const double sin_dlambda = std::sin(dlambda / 2.0);
    const double h = sin_dphi * sin_dphi +
                     cos_phi * cos_phi_q * sin_dlambda * sin_dlambda;
    return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
  }
};

/// Initial bearing from `a` to `b` in degrees clockwise from true north,
/// normalized to [0, 360).
double InitialBearingDeg(const GeoPoint& a, const GeoPoint& b);

/// A position with the sine and cosine of its latitude, evaluated once so a
/// track's consecutive distance/bearing computations can share them.
struct TrackPoint {
  GeoPoint pos;
  double sin_phi = 0.0;  ///< std::sin(DegToRad(pos.lat)).
  double cos_phi = 1.0;  ///< std::cos(DegToRad(pos.lat)).

  TrackPoint() = default;
  explicit TrackPoint(const GeoPoint& p)
      : pos(p),
        sin_phi(std::sin(DegToRad(p.lat))),
        cos_phi(std::cos(DegToRad(p.lat))) {}
};

/// HaversineMeters and InitialBearingDeg with both latitudes' trig already
/// at hand; the same expressions, so the same results.
inline double HaversineMeters(const TrackPoint& a, const TrackPoint& b) {
  return HaversineRef(a.pos, a.cos_phi).MetersTo(b.pos, b.cos_phi);
}
double InitialBearingDeg(const TrackPoint& a, const TrackPoint& b);

/// Point reached by travelling `distance_m` meters from `origin` on the
/// great circle with initial bearing `bearing_deg`.
GeoPoint DestinationPoint(const GeoPoint& origin, double bearing_deg,
                          double distance_m);

/// Linear interpolation between `a` (at fraction 0) and `b` (at fraction 1).
/// The paper applies linear interpolation between successive samples; over
/// the short distances involved a planar interpolation of coordinates is an
/// adequate local approximation (paper footnote 2).
GeoPoint Interpolate(const GeoPoint& a, const GeoPoint& b, double fraction);

/// Arithmetic centroid of a non-empty set of points (used to represent a
/// long-term stop by a single point, paper Section 3.1).
GeoPoint Centroid(const std::vector<GeoPoint>& pts);

/// Coordinate-wise median of a non-empty set of points (used to represent a
/// slow-motion episode, paper Section 3.1). Reorders `pts`.
GeoPoint MedianPoint(std::span<GeoPoint> pts);

/// Normalizes an angle in degrees to [0, 360).
double NormalizeBearingDeg(double deg);

/// Smallest signed difference `b - a` between two bearings, in (-180, 180].
double BearingDifferenceDeg(double a, double b);

}  // namespace maritime::geo

#endif  // MARITIME_GEO_GEO_POINT_H_
