#include "geo/geo_point.h"

#include <algorithm>
#include <cassert>

namespace maritime::geo {

bool IsValidPosition(const GeoPoint& p) {
  return std::isfinite(p.lon) && std::isfinite(p.lat) && p.lon >= -180.0 &&
         p.lon <= 180.0 && p.lat >= -90.0 && p.lat <= 90.0;
}

double HaversineMeters(const GeoPoint& a, const GeoPoint& b) {
  // Delegating to the batch kernel keeps scalar and batched distances
  // bit-identical by construction (one formula, one evaluation order).
  return HaversineRef(a).MetersTo(b);
}

double InitialBearingDeg(const GeoPoint& a, const GeoPoint& b) {
  return InitialBearingDeg(TrackPoint(a), TrackPoint(b));
}

double InitialBearingDeg(const TrackPoint& a, const TrackPoint& b) {
  // phi1 = DegToRad(a.lat), phi2 = DegToRad(b.lat).
  const double dlambda = DegToRad(b.pos.lon - a.pos.lon);
  const double y = std::sin(dlambda) * b.cos_phi;
  const double x = a.cos_phi * b.sin_phi -
                   a.sin_phi * b.cos_phi * std::cos(dlambda);
  return NormalizeBearingDeg(RadToDeg(std::atan2(y, x)));
}

GeoPoint DestinationPoint(const GeoPoint& origin, double bearing_deg,
                          double distance_m) {
  const double delta = distance_m / kEarthRadiusMeters;
  const double theta = DegToRad(bearing_deg);
  const double phi1 = DegToRad(origin.lat);
  const double lambda1 = DegToRad(origin.lon);
  const double sin_phi2 = std::sin(phi1) * std::cos(delta) +
                          std::cos(phi1) * std::sin(delta) * std::cos(theta);
  const double phi2 = std::asin(std::clamp(sin_phi2, -1.0, 1.0));
  const double y = std::sin(theta) * std::sin(delta) * std::cos(phi1);
  const double x = std::cos(delta) - std::sin(phi1) * sin_phi2;
  const double lambda2 = lambda1 + std::atan2(y, x);
  GeoPoint out;
  out.lat = RadToDeg(phi2);
  out.lon = RadToDeg(lambda2);
  // Normalize longitude to [-180, 180].
  while (out.lon > 180.0) out.lon -= 360.0;
  while (out.lon < -180.0) out.lon += 360.0;
  return out;
}

GeoPoint Interpolate(const GeoPoint& a, const GeoPoint& b, double fraction) {
  return GeoPoint{a.lon + (b.lon - a.lon) * fraction,
                  a.lat + (b.lat - a.lat) * fraction};
}

GeoPoint Centroid(const std::vector<GeoPoint>& pts) {
  assert(!pts.empty());
  double lon = 0.0, lat = 0.0;
  for (const auto& p : pts) {
    lon += p.lon;
    lat += p.lat;
  }
  const double n = static_cast<double>(pts.size());
  return GeoPoint{lon / n, lat / n};
}

GeoPoint MedianPoint(std::span<GeoPoint> pts) {
  assert(!pts.empty());
  const size_t mid = pts.size() / 2;
  std::nth_element(pts.begin(), pts.begin() + mid, pts.end(),
                   [](const GeoPoint& a, const GeoPoint& b) {
                     return a.lon < b.lon;
                   });
  const double lon = pts[mid].lon;
  std::nth_element(pts.begin(), pts.begin() + mid, pts.end(),
                   [](const GeoPoint& a, const GeoPoint& b) {
                     return a.lat < b.lat;
                   });
  const double lat = pts[mid].lat;
  return GeoPoint{lon, lat};
}

namespace {

/// std::fmod(x, 360.0). fmod is exact, so for |x| < 360 it returns x itself;
/// bearings and their differences are nearly always in that range, and the
/// library call is skipped for them.
double Fmod360(double x) {
  return x > -360.0 && x < 360.0 ? x : std::fmod(x, 360.0);
}

}  // namespace

double NormalizeBearingDeg(double deg) {
  double d = Fmod360(deg);
  if (d < 0.0) d += 360.0;
  return d;
}

double BearingDifferenceDeg(double a, double b) {
  double d = Fmod360(b - a);
  if (d > 180.0) d -= 360.0;
  if (d <= -180.0) d += 360.0;
  return d;
}

}  // namespace maritime::geo
