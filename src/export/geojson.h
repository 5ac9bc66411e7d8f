#ifndef MARITIME_EXPORT_GEOJSON_H_
#define MARITIME_EXPORT_GEOJSON_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geo/polygon.h"
#include "stream/position.h"
#include "tracker/critical_point.h"

namespace maritime::exporter {

/// GeoJSON FeatureCollection builder for map display (modern chart plotters
/// and web maps consume GeoJSON directly).
class GeoJsonWriter {
 public:
  GeoJsonWriter() = default;

  /// Adds a LineString feature with a "name" property.
  void AddTrajectory(const std::string& name,
                     const std::vector<geo::GeoPoint>& points);

  /// Adds one Point feature per critical point, with mmsi / tau / flags /
  /// speed properties.
  void AddCriticalPoints(const std::vector<tracker::CriticalPoint>& points);

  /// Adds a Polygon feature (ring closed automatically) with name/kind
  /// properties.
  void AddPolygon(const std::string& name, const std::string& kind,
                  const std::vector<geo::GeoPoint>& ring);

  /// The complete FeatureCollection document.
  std::string Finish() const;

  Status WriteFile(const std::string& path) const;

  size_t feature_count() const { return features_.size(); }

 private:
  std::vector<std::string> features_;
};

}  // namespace maritime::exporter

#endif  // MARITIME_EXPORT_GEOJSON_H_
