// Protected-area monitor: paper Scenario 3 (illegalShipping).
//
// A tanker approaches the National-Marine-Park-like protected area, switches
// its AIS transponder off just outside, crosses the park dark, and resumes
// reporting on the far side. The trajectory detection component reports the
// communication gap at its starting point; RTEC rule (5) raises
// illegalShipping because the gap started close to a protected area.
//
// The example also exports the vessel's compressed trajectory, its critical
// points and the park polygon as GeoJSON for map display.

#include <cstdio>
#include <vector>

#include "export/geojson.h"
#include "maritime/alerts.h"
#include "maritime/pipeline.h"
#include "sim/scenarios.h"
#include "sim/world.h"
#include "stream/replayer.h"

int main() {
  using namespace maritime;

  sim::World world = sim::BuildWorld(/*seed=*/13);
  const surveillance::AreaInfo* park = nullptr;
  for (const auto& a : world.knowledge.areas()) {
    if (a.kind == surveillance::AreaKind::kProtected) {
      park = &a;
      break;
    }
  }
  if (park == nullptr) {
    std::fprintf(stderr, "no protected area in world\n");
    return 1;
  }
  std::printf("monitoring %s (area %d), close threshold %.0f m\n",
              park->name.c_str(), park->id,
              world.knowledge.close_threshold_m());

  // Static vessel data for the suspect.
  surveillance::VesselInfo tanker;
  tanker.mmsi = 237099900;
  tanker.name = "MT NIGHTRUNNER";
  tanker.type = surveillance::VesselType::kTanker;
  tanker.draft_m = 11.5;
  world.knowledge.AddVessel(tanker);

  // Script the intrusion: approach from the west, go dark just after
  // entering the park, cross it in silence (~65 min at 12 kn), resume well
  // past the far side.
  const geo::GeoPoint center = park->polygon.VertexCentroid();
  const geo::GeoPoint start = geo::DestinationPoint(center, 270.0, 40000.0);
  sim::TraceBuilder trace(tanker.mmsi, start, 0);
  const double approach_m = 40000.0 - 600.0;
  trace.Cruise(90.0, 12.0,
               static_cast<Duration>(approach_m / (12.0 * geo::kKnotsToMps)),
               30);
  const Timestamp dark_at = trace.now();
  trace.Silence(65 * kMinute);
  trace.Cruise(90.0, 12.0, kHour, 30);
  std::printf("scripted: transponder off at %s for 65 minutes\n",
              FormatTimestamp(dark_at).c_str());

  // Run the pipeline.
  surveillance::PipelineConfig config;
  config.window = stream::WindowSpec{kHour, 5 * kMinute};
  surveillance::SurveillancePipeline pipeline(&world.knowledge, config);
  stream::StreamReplayer replayer(std::move(trace).Build());

  auto& recognizer = pipeline.recognizer().partition(0);
  // The AlertManager deduplicates across overlapping windows: the operator
  // sees each situation once, not once per window slide.
  surveillance::AlertManager alert_manager(&recognizer.engine());
  int alerts = 0;
  std::vector<tracker::CriticalPoint> criticals;
  pipeline.Run(replayer, [&](const surveillance::SlideReport& report) {
    criticals.insert(criticals.end(), report.critical_points.begin(),
                     report.critical_points.end());
    for (const auto& r : report.recognition) {
      for (const auto& alert : alert_manager.Process(r)) {
        ++alerts;
        std::printf("  [Q=%s] %s\n",
                    FormatTimestamp(report.query_time).c_str(),
                    alert.text.c_str());
      }
    }
  });
  std::printf("alerts raised: %d\n", alerts);

  // Export the evidence for map display.
  std::vector<geo::GeoPoint> path;
  for (const auto& cp : criticals) path.push_back(cp.pos);
  exporter::GeoJsonWriter geojson;
  geojson.AddPolygon(park->name, "protected", park->polygon.vertices());
  geojson.AddTrajectory(tanker.name, path);
  geojson.AddCriticalPoints(criticals);
  if (geojson.WriteFile("protected_area_monitor.geojson").ok()) {
    std::printf("wrote protected_area_monitor.geojson (%zu features)\n",
                geojson.feature_count());
  }
  return alerts > 0 ? 0 : 2;
}
