// Port traffic analytics: the offline side of the system (paper Sections
// 3.2–3.3 and Table 4).
//
// Runs a day of simulated traffic through the pipeline, lets the archival
// path reconstruct trips between ports, then computes Table-4-style
// statistics, an Origin–Destination matrix, per-port arrival counts, and the
// trajectory approximation error of the compression (Figure 8 style).

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "stream/replayer.h"
#include "tracker/reconstruct.h"

int main() {
  using namespace maritime;

  sim::World world = sim::BuildWorld(/*seed=*/31);
  sim::FleetConfig fleet_config;
  fleet_config.vessels = 60;
  fleet_config.duration = 24 * kHour;
  fleet_config.seed = 17;
  sim::FleetSimulator fleet(&world, fleet_config);
  const auto tuples = fleet.Generate();
  std::printf("simulated %zu reports from %d vessels over 24h\n",
              tuples.size(), fleet_config.vessels);

  surveillance::PipelineConfig config;
  config.window = stream::WindowSpec{kHour, 15 * kMinute};
  surveillance::SurveillancePipeline pipeline(&world.knowledge, config);
  stream::StreamReplayer replayer(tuples);
  std::vector<tracker::CriticalPoint> criticals;
  pipeline.Run(replayer, [&](const surveillance::SlideReport& report) {
    criticals.insert(criticals.end(), report.critical_points.begin(),
                     report.critical_points.end());
  });

  // --- compression & accuracy ------------------------------------------------
  const auto cstats = pipeline.compression_stats();
  std::printf("\ncompression ratio: %.1f%% (%llu raw -> %llu critical)\n",
              100.0 * cstats.ratio(),
              static_cast<unsigned long long>(cstats.raw_positions),
              static_cast<unsigned long long>(cstats.critical_points));
  const tracker::ApproximationError err = tracker::EvaluateApproximation(
      sim::WithoutOutliers(tuples, fleet.ground_truth()), criticals);
  std::printf("approximation RMSE: avg %.1f m, max %.1f m over %zu vessels\n",
              err.avg_rmse_m, err.max_rmse_m, err.vessel_count);

  // --- Table 4 ----------------------------------------------------------------
  std::printf("\n--- trip archive (paper Table 4) ---\n%s",
              pipeline.archiver()->Statistics().ToString().c_str());

  // --- Origin–Destination matrix (Section 3.3) --------------------------------
  const auto od = pipeline.archiver()->store().OriginDestinationMatrix();
  std::printf("\n--- busiest itineraries ---\n");
  std::vector<std::pair<uint64_t, std::pair<int32_t, int32_t>>> ranked;
  for (const auto& [key, cell] : od) ranked.push_back({cell.trips, key});
  std::sort(ranked.rbegin(), ranked.rend());
  int shown = 0;
  for (const auto& [count, key] : ranked) {
    if (shown++ >= 5) break;
    const auto* origin = world.knowledge.FindArea(key.first);
    const auto* dest = world.knowledge.FindArea(key.second);
    const mod::OdCell& cell = od.at(key);
    std::printf("  %-10s -> %-10s  trips=%llu  avg time %s  avg dist %.1f km\n",
                origin != nullptr ? origin->name.c_str() : "(open sea)",
                dest != nullptr ? dest->name.c_str() : "?",
                static_cast<unsigned long long>(count),
                FormatDuration(cell.AvgTravelTime()).c_str(),
                cell.AvgDistanceM() / 1000.0);
  }

  // --- per-port arrivals --------------------------------------------------------
  std::printf("\n--- arrivals per port ---\n");
  std::vector<std::pair<size_t, std::string>> arrivals;
  for (const auto& area : world.knowledge.areas()) {
    if (area.kind != surveillance::AreaKind::kPort) continue;
    const size_t n = pipeline.archiver()->store().TripsTo(area.id).size();
    if (n > 0) arrivals.push_back({n, area.name});
  }
  std::sort(arrivals.rbegin(), arrivals.rend());
  for (const auto& [n, name] : arrivals) {
    std::printf("  %-10s %zu arrivals\n", name.c_str(), n);
  }
  return 0;
}
