// Quickstart: the full Figure-1 pipeline on a tiny simulated fleet.
//
// Generates a deterministic synthetic AIS stream, encodes it through the
// real NMEA/AIVDM codec, decodes it with the Data Scanner, tracks critical
// points, recognizes complex events, and prints a per-slide digest plus the
// final trip archive.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "ais/scanner.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"
#include "stream/replayer.h"

int main() {
  using namespace maritime;

  // 1. A deterministic world: ports plus protected / no-fishing / shallow
  //    areas, all registered in the knowledge base.
  sim::WorldParams world_params;
  world_params.ports = 10;
  world_params.protected_areas = 4;
  world_params.forbidden_fishing_areas = 4;
  world_params.shallow_areas = 3;
  sim::World world = sim::BuildWorld(/*seed=*/7, world_params);
  std::printf("world: %zu ports, %zu areas of interest\n",
              world.ports.size(),
              world.knowledge.areas().size() - world.ports.size());

  // 2. A small fleet sailing for six hours.
  sim::FleetConfig fleet_config;
  fleet_config.vessels = 25;
  fleet_config.duration = 6 * kHour;
  fleet_config.seed = 42;
  sim::FleetSimulator fleet(&world, fleet_config);
  const auto true_stream = fleet.Generate();
  std::printf("fleet: %d vessels, %zu position reports\n",
              fleet_config.vessels, true_stream.size());

  // 3. Over the wire and back: raw AIVDM sentences through the Data Scanner.
  const std::string nmea = sim::EncodeTaggedNmeaFeed(true_stream,
                                                     fleet.fleet());
  ais::DataScanner scanner;
  stream::StreamReplayer replayer(scanner.ScanTaggedLog(nmea));
  std::printf("scanner: %llu sentences, %llu accepted, %llu rejected\n",
              static_cast<unsigned long long>(scanner.stats().lines),
              static_cast<unsigned long long>(scanner.stats().accepted),
              static_cast<unsigned long long>(scanner.stats().lines -
                                              scanner.stats().accepted));

  // 4. The surveillance pipeline: sliding window ω=1h, slide β=10min.
  surveillance::PipelineConfig config;
  config.window = stream::WindowSpec{kHour, 10 * kMinute};
  config.partitions = 1;
  surveillance::SurveillancePipeline pipeline(&world.knowledge, config);

  size_t total_ces = 0;
  pipeline.Run(replayer, [&](const surveillance::SlideReport& report) {
    size_t ces = 0;
    for (const auto& r : report.recognition) ces += r.RecognizedCount();
    total_ces += ces;
    if (ces > 0) {
      std::printf("  Q=%s  raw=%zu  critical=%zu  CEs=%zu\n",
                  FormatTimestamp(report.query_time).c_str(),
                  report.raw_positions, report.critical_points.size(), ces);
      for (const auto& r : report.recognition) {
        auto& rec = pipeline.recognizer().partition(0);
        for (const auto& e : r.events) {
          std::printf("    ALERT %s\n", rec.Describe(e).c_str());
        }
        for (const auto& f : r.fluents) {
          std::printf("    ALERT %s\n", rec.Describe(f).c_str());
        }
      }
    }
  });

  // 5. Summary: compression and archived trips (paper Figure 9 / Table 4).
  const auto cstats = pipeline.compression_stats();
  std::printf("\ncompression: %llu raw -> %llu critical (ratio %.1f%%)\n",
              static_cast<unsigned long long>(cstats.raw_positions),
              static_cast<unsigned long long>(cstats.critical_points),
              100.0 * cstats.ratio());
  std::printf("complex events recognized: %zu\n", total_ces);
  std::printf("\n%s\n", pipeline.archiver()->Statistics().ToString().c_str());
  return 0;
}
