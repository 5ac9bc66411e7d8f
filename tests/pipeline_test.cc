#include <gtest/gtest.h>

#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/scenarios.h"
#include "sim/world.h"

namespace maritime::surveillance {
namespace {

sim::WorldParams SmallWorldParams() {
  sim::WorldParams p;
  p.ports = 8;
  p.protected_areas = 3;
  p.forbidden_fishing_areas = 3;
  p.shallow_areas = 2;
  return p;
}

PipelineConfig SmallPipelineConfig() {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  return cfg;
}

TEST(PipelineTest, EndToEndOnSimulatedFleet) {
  sim::World world = sim::BuildWorld(21, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 30;
  // Long enough for port-to-port voyages to complete (Table 4 reports an
  // average trip of ~1d07h on the real data).
  fleet_cfg.duration = 24 * kHour;
  fleet_cfg.seed = 3;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  stream::StreamReplayer replayer(fleet.Generate());

  SurveillancePipeline pipeline(&world.knowledge, SmallPipelineConfig());
  size_t slides = 0;
  size_t total_raw = 0;
  size_t total_criticals = 0;
  size_t total_ces = 0;
  pipeline.Run(replayer, [&](const SlideReport& r) {
    ++slides;
    total_raw += r.raw_positions;
    total_criticals += r.critical_points.size();
    for (const auto& rec : r.recognition) total_ces += rec.RecognizedCount();
  });

  EXPECT_GT(slides, 40u);
  EXPECT_EQ(total_raw, replayer.size());
  EXPECT_GT(total_criticals, 0u);
  // Strong compression, the paper's headline claim (~94% at default Δθ).
  const double ratio = pipeline.compression_stats().ratio();
  EXPECT_GT(ratio, 0.7);
  // The scenario generator plants gaps/trawls/rendezvous, so CEs must fire.
  EXPECT_GT(total_ces, 0u);
  // Archival path produced trips (ferries and traders call at ports).
  ASSERT_NE(pipeline.archiver(), nullptr);
  EXPECT_GT(pipeline.archiver()->store().trip_count(), 0u);
}

TEST(PipelineTest, DetectsPlantedIllegalShipping) {
  // One hand-scripted intruder: sails toward a protected area, goes dark,
  // crosses, resumes. The pipeline must raise illegalShipping.
  sim::World world = sim::BuildWorld(22, SmallWorldParams());
  const AreaInfo* park = nullptr;
  for (const auto& a : world.knowledge.areas()) {
    if (a.kind == AreaKind::kProtected) {
      park = &a;
      break;
    }
  }
  ASSERT_NE(park, nullptr);
  const geo::GeoPoint center = park->polygon.VertexCentroid();
  const geo::GeoPoint approach_from =
      geo::DestinationPoint(center, 270.0, 30000.0);

  VesselInfo smuggler;
  smuggler.mmsi = 999;
  smuggler.type = VesselType::kTanker;
  smuggler.draft_m = 10.0;
  world.knowledge.AddVessel(smuggler);

  sim::TraceBuilder trace(999, approach_from, 0);
  // Sail east until just inside the park, then go dark.
  const double leg_m = geo::HaversineMeters(approach_from, center) - 500.0;
  const Duration leg_s =
      static_cast<Duration>(leg_m / (12.0 * geo::kKnotsToMps));
  trace.Cruise(90.0, 12.0, leg_s, 30);
  trace.Silence(40 * kMinute);  // dark crossing
  trace.Cruise(90.0, 12.0, kHour, 30);
  stream::StreamReplayer replayer(std::move(trace).Build());

  SurveillancePipeline pipeline(&world.knowledge, SmallPipelineConfig());
  size_t illegal_shipping = 0;
  const auto& schema = pipeline.recognizer().partition(0).schema();
  pipeline.Run(replayer, [&](const SlideReport& r) {
    for (const auto& rec : r.recognition) {
      for (const auto& e : rec.events) {
        if (e.event == schema.illegal_shipping &&
            e.instance.subject == VesselTerm(999)) {
          ++illegal_shipping;
        }
      }
    }
  });
  EXPECT_GE(illegal_shipping, 1u);
}

TEST(PipelineTest, TwoPartitionsBehaveLikeOne) {
  sim::World world = sim::BuildWorld(23, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 20;
  fleet_cfg.duration = 6 * kHour;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  const auto tuples = fleet.Generate();

  PipelineConfig cfg1 = SmallPipelineConfig();
  cfg1.archive = false;
  PipelineConfig cfg2 = cfg1;
  cfg2.partitions = 2;

  SurveillancePipeline p1(&world.knowledge, cfg1);
  SurveillancePipeline p2(&world.knowledge, cfg2);
  stream::StreamReplayer r1(tuples);
  stream::StreamReplayer r2(tuples);
  size_t ces1 = 0, ces2 = 0;
  p1.Run(r1, [&](const SlideReport& r) {
    for (const auto& rec : r.recognition) ces1 += rec.RecognizedCount();
  });
  p2.Run(r2, [&](const SlideReport& r) {
    for (const auto& rec : r.recognition) ces2 += rec.RecognizedCount();
  });
  // Partitioning routes MEs by vessel location; border effects may add or
  // drop a few recognitions, but the two settings must largely agree.
  EXPECT_NEAR(static_cast<double>(ces1), static_cast<double>(ces2),
              std::max<double>(5.0, 0.25 * static_cast<double>(ces1)));
}

TEST(PipelineTest, EndOfStreamEventsAreRecognizedAtFinish) {
  // Regression: a vessel that is still stopped in open water when the
  // stream ends. The stop-end critical point is only emitted by the
  // tracker's Finish; Finish() used to archive it without feeding the
  // recognizer, so the closing of the adrift episode was silently dropped.
  KnowledgeBase kb(1000.0);
  AreaInfo port;
  port.id = 1000;
  port.name = "port";
  port.kind = AreaKind::kPort;
  port.polygon =
      geo::Polygon::RegularPolygon(geo::GeoPoint{26.5, 39.5}, 700.0, 10);
  kb.AddArea(port);
  VesselInfo v;
  v.mmsi = 4242;
  v.type = VesselType::kCargo;
  kb.AddVessel(v);

  // 30 min cruise in open water, then drifting on the spot until the stream
  // ends with the stop episode still open.
  auto tuples = sim::TraceBuilder(4242, geo::GeoPoint{24.5, 37.5}, 0)
                    .Cruise(90.0, 12.0, 30 * kMinute, 30)
                    .Drift(40 * kMinute, 30, 10.0)
                    .Build();
  stream::StreamReplayer replayer(std::move(tuples));

  PipelineConfig cfg = SmallPipelineConfig();
  cfg.archive = false;
  SurveillancePipeline pipeline(&kb, cfg);
  const auto& schema = pipeline.recognizer().partition(0).schema();
  bool saw_flush = false;
  bool adrift_closed = false;
  pipeline.Run(replayer, [&](const SlideReport& r) {
    if (!r.final_flush) return;
    saw_flush = true;
    EXPECT_GT(r.critical_points.size(), 0u);  // stop-end + last anchor
    for (const auto& rec : r.recognition) {
      for (const auto& f : rec.fluents) {
        if (f.fluent != schema.adrift) continue;
        for (const auto& iv : f.intervals) {
          // Closed by the fed stop-end marker, not still open at Q.
          if (iv.till < r.query_time) adrift_closed = true;
        }
      }
    }
  });
  EXPECT_TRUE(saw_flush);
  EXPECT_TRUE(adrift_closed);
}

TEST(PipelineTest, ArchiveLagsBehindWindow) {
  // Nothing may be archived before it leaves the sliding window (no
  // duplication between online and offline state, paper Section 3.2).
  sim::World world = sim::BuildWorld(25, SmallWorldParams());
  PipelineConfig cfg = SmallPipelineConfig();
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  const auto tuples = sim::TraceBuilder(5, geo::GeoPoint{24.0, 37.0}, 0)
                          .Cruise(0.0, 12.0, 30 * kMinute, 30)
                          .Build();
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence q(cfg.window, 0);
  // First slide: everything still inside the 1h window -> nothing staged.
  const Timestamp q1 = q.Fire();
  pipeline.RunSlide(q1, replayer.NextBatch(q1));
  EXPECT_EQ(pipeline.archiver()->pending_points() +
                pipeline.archiver()->store().trip_count(),
            0u);
}

}  // namespace
}  // namespace maritime::surveillance
