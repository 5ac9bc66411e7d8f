// Engine-axis differential through the whole pipeline: every RTEC engine
// mode — and the parallel configuration (tracker shards, recognition
// partitions, parallel key evaluation) — produces SlideReports and CE output
// bit-identical to the naive engine when driven through Run.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "stream/replayer.h"

namespace maritime {
namespace {

using surveillance::EngineMode;
using surveillance::PipelineConfig;
using surveillance::SlideReport;
using surveillance::SurveillancePipeline;

sim::WorldParams SmallWorldParams() {
  sim::WorldParams p;
  p.ports = 8;
  p.protected_areas = 3;
  p.forbidden_fishing_areas = 3;
  p.shallow_areas = 2;
  return p;
}

/// Everything deterministic in a SlideReport (timing fields excluded).
struct Observed {
  Timestamp query_time = 0;
  size_t raw_positions = 0;
  size_t critical_points = 0;
  std::vector<rtec::RecognitionResult> recognition;
  bool final_flush = false;
};

Observed Capture(const SlideReport& r) {
  Observed o;
  o.query_time = r.query_time;
  o.raw_positions = r.raw_positions;
  o.critical_points = r.critical_points;
  o.recognition = r.recognition;
  o.final_flush = r.final_flush;
  return o;
}

void ExpectIdentical(const std::vector<Observed>& expected,
                     const std::vector<Observed>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(label + ", slide " + std::to_string(i));
    EXPECT_EQ(expected[i].query_time, actual[i].query_time);
    EXPECT_EQ(expected[i].raw_positions, actual[i].raw_positions);
    EXPECT_EQ(expected[i].critical_points, actual[i].critical_points);
    EXPECT_EQ(expected[i].final_flush, actual[i].final_flush);
    ASSERT_EQ(expected[i].recognition.size(), actual[i].recognition.size());
    for (size_t p = 0; p < expected[i].recognition.size(); ++p) {
      EXPECT_TRUE(expected[i].recognition[p] == actual[i].recognition[p])
          << "partition " << p << " diverged at q=" << expected[i].query_time;
    }
  }
}

std::vector<Observed> RunWhole(const PipelineConfig& cfg) {
  sim::World world = sim::BuildWorld(/*seed=*/17, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 12;
  fleet_cfg.duration = 4 * kHour;
  fleet_cfg.seed = 23;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  const std::vector<stream::PositionTuple> tuples = fleet.Generate();
  stream::StreamReplayer replayer(tuples);
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  std::vector<Observed> out;
  pipeline.Run(replayer,
               [&](const SlideReport& r) { out.push_back(Capture(r)); });
  return out;
}

/// Runs `cfg` and the same config on the serial naive engine; both must
/// agree.
void ExpectMatchesNaive(const PipelineConfig& cfg, const std::string& label) {
  PipelineConfig naive = cfg;
  naive.recognition_engine = EngineMode::kNaive;
  naive.parallel_recognition_keys = false;
  const std::vector<Observed> reference = RunWhole(naive);
  ASSERT_GE(reference.size(), 8u)
      << "stream too short for a meaningful differential";
  ExpectIdentical(reference, RunWhole(cfg), label);
}

TEST(PipelineEngineDifferentialTest, AutoMatchesNaive) {
  // ω = 6β: the auto engine resolves to incremental and may escalate a step
  // to a full regeneration; neither may perturb CE output.
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.archive = true;
  cfg.recognition_engine = EngineMode::kAuto;
  ExpectMatchesNaive(cfg, "auto vs naive");
}

TEST(PipelineEngineDifferentialTest,
     ShardedPartitionedParallelIncrementalMatchesNaive) {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 2;
  cfg.tracker_shards = 4;
  cfg.archive = true;
  cfg.recognition_engine = EngineMode::kIncremental;
  cfg.parallel_recognition_keys = true;
  ExpectMatchesNaive(cfg, "4 shards x 2 partitions, parallel incremental");
}

}  // namespace
}  // namespace maritime
