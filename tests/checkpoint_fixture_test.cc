// Snapshot files as durable artefacts. The committed fixture
// tests/data/checkpoint_6_slides.msnp was written by `checkpoint_tool run
// --slides 6` from the build before the sharded-tracker and archiver
// sections dropped their wall-clock timers (both at section version 1):
// every later format must still restore it and resume to the CEs this
// build's uninterrupted run recognizes. And a snapshot carries no wall-clock
// reading, so the same run writes the same bytes every time.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "checkpoint_scenario.h"
#include "maritime/pipeline.h"
#include "stream/replayer.h"

namespace maritime {
namespace {

using surveillance::PipelineConfig;
using surveillance::SlideReport;
using surveillance::SurveillancePipeline;

constexpr int kFixtureSlides = 6;

void ExpectSameSlides(const std::vector<SlideReport>& expected,
                      const std::vector<SlideReport>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("post-resume slide " + std::to_string(i));
    EXPECT_EQ(expected[i].query_time, actual[i].query_time);
    EXPECT_EQ(expected[i].raw_positions, actual[i].raw_positions);
    EXPECT_EQ(expected[i].critical_points, actual[i].critical_points);
    EXPECT_EQ(expected[i].final_flush, actual[i].final_flush);
    ASSERT_EQ(expected[i].recognition.size(), actual[i].recognition.size());
    for (size_t p = 0; p < expected[i].recognition.size(); ++p) {
      EXPECT_TRUE(expected[i].recognition[p] == actual[i].recognition[p])
          << "partition " << p;
    }
  }
}

TEST(CheckpointFixtureTest, CommittedFixtureResumesToTheUninterruptedRun) {
  sim::World world = checkpoint_scenario::MakeWorld();
  const auto tuples = checkpoint_scenario::MakeStream(&world);
  const PipelineConfig cfg = checkpoint_scenario::MakeConfig();

  std::vector<SlideReport> reference;
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    pipeline.Run(replayer,
                 [&](const SlideReport& r) { reference.push_back(r); });
  }
  ASSERT_GT(reference.size(), static_cast<size_t>(kFixtureSlides));
  reference.erase(reference.begin(), reference.begin() + kFixtureSlides);

  SurveillancePipeline restored(&world.knowledge, cfg);
  const Status s = restored.LoadSnapshot(MARITIME_CHECKPOINT_FIXTURE);
  ASSERT_TRUE(s.ok()) << s;
  std::vector<SlideReport> resumed;
  stream::StreamReplayer replayer(tuples);
  restored.Resume(replayer,
                  [&](const SlideReport& r) { resumed.push_back(r); });
  ExpectSameSlides(reference, resumed);
}

// Runs the scenario `slides` slides under `cfg` and returns the snapshot
// file's bytes.
std::string CheckpointBytes(PipelineConfig cfg, const std::string& path) {
  sim::World world = checkpoint_scenario::MakeWorld();
  const auto tuples = checkpoint_scenario::MakeStream(&world);
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < kFixtureSlides; ++i) {
    const Timestamp qt = q.Fire();
    pipeline.RunSlide(qt, replayer.NextBatch(qt));
  }
  const Status s = pipeline.SaveSnapshot(path);
  EXPECT_TRUE(s.ok()) << s;
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CheckpointFixtureTest, SameRunWritesIdenticalBytes) {
  PipelineConfig parallel = checkpoint_scenario::MakeConfig();
  parallel.tracker_shards = 4;
  parallel.partitions = 2;
  parallel.recognition_engine = surveillance::EngineMode::kIncremental;
  parallel.parallel_recognition_keys = true;
  for (const PipelineConfig& cfg :
       {checkpoint_scenario::MakeConfig(), parallel}) {
    SCOPED_TRACE("shards " + std::to_string(cfg.tracker_shards) +
                 ", partitions " + std::to_string(cfg.partitions));
    const std::string dir = ::testing::TempDir();
    const std::string first = CheckpointBytes(cfg, dir + "/first.msnp");
    const std::string second = CheckpointBytes(cfg, dir + "/second.msnp");
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(first == second)
        << "two runs wrote " << first.size() << " and " << second.size()
        << " bytes that differ";
  }
}

}  // namespace
}  // namespace maritime
