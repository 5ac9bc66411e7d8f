// Snapshot files as durable artefacts. The committed fixture
// tests/data/checkpoint_6_slides.msnp was written by `checkpoint_tool run
// --slides 6` from the build before the sharded-tracker and archiver
// records dropped their wall-clock timers, so both are at version 1, the
// only older versions this build reads (DESIGN.md §9); every other record
// in it is at the version this build writes. It must restore and resume to
// the CEs this build's uninterrupted run recognizes. And a snapshot carries
// no wall-clock reading, so the same run writes the same bytes every time,
// however the Writer was presized, and those bytes are pinned by golden
// checksums.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "checkpoint_scenario.h"
#include "maritime/pipeline.h"
#include "snapshot/codec.h"
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

PipelineConfig ParallelConfig() {
  PipelineConfig cfg = checkpoint_scenario::MakeConfig();
  cfg.tracker_shards = 4;
  cfg.partitions = 2;
  cfg.recognition_engine = surveillance::EngineMode::kIncremental;
  return cfg;
}

PipelineConfig SpatialFactsConfig() {
  PipelineConfig cfg = checkpoint_scenario::MakeConfig();
  cfg.ce.use_spatial_facts = true;
  return cfg;
}

// Runs the first kFixtureSlides slides of the scenario through `pipeline`.
void RunFixtureSlides(SurveillancePipeline& pipeline,
                      const std::vector<stream::PositionTuple>& tuples,
                      const PipelineConfig& cfg) {
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < kFixtureSlides; ++i) {
    const Timestamp qt = q.Fire();
    pipeline.RunSlide(qt, replayer.NextBatch(qt));
  }
}

// Runs the scenario kFixtureSlides slides under `cfg` and returns the
// snapshot file's bytes.
std::string CheckpointBytes(PipelineConfig cfg, const std::string& path) {
  sim::World world = checkpoint_scenario::MakeWorld();
  const auto tuples = checkpoint_scenario::MakeStream(&world);
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  RunFixtureSlides(pipeline, tuples, cfg);
  const Status s = pipeline.SaveSnapshot(path);
  EXPECT_TRUE(s.ok()) << s;
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string ConfigName(const PipelineConfig& cfg) {
  return "shards " + std::to_string(cfg.tracker_shards) + ", partitions " +
         std::to_string(cfg.partitions) +
         (cfg.ce.use_spatial_facts ? ", spatial facts" : "");
}

TEST(CheckpointFixtureTest, SameRunWritesIdenticalBytes) {
  for (const PipelineConfig& cfg :
       {checkpoint_scenario::MakeConfig(), ParallelConfig()}) {
    SCOPED_TRACE(ConfigName(cfg));
    const std::string dir = ::testing::TempDir();
    const std::string first = CheckpointBytes(cfg, dir + "/first.msnp");
    const std::string second = CheckpointBytes(cfg, dir + "/second.msnp");
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(first == second)
        << "two runs wrote " << first.size() << " and " << second.size()
        << " bytes that differ";
  }
}

// The Writer's capacity never shows in the bytes: a pipeline's second save
// (presized from the first) and a save from a restored copy (which starts
// with no size hint) write what the first save wrote.
TEST(CheckpointFixtureTest, RepeatedSavesWriteIdenticalBytes) {
  for (const PipelineConfig& cfg :
       {checkpoint_scenario::MakeConfig(), ParallelConfig(),
        SpatialFactsConfig()}) {
    SCOPED_TRACE(ConfigName(cfg));
    sim::World world = checkpoint_scenario::MakeWorld();
    const auto tuples = checkpoint_scenario::MakeStream(&world);
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    RunFixtureSlides(pipeline, tuples, cfg);

    snapshot::Writer first;
    pipeline.SaveTo(first);
    snapshot::Writer second;
    pipeline.SaveTo(second);
    EXPECT_EQ(second.capacity(), first.size() + first.size() / 8)
        << "the second save did not write into the presized buffer";

    SurveillancePipeline restored(&world.knowledge, cfg);
    snapshot::Reader r(first.bytes());
    const Status s = restored.RestoreFrom(r);
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_TRUE(r.AtEnd());
    snapshot::Writer third;
    restored.SaveTo(third);

    ASSERT_GT(first.size(), 0u);
    EXPECT_TRUE(first.bytes() == second.bytes()) << "second save differs";
    EXPECT_TRUE(first.bytes() == third.bytes())
        << "the restored copy wrote " << third.size() << " bytes, not "
        << first.size();
  }
}

// The whole snapshot file each config writes after kFixtureSlides slides, as
// its CRC-32 and size. Recorded from the build of commit 858e371, before the
// Writer wrote records through Put, presized itself from the last save and
// walked hash maps through SortedEntries: those changes must write exactly
// these bytes. A format change updates this table together with the
// section's version.
TEST(CheckpointFixtureTest, PipelineSnapshotBytesAreGolden) {
  struct Golden {
    PipelineConfig cfg;
    uint32_t crc;
    size_t bytes;
  };
  const Golden goldens[] = {
      {checkpoint_scenario::MakeConfig(), 0xb7f84624u, 15565},
      {ParallelConfig(), 0xe223861fu, 18986},
      {SpatialFactsConfig(), 0x2cb9ac40u, 16513},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(ConfigName(g.cfg));
    const std::string file =
        CheckpointBytes(g.cfg, ::testing::TempDir() + "/golden.msnp");
    EXPECT_EQ(file.size(), g.bytes);
    EXPECT_EQ(snapshot::Crc32(file), g.crc)
        << std::hex << "crc 0x" << snapshot::Crc32(file);
  }
}

}  // namespace
}  // namespace maritime
