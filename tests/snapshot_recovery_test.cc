// The tentpole guarantee of the checkpoint subsystem: a pipeline killed at
// any slide boundary and restored from its snapshot produces bit-identical
// complex events for the rest of the stream. Proven differentially — run A
// processes the stream uninterrupted; run B is cut at slide k, snapshotted,
// restored into a fresh pipeline and resumed; every post-k SlideReport must
// compare equal, recognition results included, down to the final flush.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"

namespace maritime {
namespace {

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

struct Observed {
  Timestamp query_time = 0;
  std::vector<rtec::RecognitionResult> recognition;
  size_t critical_points = 0;
  bool final_flush = false;
};

Observed Capture(const SlideReport& r) {
  Observed o;
  o.query_time = r.query_time;
  o.recognition = r.recognition;
  o.critical_points = r.critical_points;
  o.final_flush = r.final_flush;
  return o;
}

void ExpectIdentical(const std::vector<Observed>& expected,
                     const std::vector<Observed>& actual, int k) {
  ASSERT_EQ(expected.size(), actual.size()) << "kill at slide " << k;
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("kill at slide " + std::to_string(k) + ", post-resume slide " +
                 std::to_string(i));
    EXPECT_EQ(expected[i].query_time, actual[i].query_time);
    EXPECT_EQ(expected[i].critical_points, actual[i].critical_points);
    EXPECT_EQ(expected[i].final_flush, actual[i].final_flush);
    ASSERT_EQ(expected[i].recognition.size(), actual[i].recognition.size());
    for (size_t p = 0; p < expected[i].recognition.size(); ++p) {
      EXPECT_TRUE(expected[i].recognition[p] == actual[i].recognition[p])
          << "partition " << p << " diverged at q="
          << expected[i].query_time;
    }
  }
}

class SnapshotRecoveryTest : public ::testing::Test {
 protected:
  /// Builds world + stream once per configuration (deterministic from the
  /// seeds), runs the uninterrupted reference, then replays with a kill at
  /// each requested slide.
  void RunDifferential(PipelineConfig cfg, const std::vector<int>& kills) {
    sim::World world = sim::BuildWorld(/*seed=*/17, SmallWorldParams());
    sim::FleetConfig fleet_cfg;
    fleet_cfg.vessels = 12;
    fleet_cfg.duration = 4 * kHour;
    fleet_cfg.seed = 23;
    sim::FleetSimulator fleet(&world, fleet_cfg);
    const std::vector<stream::PositionTuple> tuples = fleet.Generate();
    ASSERT_FALSE(tuples.empty());

    // Reference: the uninterrupted run (Run includes the end-of-stream
    // flush and reports it through on_slide when it recognized anything).
    std::vector<Observed> reference;
    {
      stream::StreamReplayer replayer(tuples);
      SurveillancePipeline pipeline(&world.knowledge, cfg);
      pipeline.Run(replayer, [&](const SlideReport& r) {
        reference.push_back(Capture(r));
      });
    }
    ASSERT_GE(reference.size(), 8u)
        << "stream too short for a meaningful differential";

    for (const int k : kills) {
      ASSERT_LT(static_cast<size_t>(k), reference.size());
      // Run to slide k, then snapshot ("the process is killed here").
      stream::StreamReplayer replayer(tuples);
      SurveillancePipeline victim(&world.knowledge, cfg);
      stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
      std::vector<Observed> prefix;
      for (int i = 0; i < k; ++i) {
        const Timestamp qt = q.Fire();
        prefix.push_back(Capture(victim.RunSlide(qt, replayer.NextBatch(qt))));
      }
      snapshot::Writer w;
      victim.SaveTo(w);

      // The prefix must already match the reference (sanity: the manual
      // slide loop reproduces Run).
      ASSERT_EQ(prefix.size(), static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) {
        ASSERT_EQ(prefix[static_cast<size_t>(i)].query_time,
                  reference[static_cast<size_t>(i)].query_time)
            << "prefix drift at slide " << i;
      }

      // Recover: fresh pipeline, restore, resume the stream.
      SurveillancePipeline recovered(&world.knowledge, cfg);
      snapshot::Reader r(w.bytes());
      const Status s = recovered.RestoreFrom(r);
      ASSERT_TRUE(s.ok()) << "kill at slide " << k << ": " << s;
      ASSERT_TRUE(r.AtEnd());

      stream::StreamReplayer resumed_stream(tuples);
      std::vector<Observed> post;
      recovered.Resume(resumed_stream, [&](const SlideReport& rep) {
        post.push_back(Capture(rep));
      });

      const std::vector<Observed> expected(
          reference.begin() + static_cast<ptrdiff_t>(k), reference.end());
      ExpectIdentical(expected, post, k);
    }
  }
};

TEST_F(SnapshotRecoveryTest, NaiveRecognitionBitIdenticalAfterRecovery) {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  RunDifferential(cfg, {1, 3, 7});
}

TEST_F(SnapshotRecoveryTest, IncrementalRecognitionBitIdenticalAfterRecovery) {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  cfg.recognition_engine = surveillance::EngineMode::kIncremental;
  RunDifferential(cfg, {2, 5});
}

TEST_F(SnapshotRecoveryTest, ShardedPartitionedBitIdenticalAfterRecovery) {
  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 2;
  cfg.tracker_shards = 2;
  cfg.archive = true;
  cfg.recognition_engine = surveillance::EngineMode::kIncremental;
  RunDifferential(cfg, {4});
}

TEST_F(SnapshotRecoveryTest, FileRoundTripRecovery) {
  // Same differential, through the on-disk container (header + CRC).
  sim::World world = sim::BuildWorld(/*seed=*/41, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 10;
  fleet_cfg.duration = 3 * kHour;
  fleet_cfg.seed = 11;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  const std::vector<stream::PositionTuple> tuples = fleet.Generate();

  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;

  std::vector<Observed> reference;
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    pipeline.Run(replayer, [&](const SlideReport& r) {
      reference.push_back(Capture(r));
    });
  }

  const int k = 3;
  ASSERT_GT(reference.size(), static_cast<size_t>(k));
  stream::StreamReplayer replayer(tuples);
  SurveillancePipeline victim(&world.knowledge, cfg);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < k; ++i) {
    const Timestamp qt = q.Fire();
    victim.RunSlide(qt, replayer.NextBatch(qt));
  }
  const std::string path = ::testing::TempDir() + "/recovery.msnp";
  ASSERT_TRUE(victim.SaveSnapshot(path).ok());

  SurveillancePipeline recovered(&world.knowledge, cfg);
  const Status s = recovered.LoadSnapshot(path);
  ASSERT_TRUE(s.ok()) << s;
  std::remove(path.c_str());

  stream::StreamReplayer resumed_stream(tuples);
  std::vector<Observed> post;
  recovered.Resume(resumed_stream, [&](const SlideReport& rep) {
    post.push_back(Capture(rep));
  });
  const std::vector<Observed> expected(reference.begin() + k,
                                       reference.end());
  ExpectIdentical(expected, post, k);
}

TEST_F(SnapshotRecoveryTest, ResumeOnFreshPipelineEqualsRun) {
  // Resume on a pipeline that never restored anything degenerates to Run.
  sim::World world = sim::BuildWorld(/*seed=*/55, SmallWorldParams());
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 6;
  fleet_cfg.duration = 2 * kHour;
  fleet_cfg.seed = 3;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  const std::vector<stream::PositionTuple> tuples = fleet.Generate();

  PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;

  std::vector<Observed> via_run, via_resume;
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline p(&world.knowledge, cfg);
    p.Run(replayer,
          [&](const SlideReport& r) { via_run.push_back(Capture(r)); });
  }
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline p(&world.knowledge, cfg);
    p.Resume(replayer,
             [&](const SlideReport& r) { via_resume.push_back(Capture(r)); });
  }
  ExpectIdentical(via_run, via_resume, 0);
}

}  // namespace
}  // namespace maritime
