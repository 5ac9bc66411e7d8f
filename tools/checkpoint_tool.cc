// Checkpoint CLI: drive, inspect, and verify snapshots of the surveillance
// pipeline. The stream is the deterministic simulated fleet (seeded), so
// every subcommand is reproducible and `verify` can prove bit-identical
// recovery end to end without external data.
//
//   checkpoint_tool run <snapshot.msnp> [--slides N]
//       Runs the pipeline N slides (default 6) into the simulated stream,
//       then writes a checkpoint.
//   checkpoint_tool inspect <snapshot.msnp>
//       Prints the snapshot manifest (no knowledge base needed).
//   checkpoint_tool resume <snapshot.msnp>
//       Restores the checkpoint and processes the rest of the stream.
//   checkpoint_tool verify [--kill-at N]
//       Differential self-check: reference run vs. kill-at-slide-N +
//       restore + resume; exits non-zero on any divergence.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checkpoint_scenario.h"
#include "common/time.h"
#include "maritime/pipeline.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"

namespace {

using namespace maritime;
using surveillance::PipelineConfig;
using surveillance::SlideReport;
using surveillance::SurveillancePipeline;

using checkpoint_scenario::MakeConfig;
using checkpoint_scenario::MakeStream;
using checkpoint_scenario::MakeWorld;

void PrintSlide(const SlideReport& r) {
  size_t ces = 0;
  for (const auto& rec : r.recognition) ces += rec.RecognizedCount();
  std::printf("  slide q=%s%s: %zu positions, %zu critical points, %zu CEs\n",
              FormatTimestamp(r.query_time).c_str(),
              r.final_flush ? " (flush)" : "", r.raw_positions,
              r.critical_points.size(), ces);
}

int CmdRun(const std::string& path, int slides) {
  sim::World world = MakeWorld();
  const auto tuples = MakeStream(&world);
  const PipelineConfig cfg = MakeConfig();
  SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
  for (int i = 0; i < slides; ++i) {
    const Timestamp qt = q.Fire();
    PrintSlide(pipeline.RunSlide(qt, replayer.NextBatch(qt)));
  }
  if (const Status s = pipeline.SaveSnapshot(path); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint after %d slides -> %s\n", slides, path.c_str());
  return 0;
}

int CmdInspect(const std::string& path) {
  const Result<std::string> payload = snapshot::ReadSnapshotFile(path);
  if (!payload.ok()) {
    std::fprintf(stderr, "error: %s\n", payload.status().ToString().c_str());
    return 1;
  }
  const Result<surveillance::SnapshotManifest> m =
      surveillance::ReadSnapshotManifest(payload.value());
  if (!m.ok()) {
    std::fprintf(stderr, "error: %s\n", m.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot %s\n", path.c_str());
  std::printf("  payload bytes:   %zu\n", payload.value().size());
  std::printf("  last query time: %s\n",
              FormatTimestamp(m.value().last_query).c_str());
  std::printf("  window:          range=%s slide=%s\n",
              FormatDuration(m.value().window.range).c_str(),
              FormatDuration(m.value().window.slide).c_str());
  std::printf("  partitions:      %d\n", m.value().partitions);
  std::printf("  tracker shards:  %d\n", m.value().tracker_shards);
  std::printf("  archive:         %s\n", m.value().archive ? "on" : "off");
  std::printf("  recognition:     %s\n",
              m.value().incremental_recognition ? "incremental" : "naive");
  std::printf("  window criticals:%llu\n",
              static_cast<unsigned long long>(m.value().window_critical_points));
  std::printf("  archived trips:  %llu\n",
              static_cast<unsigned long long>(m.value().archived_trips));
  std::printf("  spans narrowed:  %llu\n",
              static_cast<unsigned long long>(m.value().spans_narrowed));
  std::printf("  fleet floor hits:%llu\n",
              static_cast<unsigned long long>(m.value().fleet_floor_hits));
  return 0;
}

int CmdResume(const std::string& path) {
  sim::World world = MakeWorld();
  const auto tuples = MakeStream(&world);
  SurveillancePipeline pipeline(&world.knowledge, MakeConfig());
  if (const Status s = pipeline.LoadSnapshot(path); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  stream::StreamReplayer replayer(tuples);
  pipeline.Resume(replayer, PrintSlide);
  std::printf("resumed run complete; %llu trips archived\n",
              static_cast<unsigned long long>(
                  pipeline.archiver()->store().trip_count()));
  return 0;
}

int CmdVerify(int kill_at) {
  sim::World world = MakeWorld();
  const auto tuples = MakeStream(&world);
  const PipelineConfig cfg = MakeConfig();

  std::vector<SlideReport> reference;
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline pipeline(&world.knowledge, cfg);
    pipeline.Run(replayer,
                 [&](const SlideReport& r) { reference.push_back(r); });
  }
  if (static_cast<size_t>(kill_at) >= reference.size()) {
    std::fprintf(stderr, "error: --kill-at %d out of range (run has %zu "
                 "slides)\n", kill_at, reference.size());
    return 2;
  }

  // Kill: run to the boundary, checkpoint through the file container.
  snapshot::Writer w;
  {
    stream::StreamReplayer replayer(tuples);
    SurveillancePipeline victim(&world.knowledge, cfg);
    stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
    for (int i = 0; i < kill_at; ++i) {
      const Timestamp qt = q.Fire();
      victim.RunSlide(qt, replayer.NextBatch(qt));
    }
    victim.SaveTo(w);
  }
  const std::string file = snapshot::EncodeSnapshotFile(w.bytes());
  const Result<std::string_view> payload = snapshot::DecodeSnapshotFile(file);
  if (!payload.ok()) {
    std::fprintf(stderr, "FAIL: container round trip: %s\n",
                 payload.status().ToString().c_str());
    return 1;
  }

  // Recover and compare everything after the kill point.
  SurveillancePipeline recovered(&world.knowledge, cfg);
  snapshot::Reader r(payload.value());
  if (const Status s = recovered.RestoreFrom(r); !s.ok()) {
    std::fprintf(stderr, "FAIL: restore: %s\n", s.ToString().c_str());
    return 1;
  }
  stream::StreamReplayer replayer(tuples);
  std::vector<SlideReport> post;
  recovered.Resume(replayer, [&](const SlideReport& rep) {
    post.push_back(rep);
  });

  const size_t expected = reference.size() - static_cast<size_t>(kill_at);
  if (post.size() != expected) {
    std::fprintf(stderr, "FAIL: %zu post-recovery slides, expected %zu\n",
                 post.size(), expected);
    return 1;
  }
  for (size_t i = 0; i < post.size(); ++i) {
    const SlideReport& a = reference[static_cast<size_t>(kill_at) + i];
    const SlideReport& b = post[i];
    if (a.query_time != b.query_time ||
        a.critical_points != b.critical_points ||
        a.recognition.size() != b.recognition.size()) {
      std::fprintf(stderr, "FAIL: slide shape diverged at q=%s\n",
                   FormatTimestamp(a.query_time).c_str());
      return 1;
    }
    for (size_t p = 0; p < a.recognition.size(); ++p) {
      if (!(a.recognition[p] == b.recognition[p])) {
        std::fprintf(stderr,
                     "FAIL: recognition diverged at q=%s partition %zu\n",
                     FormatTimestamp(a.query_time).c_str(), p);
        return 1;
      }
    }
  }
  std::printf("OK: killed at slide %d, %zu post-recovery slides "
              "bit-identical\n", kill_at, post.size());
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run <snapshot.msnp> [--slides N]\n"
               "       %s inspect <snapshot.msnp>\n"
               "       %s resume <snapshot.msnp>\n"
               "       %s verify [--kill-at N]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "run") {
    if (argc < 3) return Usage(argv[0]);
    int slides = 6;
    if (argc == 5 && std::strcmp(argv[3], "--slides") == 0) {
      slides = std::atoi(argv[4]);
    }
    if (slides < 1) return Usage(argv[0]);
    return CmdRun(argv[2], slides);
  }
  if (cmd == "inspect") {
    if (argc != 3) return Usage(argv[0]);
    return CmdInspect(argv[2]);
  }
  if (cmd == "resume") {
    if (argc != 3) return Usage(argv[0]);
    return CmdResume(argv[2]);
  }
  if (cmd == "verify") {
    int kill_at = 3;
    if (argc == 4 && std::strcmp(argv[2], "--kill-at") == 0) {
      kill_at = std::atoi(argv[3]);
    }
    if (kill_at < 1) return Usage(argv[0]);
    return CmdVerify(kill_at);
  }
  return Usage(argv[0]);
}
