// Microbenchmarks (ablation): per-tuple cost of the mobility tracker,
// validating the complexity claims of paper Section 3.1 — O(1) per incoming
// tuple for instantaneous events and gaps, O(m) for long-lasting events —
// by sweeping the history size m. BM_ScanTaggedLines and BM_TrackerSlide
// time the two ingest layers on a simulated feed, BM_PipelineCheckpoint
// and BM_PipelineRestore time one whole-pipeline checkpoint and one restore,
// and all four count their heap allocations (tools/check_alloc_budget.py
// gates the counts).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <string_view>

#include "ais/scanner.h"
#include "alloc_counter.h"
#include "checkpoint_scenario.h"
#include "common/thread_pool.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/scenarios.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"
#include "tracker/mobility_tracker.h"
#include "tracker/sharded_tracker.h"

namespace maritime::tracker {
namespace {

/// A simulated 300-vessel, 6 h feed: its position reports and the tagged
/// NMEA lines encoding them (type 5 and two-sentence type 19 included).
struct IngestFeed {
  std::vector<stream::PositionTuple> tuples;
  std::string text;
  std::vector<std::string_view> lines;
};

const IngestFeed& SimulatedFeed() {
  static const IngestFeed* feed = [] {
    auto* f = new IngestFeed;
    sim::World world = sim::BuildWorld(11);
    sim::FleetConfig config;
    config.vessels = 300;
    config.duration = 6 * kHour;
    config.seed = 12;
    sim::FleetSimulator simulator(&world, config);
    f->tuples = simulator.Generate();
    sim::NmeaFeedOptions nmea;
    nmea.seed = 13;
    f->text = sim::EncodeTaggedNmeaFeed(f->tuples, simulator.fleet(), nmea);
    const std::string_view text(f->text);
    for (size_t start = 0; start < text.size();) {
      size_t end = text.find('\n', start);
      if (end == std::string_view::npos) end = text.size();
      f->lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
    return f;
  }();
  return *feed;
}

void BM_ScanTaggedLines(benchmark::State& state) {
  // The Data Scanner over every line of the feed, draining the type 5
  // reports every 4096 lines as a slide would.
  const IngestFeed& feed = SimulatedFeed();
  uint64_t allocs = 0;
  uint64_t accepted = 0;
  for (auto _ : state) {
    ais::DataScanner scanner;
    const uint64_t before = bench::HeapAllocs();
    for (size_t i = 0; i < feed.lines.size(); ++i) {
      const Result<stream::PositionTuple> r = scanner.FeedTagged(feed.lines[i]);
      if (r.ok()) benchmark::DoNotOptimize(r.value());
      if (i % 4096 == 4095) benchmark::DoNotOptimize(scanner.TakeStaticReports());
    }
    benchmark::DoNotOptimize(scanner.TakeStaticReports());
    allocs += bench::HeapAllocs() - before;
    accepted = scanner.stats().accepted;
  }
  const auto lines = static_cast<double>(feed.lines.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.lines.size()));
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["allocs_per_line"] =
      bench::kAllocCountingActive
          ? static_cast<double>(allocs) /
                (lines * static_cast<double>(state.iterations()))
          : 0.0;
}
BENCHMARK(BM_ScanTaggedLines)->Unit(benchmark::kMillisecond);

void BM_TrackerSlide(benchmark::State& state) {
  // The feed's reports through a one-shard tracker in 5-minute slides, as
  // the pipeline drives it (Process + AdvanceTo + Compress per slide).
  const IngestFeed& feed = SimulatedFeed();
  const std::vector<stream::PositionTuple>& tuples = feed.tuples;
  uint64_t allocs = 0;
  for (auto _ : state) {
    ShardedMobilityTracker tracker(TrackerParams(), 1);
    const uint64_t before = bench::HeapAllocs();
    size_t begin = 0;
    for (Timestamp q = tuples.front().tau + 5 * kMinute; begin < tuples.size();
         q += 5 * kMinute) {
      size_t end = begin;
      while (end < tuples.size() && tuples[end].tau <= q) ++end;
      benchmark::DoNotOptimize(tracker.ProcessSlide(
          std::span<const stream::PositionTuple>(tuples.data() + begin,
                                                 end - begin),
          q));
      begin = end;
    }
    allocs += bench::HeapAllocs() - before;
  }
  const auto n = static_cast<double>(tuples.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
  state.counters["allocs_per_tuple"] =
      bench::kAllocCountingActive
          ? static_cast<double>(allocs) /
                (n * static_cast<double>(state.iterations()))
          : 0.0;
}
BENCHMARK(BM_TrackerSlide)->Unit(benchmark::kMillisecond);

void BM_PipelineCheckpoint(benchmark::State& state) {
  // One checkpoint as bench/e2e's checkpoint_restart takes it after every
  // slide: SurveillancePipeline::SaveTo into a fresh Writer, then
  // EncodeSnapshotFile. The pipeline is checkpoint_tool's scenario halfway
  // through its stream, and has saved once before, as it would have after
  // the previous slide.
  sim::World world = checkpoint_scenario::MakeWorld();
  const std::vector<stream::PositionTuple> tuples =
      checkpoint_scenario::MakeStream(&world);
  const surveillance::PipelineConfig cfg = checkpoint_scenario::MakeConfig();
  surveillance::SurveillancePipeline pipeline(&world.knowledge, cfg);
  stream::StreamReplayer replayer(tuples);
  stream::QueryTimeSequence queries(cfg.window, replayer.first_timestamp());
  const Timestamp mid =
      tuples.front().tau + (tuples.back().tau - tuples.front().tau) / 2;
  for (Timestamp q = queries.Fire(); q <= mid; q = queries.Fire()) {
    pipeline.RunSlide(q, replayer.NextBatch(q));
  }
  const auto checkpoint = [&pipeline] {
    snapshot::Writer w;
    pipeline.SaveTo(w);
    return snapshot::EncodeSnapshotFile(w.bytes());
  };
  size_t bytes = checkpoint().size();
  uint64_t allocs = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const uint64_t before = bench::HeapAllocs();
    const auto t0 = std::chrono::steady_clock::now();
    const std::string file = checkpoint();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    allocs += bench::HeapAllocs() - before;
    bytes = file.size();
    benchmark::DoNotOptimize(file.data());
  }
  const auto saves = static_cast<double>(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["bytes_per_save"] = static_cast<double>(bytes);
  state.counters["ns_per_byte"] =
      1e9 * seconds / (saves * static_cast<double>(bytes));
  state.counters["allocs_per_save"] =
      bench::kAllocCountingActive ? static_cast<double>(allocs) / saves : 0.0;
}
BENCHMARK(BM_PipelineCheckpoint)->Unit(benchmark::kMicrosecond);

void BM_PipelineRestore(benchmark::State& state) {
  // One restore as bench/e2e times it at the restart slide: decode the
  // snapshot file, build a fresh pipeline over the same knowledge base, and
  // RestoreFrom the payload. The snapshot is BM_PipelineCheckpoint's, taken
  // halfway through checkpoint_tool's stream. The previous restored
  // pipeline is freed outside the measured region.
  sim::World world = checkpoint_scenario::MakeWorld();
  const std::vector<stream::PositionTuple> tuples =
      checkpoint_scenario::MakeStream(&world);
  const surveillance::PipelineConfig cfg = checkpoint_scenario::MakeConfig();
  std::string file;
  {
    surveillance::SurveillancePipeline pipeline(&world.knowledge, cfg);
    stream::StreamReplayer replayer(tuples);
    stream::QueryTimeSequence queries(cfg.window, replayer.first_timestamp());
    const Timestamp mid =
        tuples.front().tau + (tuples.back().tau - tuples.front().tau) / 2;
    for (Timestamp q = queries.Fire(); q <= mid; q = queries.Fire()) {
      pipeline.RunSlide(q, replayer.NextBatch(q));
    }
    snapshot::Writer w;
    pipeline.SaveTo(w);
    file = snapshot::EncodeSnapshotFile(w.bytes());
  }
  uint64_t allocs = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const uint64_t before = bench::HeapAllocs();
    const auto t0 = std::chrono::steady_clock::now();
    const Result<std::string_view> payload =
        snapshot::DecodeSnapshotFile(file);
    auto restored = std::make_unique<surveillance::SurveillancePipeline>(
        &world.knowledge, cfg);
    bool ok = payload.ok();
    if (ok) {
      snapshot::Reader r(payload.value());
      ok = restored->RestoreFrom(r).ok() && r.AtEnd();
    }
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    allocs += bench::HeapAllocs() - before;
    if (!ok) {
      state.SkipWithError("restore failed");
      break;
    }
    state.PauseTiming();
    restored.reset();
    state.ResumeTiming();
  }
  const auto restores = static_cast<double>(state.iterations());
  const auto bytes = static_cast<double>(file.size());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(file.size()));
  state.counters["bytes_per_restore"] = bytes;
  state.counters["ns_per_byte"] = 1e9 * seconds / (restores * bytes);
  state.counters["allocs_per_restore"] =
      bench::kAllocCountingActive ? static_cast<double>(allocs) / restores
                                  : 0.0;
}
BENCHMARK(BM_PipelineRestore)->Unit(benchmark::kMicrosecond);

std::vector<stream::PositionTuple> CruiseTuples(int n) {
  return sim::TraceBuilder(1, geo::GeoPoint{24.0, 37.0}, 0)
      .Cruise(45.0, 12.0, static_cast<Duration>(n) * 30, 30)
      .Build();
}

std::vector<stream::PositionTuple> AnchoredTuples(int n) {
  return sim::TraceBuilder(1, geo::GeoPoint{24.0, 37.0}, 0)
      .Drift(static_cast<Duration>(n) * 30, 30, 10.0)
      .Build();
}

void BM_ProcessCruise(benchmark::State& state) {
  const auto tuples = CruiseTuples(4096);
  TrackerParams params;
  params.history_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MobilityTracker tracker(params);
    std::vector<CriticalPoint> out;
    for (const auto& t : tuples) tracker.Process(t, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ProcessCruise)->Arg(2)->Arg(10)->Arg(50)->Arg(200);

void BM_ProcessAnchored(benchmark::State& state) {
  // Anchored vessels exercise the stop-detection (O(m)) path on every tuple.
  const auto tuples = AnchoredTuples(4096);
  TrackerParams params;
  params.history_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MobilityTracker tracker(params);
    std::vector<CriticalPoint> out;
    for (const auto& t : tuples) tracker.Process(t, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ProcessAnchored)->Arg(2)->Arg(10)->Arg(50)->Arg(200);

void BM_ManyVessels(benchmark::State& state) {
  // Fleet-size scaling: hash-map dispatch must keep per-tuple cost flat.
  const int vessels = static_cast<int>(state.range(0));
  std::vector<std::vector<stream::PositionTuple>> traces;
  for (int v = 0; v < vessels; ++v) {
    traces.push_back(sim::TraceBuilder(static_cast<stream::Mmsi>(v + 1),
                                       geo::GeoPoint{24.0 + 0.01 * v, 37.0},
                                       0)
                         .Cruise(45.0, 12.0, 64 * 30, 30)
                         .Build());
  }
  const auto tuples = sim::MergeTraces(std::move(traces));
  for (auto _ : state) {
    MobilityTracker tracker;
    std::vector<CriticalPoint> out;
    for (const auto& t : tuples) tracker.Process(t, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ManyVessels)->Arg(16)->Arg(128)->Arg(1024);

void BM_ShardedSlide(benchmark::State& state) {
  // Threads axis (paper Section 5.2 scaling): one window slide's batch for a
  // large fleet, processed by an MMSI-sharded tracker on the shared pool.
  // With >= 4 cores, 4 shards should track at >= 2x the 1-shard throughput.
  const int shards = static_cast<int>(state.range(0));
  const int vessels = 512;
  std::vector<std::vector<stream::PositionTuple>> traces;
  for (int v = 0; v < vessels; ++v) {
    traces.push_back(sim::TraceBuilder(static_cast<stream::Mmsi>(v + 1),
                                       geo::GeoPoint{24.0 + 0.01 * v, 37.0},
                                       0)
                         .Cruise(45.0, 12.0, 64 * 30, 30)
                         .Build());
  }
  const auto tuples = sim::MergeTraces(std::move(traces));
  const Timestamp q = tuples.back().tau + 1;
  for (auto _ : state) {
    ShardedMobilityTracker tracker(TrackerParams(), shards,
                                   &common::ThreadPool::Shared());
    auto out = tracker.ProcessSlide(tuples, q);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_ShardedSlide)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace maritime::tracker
