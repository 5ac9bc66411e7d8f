// Figure 6: online mobility tracking cost per window slide, for small
// window ranges (ω = 1h, 2h over slides of 5–30 min; Figure 6a) and large
// ranges (ω = 6h, 24h over slides of 0.5–4 h; Figure 6b).
//
// For each (ω, β) the full stream is replayed; the reported value is the
// mean wall-clock time to ingest one slide's fresh positions, detect
// trajectory events, run gap detection at the query time, and emit critical
// points — averaged over all window instantiations, exactly as the paper
// measures it. Expected shape: cost grows linearly with β (more fresh
// positions per slide) and is insensitive to ω for tracking itself.

#include "bench_common.h"
#include "common/thread_pool.h"
#include "stream/replayer.h"
#include "stream/sliding_window.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"
#include "tracker/sharded_tracker.h"

namespace maritime::bench {
namespace {

struct Row {
  Duration range;
  Duration slide;
  double avg_slide_seconds;
  size_t slides;
  uint64_t criticals;
};

Row RunConfig(const BenchStream& data, Duration range, Duration slide) {
  tracker::MobilityTracker tracker;
  tracker::Compressor compressor;
  stream::StreamReplayer replayer(data.tuples);
  stream::QueryTimeSequence queries(stream::WindowSpec{range, slide}, 0);
  const Timestamp last = replayer.last_timestamp();
  double total = 0.0;
  size_t slides = 0;
  uint64_t criticals = 0;
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    const double t0 = NowSeconds();
    std::vector<tracker::CriticalPoint> raw;
    for (const auto& tuple : batch) tracker.Process(tuple, &raw);
    tracker.AdvanceTo(q, &raw);
    compressor.Compress(&raw, batch.size());
    total += NowSeconds() - t0;
    criticals += raw.size();
    ++slides;
    if (q >= last) break;
  }
  return Row{range, slide, slides > 0 ? total / static_cast<double>(slides)
                                      : 0.0,
             slides, criticals};
}

Row RunShardedConfig(const BenchStream& data, Duration range, Duration slide,
                     int shards) {
  tracker::ShardedMobilityTracker tracker(tracker::TrackerParams(), shards,
                                          &common::ThreadPool::Shared());
  stream::StreamReplayer replayer(data.tuples);
  stream::QueryTimeSequence queries(stream::WindowSpec{range, slide}, 0);
  const Timestamp last = replayer.last_timestamp();
  double total = 0.0;
  size_t slides = 0;
  uint64_t criticals = 0;
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    const double t0 = NowSeconds();
    const auto cps = tracker.ProcessSlide(batch, q);
    total += NowSeconds() - t0;
    criticals += cps.size();
    ++slides;
    if (q >= last) break;
  }
  return Row{range, slide, slides > 0 ? total / static_cast<double>(slides)
                                      : 0.0,
             slides, criticals};
}

void PrintRow(const Row& r) {
  std::printf("  omega=%5lldmin  beta=%5lldmin  avg %10.4f ms/slide  "
              "(%zu slides, %llu critical points)\n",
              static_cast<long long>(r.range / kMinute),
              static_cast<long long>(r.slide / kMinute),
              r.avg_slide_seconds * 1e3, r.slides,
              static_cast<unsigned long long>(r.criticals));
}

void Main() {
  PrintHeader("fig6_tracking_cost — online mobility tracking cost per window",
              "Figure 6(a)/(b), EDBT 2015 paper Section 5.1");
  // 48 h of traffic so that even the 24 h window slides several times.
  const BenchStream data = MakeBenchStream(/*base_vessels=*/150,
                                           /*duration=*/48 * kHour);
  std::printf("workload: %zu positions, %zu vessels' fleet, 48h\n\n",
              data.tuples.size(), data.fleet.size());

  std::printf("--- Figure 6(a): small window ranges ---\n");
  for (const Duration range : {kHour, 2 * kHour}) {
    for (const Duration slide :
         {5 * kMinute, 10 * kMinute, 15 * kMinute, 20 * kMinute,
          30 * kMinute}) {
      PrintRow(RunConfig(data, range, slide));
    }
  }
  std::printf("\n--- Figure 6(b): large window ranges ---\n");
  for (const Duration range : {6 * kHour, 24 * kHour}) {
    for (const Duration slide :
         {30 * kMinute, kHour, 90 * kMinute, 2 * kHour, 4 * kHour}) {
      PrintRow(RunConfig(data, range, slide));
    }
  }
  std::printf("\n--- sharded tracking: threads axis (omega=1h, beta=10min) "
              "---\n");
  std::printf("shared pool: %d worker(s) (override with MARITIME_THREADS)\n",
              common::ThreadPool::Shared().worker_count() + 1);
  for (const int shards : {1, 2, 4, 8}) {
    const Row r = RunShardedConfig(data, kHour, 10 * kMinute, shards);
    std::printf("  shards=%2d  avg %10.4f ms/slide  (%zu slides, %llu "
                "critical points)\n",
                shards, r.avg_slide_seconds * 1e3, r.slides,
                static_cast<unsigned long long>(r.criticals));
  }

  std::printf("\nexpected shape (paper): per-slide cost grows ~linearly with "
              "the slide step; all configurations respond well before the "
              "next slide. With >= 4 cores, 4 shards should cut per-slide "
              "cost by >= 2x versus 1 shard while emitting the identical "
              "critical points.\n");
}

}  // namespace
}  // namespace maritime::bench

int main() {
  maritime::bench::Main();
  return 0;
}
