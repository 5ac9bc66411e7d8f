#ifndef MARITIME_BENCH_FIG11_COMMON_H_
#define MARITIME_BENCH_FIG11_COMMON_H_

#include <span>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "maritime/pipeline.h"
#include "maritime/recognizer.h"
#include "stream/replayer.h"
#include "stream/sliding_window.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"

namespace maritime::bench {

/// Workload for the Figure 11 experiments: the critical-point (ME) stream
/// produced by the trajectory detection component over the full run, in
/// stream order, plus the world it was generated against.
struct Fig11Workload {
  BenchStream data;
  std::vector<tracker::CriticalPoint> criticals;
  Timestamp horizon = 0;
};

inline Fig11Workload MakeFig11Workload(int base_vessels, Duration duration) {
  Fig11Workload w{MakeBenchStream(base_vessels, duration), {}, duration};
  tracker::MobilityTracker tracker;
  tracker::Compressor compressor;
  std::vector<tracker::CriticalPoint> raw;
  for (const auto& t : w.data.tuples) tracker.Process(t, &raw);
  tracker.Finish(&raw);
  compressor.Compress(&raw, w.data.tuples.size());
  w.criticals = std::move(raw);
  return w;
}

struct Fig11Row {
  double fleet_scale;
  int vessels;
  Duration range;
  int processors;
  bool incremental;
  double avg_recognition_seconds;
  double avg_input_facts;   ///< MEs (+ spatial facts in 11(b)) per window.
  double avg_ces;           ///< Recognized CE items per query.
  size_t queries;
  double cache_hit_rate;    ///< 0 under the naive engine.
  double speedup_vs_naive;  ///< 0 when the naive pairing was not run.
  // Slide-arena telemetry, summed over partitions (RecognizeTotals).
  double arena_kb_per_query = 0.0;   ///< Arena KiB bumped per Recognize().
  uint64_t arena_chunks = 0;         ///< Arena chunks reserved at the end.
  uint64_t arena_fallback_allocs = 0;  ///< Large-object heap fallbacks.
  // Dependency-scoped dirty propagation telemetry (DESIGN.md §14), summed
  // over partitions: cross-key regen spans narrowed below the fleet floor,
  // and evaluations that fell back to the fleet-wide dirty minimum.
  uint64_t spans_narrowed = 0;
  uint64_t fleet_floor_hits = 0;
};

/// Runs CE recognition over the ME stream at slide β=1h for the given
/// window range, partition count, and engine, measuring only the
/// Recognize() calls (feeding — which in the paper happens upstream — is
/// excluded, as are the precomputation of spatial facts in the 11(b)
/// setting).
inline Fig11Row RunFig11Config(const Fig11Workload& w, Duration range,
                               int processors, bool spatial_facts,
                               bool incremental) {
  surveillance::RecognizerConfig cfg;
  cfg.window = stream::WindowSpec{range, kHour};
  cfg.ce.use_spatial_facts = spatial_facts;
  // Reproduce the paper's exact CE set (the adrift extension is vessel-keyed
  // and would skew counts between the 1- and 2-processor settings).
  cfg.ce.enable_adrift = false;
  cfg.engine = incremental ? surveillance::EngineMode::kIncremental
                           : surveillance::EngineMode::kNaive;
  surveillance::PartitionedRecognizer rec(w.data.world.knowledge, cfg,
                                          processors);
  Fig11Row row{0.0, 0,   range, processors, incremental, 0.0,
               0.0, 0.0, 0,     0.0,        0.0};
  size_t cursor = 0;
  for (Timestamp q = kHour; q <= w.horizon; q += kHour) {
    size_t end = cursor;
    while (end < w.criticals.size() && w.criticals[end].tau <= q) ++end;
    // Feed the slide's MEs in one call: the 11(b) spatial facts are computed
    // at feed time, and only Recognize() is measured, as in the paper.
    rec.Feed(std::span<const tracker::CriticalPoint>(w.criticals.data() + cursor,
                                                     end - cursor));
    cursor = end;
    const double t0 = NowSeconds();
    const auto results = rec.Recognize(q);
    row.avg_recognition_seconds += NowSeconds() - t0;
    for (const auto& r : results) {
      row.avg_input_facts += static_cast<double>(r.input_events_in_window);
      row.avg_ces += static_cast<double>(r.RecognizedCount());
    }
    ++row.queries;
  }
  if (row.queries > 0) {
    const double n = static_cast<double>(row.queries);
    row.avg_recognition_seconds /= n;
    row.avg_input_facts /= n;
    row.avg_ces /= n;
  }
  const auto totals = rec.totals();
  const size_t lookups = totals.cache_hits + totals.cache_misses;
  row.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(totals.cache_hits) /
                         static_cast<double>(lookups);
  if (row.queries > 0) {
    row.arena_kb_per_query = static_cast<double>(totals.arena_bytes) / 1024.0 /
                             static_cast<double>(row.queries);
  }
  row.arena_chunks = totals.arena_chunks;
  row.arena_fallback_allocs = totals.fallback_allocs;
  row.spans_narrowed = totals.spans_narrowed;
  row.fleet_floor_hits = totals.fleet_floor_hits;
  return row;
}

// ---------------------------------------------------------------------------
// Skewed-fleet axis: one vessel keeps producing MEs inside a single area
// while hundreds of parked vessels stay silent. This is the workload where
// the fleet-wide regen floor hurts most — one active vessel used to dirty
// every area-keyed definition from its own earliest change — and where
// dependency-scoped propagation (DESIGN.md §14) confines regeneration to the
// touched areas.
// ---------------------------------------------------------------------------

/// Synthetic skewed ME stream: `idle_vessels` park at area centroids within
/// the first minutes (one stop-start apiece, then silence) and one active
/// vessel cycles stop / slow-motion / gap episodes inside one area, one
/// critical point per minute, until `horizon`.
inline std::vector<tracker::CriticalPoint> MakeSkewedFleetCriticals(
    const sim::World& world, int idle_vessels, Duration horizon) {
  std::vector<geo::GeoPoint> centers;
  for (const surveillance::AreaInfo& a : world.knowledge.areas()) {
    if (a.kind != surveillance::AreaKind::kPort) {
      centers.push_back(a.polygon.VertexCentroid());
    }
  }
  std::vector<tracker::CriticalPoint> out;
  for (int i = 0; i < idle_vessels; ++i) {
    tracker::CriticalPoint cp;
    cp.mmsi = static_cast<stream::Mmsi>(1000 + i);
    cp.pos = centers[static_cast<size_t>(i) % centers.size()];
    cp.tau = 1 + i % (5 * kMinute);
    cp.flags = tracker::kFirst | tracker::kStopStart;
    out.push_back(cp);
  }
  const geo::GeoPoint home = centers[0];
  int phase = 0;
  for (Timestamp t = 5 * kMinute; t <= horizon; t += kMinute, ++phase) {
    tracker::CriticalPoint cp;
    cp.mmsi = 7;
    cp.pos = geo::GeoPoint{home.lon + (phase % 3) * 1e-4,
                           home.lat + (phase % 5) * 1e-4};
    cp.tau = t;
    switch (phase % 6) {
      case 0: cp.flags = tracker::kStopStart; break;
      case 1: cp.flags = tracker::kStopEnd; cp.duration = kMinute; break;
      case 2: cp.flags = tracker::kSlowMotionStart; break;
      case 3: cp.flags = tracker::kSlowMotionEnd; cp.duration = kMinute; break;
      case 4: cp.flags = tracker::kGapStart; break;
      default:
        cp.flags = tracker::kGapEnd | tracker::kTurn;
        cp.duration = kMinute;
        break;
    }
    out.push_back(cp);
  }
  std::sort(out.begin(), out.end(),
            [](const tracker::CriticalPoint& a,
               const tracker::CriticalPoint& b) { return a.tau < b.tau; });
  return out;
}

struct SkewRow {
  int idle_vessels = 0;
  double avg_recognition_seconds = 0.0;
  size_t queries = 0;
  double cache_hit_rate = 0.0;
  uint64_t spans_narrowed = 0;
  uint64_t fleet_floor_hits = 0;
};

/// One skewed-fleet run on a single incremental recognizer. Only
/// steady-state slides (window already full) are timed: the cold fill
/// evaluates every key from scratch, so including it would dilute the
/// incremental per-slide cost the axis exists to measure.
inline SkewRow RunSkewedConfig(const sim::World& world,
                               const std::vector<tracker::CriticalPoint>& cps,
                               stream::WindowSpec window, Duration horizon,
                               bool spatial_facts, int idle_vessels) {
  surveillance::RecognizerConfig cfg;
  cfg.window = window;
  cfg.ce.use_spatial_facts = spatial_facts;
  cfg.ce.enable_adrift = false;
  cfg.engine = surveillance::EngineMode::kIncremental;
  surveillance::CERecognizer rec(&world.knowledge, cfg);
  SkewRow row;
  row.idle_vessels = idle_vessels;
  size_t cursor = 0;
  for (Timestamp q = window.slide; q <= horizon; q += window.slide) {
    size_t end = cursor;
    while (end < cps.size() && cps[end].tau <= q) ++end;
    rec.Feed(std::span<const tracker::CriticalPoint>(cps.data() + cursor,
                                                     end - cursor));
    cursor = end;
    const double t0 = NowSeconds();
    const rtec::RecognitionResult r = rec.Recognize(q);
    const double elapsed = NowSeconds() - t0;
    (void)r;
    if (q > window.range) {  // steady state: the window is full
      row.avg_recognition_seconds += elapsed;
      ++row.queries;
    }
  }
  if (row.queries > 0) {
    row.avg_recognition_seconds /= static_cast<double>(row.queries);
  }
  const rtec::EngineCacheStats& cs = rec.engine().cache_stats();
  const size_t lookups = cs.hits + cs.misses;
  row.cache_hit_rate = lookups == 0 ? 0.0
                                    : static_cast<double>(cs.hits) /
                                          static_cast<double>(lookups);
  row.spans_narrowed = cs.spans_narrowed;
  row.fleet_floor_hits = cs.fleet_floor_hits;
  return row;
}

/// The skewed-fleet row (dependency-scoped dirty propagation), printed and
/// returned for the JSON artifact.
inline std::vector<SkewRow> RunSkewedFleet(bool spatial_facts,
                                           int idle_vessels = 600) {
  const sim::World world = sim::BuildWorld(1234);
  const Duration horizon = 24 * kHour;
  const std::vector<tracker::CriticalPoint> cps =
      MakeSkewedFleetCriticals(world, idle_vessels, horizon);
  const stream::WindowSpec window{6 * kHour, 15 * kMinute};
  std::printf("skewed fleet (1 active vessel, %d idle), omega=6h "
              "beta=15min, incremental engine:\n", idle_vessels);
  std::printf("  %-16s %-9s %-15s %-17s\n", "avg time/query", "hit rate",
              "spans narrowed", "fleet floor hits");
  const SkewRow r = RunSkewedConfig(world, cps, window, horizon, spatial_facts,
                                    idle_vessels);
  std::printf("  %12.3f ms %7.1f%% %-15llu %-17llu\n\n",
              r.avg_recognition_seconds * 1e3, r.cache_hit_rate * 100.0,
              static_cast<unsigned long long>(r.spans_narrowed),
              static_cast<unsigned long long>(r.fleet_floor_hits));
  return {r};
}

/// One end-to-end run: the whole surveillance pipeline (tracking ->
/// recognition -> no archival) over the raw position stream, on a private
/// pool of `processors` workers.
struct PipelineRow {
  int processors = 1;      ///< Pool workers (the caller thread is extra).
  double seconds = 0.0;    ///< End-to-end wall time for the full replay.
  size_t slides = 0;
  size_t tuples = 0;
  double tracking_seconds = 0.0;     ///< Sum of per-slide tracking time.
  double recognition_seconds = 0.0;  ///< Sum of per-slide recognition time.
  uint64_t steals = 0;               ///< Cross-worker task steals.
  double speedup_vs_serial = 0.0;    ///< vs 1 worker.
};

/// End-to-end execution over the fig-11 workload's raw position stream
/// (ω=6h, β=1h, 2 partitions, incremental recognition): sweeps the pool
/// size, with as many tracker shards as workers. Output is bit-identical at
/// every point of the sweep (shard and partition counts are differentially
/// tested); only the wall clock moves.
inline std::vector<PipelineRow> RunPipelineSweep(const Fig11Workload& w,
                                                 bool spatial_facts) {
  std::vector<PipelineRow> rows;
  double serial_seconds = 0.0;
  std::printf("end-to-end execution (raw stream -> tracking -> "
              "recognition), omega=6h beta=1h:\n");
  std::printf("  %-11s %-12s %-11s %-11s %-8s %-8s\n", "processors",
              "wall time", "tracking", "recognition", "steals", "speedup");
  for (const int processors : {1, 2, 4}) {
    common::ThreadPool pool(processors);
    surveillance::PipelineConfig cfg;
    cfg.window = stream::WindowSpec{6 * kHour, kHour};
    cfg.ce.use_spatial_facts = spatial_facts;
    cfg.ce.enable_adrift = false;
    cfg.partitions = 2;
    cfg.tracker_shards = processors;
    cfg.archive = false;  // online path only; archival is fig10's axis
    cfg.recognition_engine = surveillance::EngineMode::kIncremental;
    cfg.pool = &pool;

    PipelineRow row;
    row.processors = processors;
    row.tuples = w.data.tuples.size();
    stream::StreamReplayer replayer(w.data.tuples);
    surveillance::SurveillancePipeline pipeline(&w.data.world.knowledge, cfg);
    const double t0 = NowSeconds();
    pipeline.Run(replayer, [&](const surveillance::SlideReport& r) {
      ++row.slides;
      row.tracking_seconds += r.tracking_seconds;
      row.recognition_seconds += r.recognition_seconds;
    });
    row.seconds = NowSeconds() - t0;
    row.steals = pool.steal_count();
    if (processors == 1) serial_seconds = row.seconds;
    if (serial_seconds > 0.0 && row.seconds > 0.0) {
      row.speedup_vs_serial = serial_seconds / row.seconds;
    }
    std::printf("  %-11d %9.1f ms %8.1f ms %8.1f ms %-8llu %6.2fx\n",
                row.processors, row.seconds * 1e3, row.tracking_seconds * 1e3,
                row.recognition_seconds * 1e3,
                static_cast<unsigned long long>(row.steals),
                row.speedup_vs_serial);
    rows.push_back(row);
  }
  std::printf("\n");
  return rows;
}

/// How RunFig11 drives the experiment; defaults reproduce the paper figure
/// with both engine variants, sweep the end-to-end pool size, and record
/// the perf trajectory in BENCH_rtec.json.
struct Fig11Options {
  bool run_naive = true;
  bool run_incremental = true;
  bool pipeline_sweep = true;
  /// Run the skewed-fleet row (dependency-scoped dirty propagation) and
  /// record it as the JSON `skew_rows` axis.
  bool skewed_fleet = true;
  std::vector<double> fleet_scales = {1.0};
  std::string json_path;  ///< Empty disables the JSON artifact.
};

inline void WriteFig11Json(const std::string& path, const char* bench_name,
                           bool spatial_facts,
                           const std::vector<Fig11Row>& rows,
                           const std::vector<PipelineRow>& pipeline_rows = {},
                           const std::vector<SkewRow>& skew_rows = {}) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"spatial_facts\": %s,\n",
               bench_name, spatial_facts ? "true" : "false");
  std::fprintf(f, "  \"slide_hours\": 1,\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Fig11Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"fleet_scale\": %g, \"vessels\": %d, \"omega_hours\": %lld, "
        "\"processors\": %d, \"engine\": \"%s\", \"avg_ms_per_query\": %.4f, "
        "\"avg_input_facts\": %.1f, \"avg_ces\": %.2f, \"queries\": %zu, "
        "\"cache_hit_rate\": %.4f, \"speedup_vs_naive\": %.3f, "
        "\"arena_kb_per_query\": %.1f, \"arena_chunks\": %llu, "
        "\"arena_fallback_allocs\": %llu, \"spans_narrowed\": %llu, "
        "\"fleet_floor_hits\": %llu}%s\n",
        r.fleet_scale, r.vessels, static_cast<long long>(r.range / kHour),
        r.processors, r.incremental ? "incremental" : "naive",
        r.avg_recognition_seconds * 1e3, r.avg_input_facts, r.avg_ces,
        r.queries, r.cache_hit_rate, r.speedup_vs_naive, r.arena_kb_per_query,
        static_cast<unsigned long long>(r.arena_chunks),
        static_cast<unsigned long long>(r.arena_fallback_allocs),
        static_cast<unsigned long long>(r.spans_narrowed),
        static_cast<unsigned long long>(r.fleet_floor_hits),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pipeline_rows\": [\n");
  for (size_t i = 0; i < pipeline_rows.size(); ++i) {
    const PipelineRow& r = pipeline_rows[i];
    std::fprintf(
        f,
        "    {\"processors\": %d, \"wall_seconds\": %.4f, \"slides\": %zu, "
        "\"tuples\": %zu, \"tracking_seconds\": %.4f, "
        "\"recognition_seconds\": %.4f, \"steals\": %llu, "
        "\"speedup_vs_serial\": %.3f}%s\n",
        r.processors, r.seconds, r.slides, r.tuples, r.tracking_seconds,
        r.recognition_seconds, static_cast<unsigned long long>(r.steals),
        r.speedup_vs_serial, i + 1 < pipeline_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"skew_rows\": [\n");
  for (size_t i = 0; i < skew_rows.size(); ++i) {
    const SkewRow& r = skew_rows[i];
    std::fprintf(
        f,
        "    {\"idle_vessels\": %d, \"avg_ms_per_query\": %.4f, "
        "\"queries\": %zu, \"cache_hit_rate\": %.4f, "
        "\"spans_narrowed\": %llu, \"fleet_floor_hits\": %llu}%s\n",
        r.idle_vessels, r.avg_recognition_seconds * 1e3, r.queries,
        r.cache_hit_rate, static_cast<unsigned long long>(r.spans_narrowed),
        static_cast<unsigned long long>(r.fleet_floor_hits),
        i + 1 < skew_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows, %zu pipeline rows, %zu skew rows)\n",
              path.c_str(), rows.size(), pipeline_rows.size(),
              skew_rows.size());
}

inline void RunFig11(bool spatial_facts, const Fig11Options& opts = {}) {
  std::vector<Fig11Row> all;
  std::vector<PipelineRow> pipeline_rows;
  std::vector<SkewRow> skew_rows;
  for (const double scale : opts.fleet_scales) {
    const int vessels = static_cast<int>(250 * scale);
    const Fig11Workload w =
        MakeFig11Workload(/*base_vessels=*/vessels, /*duration=*/24 * kHour);
    std::printf("fleet scale %gx: %zu raw positions -> %zu critical MEs, "
                "24h, %zu areas\n\n",
                scale, w.data.tuples.size(), w.criticals.size(),
                w.data.world.knowledge.areas().size());
    std::printf("  %-10s %-12s %-13s %-16s %-16s %-9s %-9s %-10s %-8s\n",
                "omega", "processors", "engine", "avg time/query",
                "avg input facts", "avg CEs", "arena/q", "hit rate", "speedup");
    for (const Duration range : {kHour, 2 * kHour, 6 * kHour, 9 * kHour}) {
      for (const int processors : {1, 2}) {
        double naive_seconds = 0.0;
        for (const bool incremental : {false, true}) {
          if (incremental ? !opts.run_incremental : !opts.run_naive) continue;
          Fig11Row r =
              RunFig11Config(w, range, processors, spatial_facts, incremental);
          r.fleet_scale = scale;
          r.vessels = static_cast<int>(w.data.fleet.size());
          if (!incremental) {
            naive_seconds = r.avg_recognition_seconds;
          } else if (naive_seconds > 0.0 && r.avg_recognition_seconds > 0.0) {
            r.speedup_vs_naive = naive_seconds / r.avg_recognition_seconds;
          }
          std::printf("  %-10lld %-12d %-13s %10.2f ms %-16.0f %-9.1f %6.0fKiB",
                      static_cast<long long>(r.range / kHour), r.processors,
                      r.incremental ? "incremental" : "naive",
                      r.avg_recognition_seconds * 1e3, r.avg_input_facts,
                      r.avg_ces, r.arena_kb_per_query);
          if (r.incremental) {
            std::printf(" %8.1f%% %7.2fx\n", r.cache_hit_rate * 100.0,
                        r.speedup_vs_naive);
          } else {
            std::printf(" %-9s %-8s\n", "-", "-");
          }
          all.push_back(r);
        }
      }
    }
    std::printf("\n");
    // The end-to-end sweep only at the base scale: its axis is the pool
    // size, not input volume.
    if (opts.pipeline_sweep && scale == opts.fleet_scales.front()) {
      pipeline_rows = RunPipelineSweep(w, spatial_facts);
    }
  }
  if (opts.skewed_fleet) skew_rows = RunSkewedFleet(spatial_facts);
  if (!opts.json_path.empty()) {
    WriteFig11Json(opts.json_path,
                   spatial_facts ? "fig11b_ce_spatial_facts"
                                 : "fig11a_ce_recognition",
                   spatial_facts, all, pipeline_rows, skew_rows);
  }
}

}  // namespace maritime::bench

#endif  // MARITIME_BENCH_FIG11_COMMON_H_
