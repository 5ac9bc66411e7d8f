// Microbenchmarks (ablation): the RTEC substrate — holdsAt lookups and the
// maximal-interval sweep — whose cost underlies every recognition query —
// plus end-to-end windowed CE recognition under the naive vs incremental
// engine (the `engine` axis: arg 0 = naive, 1 = incremental, 2 = auto) and
// across window shapes ω/β. Supports the design choices of flat sorted
// interval lists and dirty-key caching (DESIGN.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "alloc_counter.h"
#include "common/rng.h"
#include "fig11_common.h"
#include "rtec/engine.h"
#include "rtec/interval.h"
#include "rtec/timeline.h"

namespace maritime::rtec {
namespace {

/// A normalized list of n intervals, built in time order: each starts 1-300
/// points past the previous one's end and lasts 1-100 points.
IntervalList MakeList(Rng& rng, int n) {
  IntervalList out;
  Timestamp cursor = 0;
  for (int i = 0; i < n; ++i) {
    const Timestamp since = cursor + rng.NextInt(1, 300);
    out.push_back(Interval{since, since + rng.NextInt(1, 100)});
    cursor = out.back().till;
  }
  return out;
}

void BM_HoldsAt(benchmark::State& state) {
  Rng rng(5);
  const IntervalList list =
      MakeList(rng, static_cast<int>(state.range(0)));
  Timestamp t = 0;
  for (auto _ : state) {
    t = (t + 7919) % 1000000;
    benchmark::DoNotOptimize(HoldsAt(list, t));
  }
}
BENCHMARK(BM_HoldsAt)->Arg(16)->Arg(4096);

void BM_ComputeSimpleFluent(benchmark::State& state) {
  Rng rng(6);
  FluentEvidence ev;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    ev.initiations.push_back({kTrue, rng.NextInt(1, 100000)});
    ev.terminations.push_back({kTrue, rng.NextInt(1, 100000)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSimpleFluent(ev, 0, 100000));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ComputeSimpleFluent)->Arg(16)->Arg(256)->Arg(4096);

/// DirtyMap marking strategies (args: strategy, distinct keys per round).
/// Strategy 0 is the pre-batch reference — a sorted-vector insert per mark,
/// an O(n) element shift for every key not yet in the map; strategy 1 is the
/// shipped batch path (`DirtyMap::Mark` appends to an unsorted pending
/// vector, one `Flush` sort + linear merge before reads). Each round marks
/// every key twice in shuffled order (two dirty channels per vessel), reads
/// one key, then retires the marks with `RetainAfter` — the per-slide
/// lifecycle on a busy slide or cold fill, which is where the insert shift
/// goes quadratic. `allocs_per_round` shows both sides reuse capacity
/// (amortized-zero heap traffic once warm); the time axis is the point.
void BM_DirtyMapMark(benchmark::State& state) {
  const bool batch = state.range(0) == 1;
  const int keys = static_cast<int>(state.range(1));
  // Shuffled marking order: ascending keys would land every reference
  // insert at the back of the vector and hide the shift cost.
  std::vector<rtec::Term> order(static_cast<size_t>(keys));
  for (int i = 0; i < keys; ++i) order[static_cast<size_t>(i)] = {0, i};
  Rng rng(7);
  for (int i = keys - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.NextInt(0, i))]);
  }

  // The reference: what DirtyMap::Mark did before the pending batch.
  struct SortedInsertMap {
    std::vector<std::pair<rtec::Term, rtec::DirtyMap::MarkRange>> at;
    void Mark(rtec::Term k, Timestamp t) {
      auto it = std::lower_bound(
          at.begin(), at.end(), k,
          [](const auto& e, const rtec::Term& key) { return e.first < key; });
      if (it != at.end() && it->first == k) {
        it->second.min = std::min(it->second.min, t);
        it->second.max = std::max(it->second.max, t);
      } else {
        at.insert(it, {k, rtec::DirtyMap::MarkRange{t, t}});
      }
    }
  };

  rtec::DirtyMap batched;
  SortedInsertMap reference;
  Timestamp t = 0;
  uint64_t rounds = 0;
  uint64_t allocs = 0;
  for (auto _ : state) {
    const uint64_t allocs_before =
        bench::g_heap_allocs.load(std::memory_order_relaxed);
    Timestamp probe;
    if (batch) {
      for (int pass = 0; pass < 2; ++pass) {
        for (const rtec::Term& k : order) batched.Mark(k, ++t);
      }
      batched.Flush();
      probe = batched.For(order[0]);
      batched.RetainAfter(t + 1);  // marks consumed; capacity retained
    } else {
      for (int pass = 0; pass < 2; ++pass) {
        for (const rtec::Term& k : order) reference.Mark(k, ++t);
      }
      probe = reference.at.front().second.min;
      reference.at.clear();
    }
    benchmark::DoNotOptimize(probe);
    allocs += bench::g_heap_allocs.load(std::memory_order_relaxed) -
              allocs_before;
    ++rounds;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rounds) * 2 * keys);
  state.counters["allocs_per_round"] =
      rounds > 0 ? static_cast<double>(allocs) / static_cast<double>(rounds)
                 : 0.0;
}
BENCHMARK(BM_DirtyMapMark)
    ->Args({0, 256})
    ->Args({0, 4096})
    ->Args({1, 256})
    ->Args({1, 4096});

/// The fig-11a ME stream shared by the windowed-recognition benches: 100
/// base vessels over 12 h.
const bench::Fig11Workload& Fig11Stream() {
  static const bench::Fig11Workload* workload = [] {
    return new bench::Fig11Workload(
        bench::MakeFig11Workload(/*base_vessels=*/100, /*duration=*/12 * kHour));
  }();
  return *workload;
}

/// The `engine` axis of the windowed-recognition benches.
constexpr surveillance::EngineMode kEngineAxis[] = {
    surveillance::EngineMode::kNaive, surveillance::EngineMode::kIncremental,
    surveillance::EngineMode::kAuto};

/// End-to-end windowed recognition over the fig-11a ME stream at window
/// range `range` and slide β = 1 h. One iteration replays the whole stream
/// through a fresh recognizer — Recognize() per slide, feeding excluded from
/// nothing (the feed cost is negligible next to recognition). The
/// incremental/naive items_per_second ratio is the recognition-throughput
/// speedup; the `hit_rate` counter reports incremental cache reuse.
void ReplayFig11(benchmark::State& state, surveillance::EngineMode mode,
                 Timestamp range) {
  const bench::Fig11Workload& w = Fig11Stream();
  double hits = 0.0;
  double lookups = 0.0;
  size_t queries = 0;
  uint64_t recognize_allocs = 0;
  uint64_t arena_bytes = 0;
  uint64_t arena_slides = 0;
  uint64_t arena_chunks = 0;
  uint64_t fallback_allocs = 0;
  uint64_t spans_narrowed = 0;
  uint64_t fleet_floor_hits = 0;
  for (auto _ : state) {
    surveillance::RecognizerConfig cfg;
    cfg.window = stream::WindowSpec{range, kHour};
    cfg.ce.enable_adrift = false;
    cfg.engine = mode;
    surveillance::CERecognizer rec(&w.data.world.knowledge, cfg);
    size_t cursor = 0;
    size_t recognized = 0;
    for (Timestamp q = kHour; q <= w.horizon; q += kHour) {
      while (cursor < w.criticals.size() && w.criticals[cursor].tau <= q) {
        rec.Feed(w.criticals[cursor]);
        ++cursor;
      }
      const uint64_t allocs_before =
          bench::g_heap_allocs.load(std::memory_order_relaxed);
      const RecognitionResult r = rec.Recognize(q);
      recognize_allocs += bench::g_heap_allocs.load(std::memory_order_relaxed) -
                          allocs_before;
      recognized += r.events.size() + r.fluents.size();
      ++queries;
    }
    benchmark::DoNotOptimize(recognized);
    const EngineCacheStats& stats = rec.engine().cache_stats();
    hits += static_cast<double>(stats.hits);
    lookups += static_cast<double>(stats.hits + stats.misses);
    const EngineAllocStats& alloc = rec.engine().alloc_stats();
    arena_bytes += alloc.arena_bytes;
    arena_slides += alloc.slides;
    arena_chunks = std::max(arena_chunks, alloc.arena_chunks);
    fallback_allocs += alloc.fallback_allocs;
    spans_narrowed += stats.spans_narrowed;
    fleet_floor_hits += stats.fleet_floor_hits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.counters["hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;
  // Slide-arena telemetry (EngineAllocStats): how much scratch each slide
  // bumps, how many chunks the reserve holds, and how often a large object
  // fell back to the general heap.
  state.counters["arena_bytes_per_slide"] =
      arena_slides > 0 ? static_cast<double>(arena_bytes) /
                             static_cast<double>(arena_slides)
                       : 0.0;
  state.counters["arena_chunks"] = static_cast<double>(arena_chunks);
  state.counters["arena_fallback_allocs"] = static_cast<double>(fallback_allocs);
  // Heap allocator traffic (operator-new calls) per Recognize, including the
  // RecognitionResult rows handed back to the caller. Zero when the counting
  // interposition is disabled (sanitizer builds).
  state.counters["allocs_per_slide"] =
      bench::kAllocCountingActive && queries > 0
          ? static_cast<double>(recognize_allocs) / static_cast<double>(queries)
          : 0.0;
  // Dependency-scoped dirty propagation (DESIGN.md §14): cross-key regen
  // spans narrowed below the fleet floor, and fleet-floor fallbacks.
  state.counters["spans_narrowed"] = static_cast<double>(spans_narrowed);
  state.counters["fleet_floor_hits"] = static_cast<double>(fleet_floor_hits);
}
/// ω = 6 h (overlap 5/6, the paper's steady-fleet regime). Arg: the engine
/// (0 = naive, 1 = incremental, 2 = auto, which resolves to incremental at
/// ω = 6β).
void BM_CERecognitionWindow(benchmark::State& state) {
  ReplayFig11(state, kEngineAxis[state.range(0)], 6 * kHour);
}
BENCHMARK(BM_CERecognitionWindow)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The window shapes around EngineMode::kAuto's threshold (incremental iff
/// ω >= 3β). Args: the engine (0 = naive, 1 = incremental) and ω/β;
/// BM_CERecognitionWindow/0 and /1 are the ω/β = 6 points.
void BM_WindowShape(benchmark::State& state) {
  ReplayFig11(state, kEngineAxis[state.range(0)], state.range(1) * kHour);
}
BENCHMARK(BM_WindowShape)
    ->ArgsProduct({{0, 1}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

/// The skewed-fleet regime (first-class bench axis of the dependency-scoped
/// dirty propagation work, DESIGN.md §14): one vessel cycles stop /
/// slow-motion / gap episodes inside one area while 600 parked vessels stay
/// silent, ω=6h β=15min, incremental engine: only the touched areas
/// regenerate, each from its own dirty time. Mirrored in BENCH_rtec.json
/// `skew_rows`. Manual time: only steady-state slides (window already full)
/// are timed — the cold fill evaluates every key from scratch and would
/// dilute the incremental per-slide cost.
void BM_SkewedFleetRecognition(benchmark::State& state) {
  struct Workload {
    sim::World world;
    std::vector<tracker::CriticalPoint> criticals;
  };
  static const Workload* workload = [] {
    auto* w = new Workload{sim::BuildWorld(1234), {}};
    w->criticals =
        bench::MakeSkewedFleetCriticals(w->world, /*idle_vessels=*/600,
                                        /*horizon=*/24 * kHour);
    return w;
  }();
  const stream::WindowSpec window{6 * kHour, 15 * kMinute};
  double hits = 0.0;
  double lookups = 0.0;
  size_t queries = 0;
  uint64_t recognize_allocs = 0;
  uint64_t spans_narrowed = 0;
  uint64_t fleet_floor_hits = 0;
  for (auto _ : state) {
    surveillance::RecognizerConfig cfg;
    cfg.window = window;
    cfg.ce.enable_adrift = false;
    cfg.engine = surveillance::EngineMode::kIncremental;
    surveillance::CERecognizer rec(&workload->world.knowledge, cfg);
    size_t cursor = 0;
    size_t recognized = 0;
    double steady_seconds = 0.0;
    for (Timestamp q = window.slide; q <= 24 * kHour; q += window.slide) {
      while (cursor < workload->criticals.size() &&
             workload->criticals[cursor].tau <= q) {
        rec.Feed(workload->criticals[cursor]);
        ++cursor;
      }
      const bool steady = q > window.range;
      const uint64_t allocs_before =
          bench::g_heap_allocs.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      const RecognitionResult r = rec.Recognize(q);
      if (steady) {
        steady_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        recognize_allocs +=
            bench::g_heap_allocs.load(std::memory_order_relaxed) -
            allocs_before;
        ++queries;
      }
      recognized += r.events.size() + r.fluents.size();
    }
    state.SetIterationTime(steady_seconds);
    benchmark::DoNotOptimize(recognized);
    const EngineCacheStats& stats = rec.engine().cache_stats();
    hits += static_cast<double>(stats.hits);
    lookups += static_cast<double>(stats.hits + stats.misses);
    spans_narrowed += stats.spans_narrowed;
    fleet_floor_hits += stats.fleet_floor_hits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.counters["hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;
  state.counters["spans_narrowed"] = static_cast<double>(spans_narrowed);
  state.counters["fleet_floor_hits"] = static_cast<double>(fleet_floor_hits);
  state.counters["allocs_per_slide"] =
      bench::kAllocCountingActive && queries > 0
          ? static_cast<double>(recognize_allocs) / static_cast<double>(queries)
          : 0.0;
}
BENCHMARK(BM_SkewedFleetRecognition)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The long-window regime (the e2e `long_window` window shape: ω = 9 h,
/// β = 1 min, precomputed spatial facts) over the fig-11a ME stream on the
/// incremental engine. Each slide changes a minute of a nine-hour window, so
/// most keys are clean and take the O(1) fast-forward; what a slide costs
/// beyond that is the input merge and the dirty keys (DESIGN.md §7). Manual
/// time: only steady-state slides (window full, q > ω) are timed, as in
/// BM_SkewedFleetRecognition. Reports µs and heap allocations per steady
/// slide, the key evaluations per slide (every key of every simple fluent,
/// visited or not, plus one per derived event: the work a slide would do if
/// it walked every key), the share of them that were fast-forwarded, and the
/// heap allocations per fed critical point over every slide (the e2e
/// `maritime.feed_allocs_per_cp`: ME assertion plus the spatial-fact group).
void BM_LongWindowRecognition(benchmark::State& state) {
  const bench::Fig11Workload& w = Fig11Stream();
  const stream::WindowSpec window{9 * kHour, kMinute};
  size_t queries = 0;
  double steady_total = 0.0;
  uint64_t recognize_allocs = 0;
  uint64_t feed_allocs = 0;
  uint64_t fed = 0;
  uint64_t fast_forwards = 0;
  uint64_t evals = 0;
  uint64_t slides = 0;
  for (auto _ : state) {
    surveillance::RecognizerConfig cfg;
    cfg.window = window;
    cfg.ce.use_spatial_facts = true;
    cfg.engine = surveillance::EngineMode::kIncremental;
    surveillance::CERecognizer rec(&w.data.world.knowledge, cfg);
    size_t cursor = 0;
    size_t recognized = 0;
    double steady_seconds = 0.0;
    for (Timestamp q = window.slide; q <= w.horizon; q += window.slide) {
      const uint64_t feed_before =
          bench::g_heap_allocs.load(std::memory_order_relaxed);
      while (cursor < w.criticals.size() && w.criticals[cursor].tau <= q) {
        rec.Feed(w.criticals[cursor]);
        ++cursor;
        ++fed;
      }
      feed_allocs +=
          bench::g_heap_allocs.load(std::memory_order_relaxed) - feed_before;
      const bool steady = q > window.range;
      const uint64_t allocs_before =
          bench::g_heap_allocs.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      const RecognitionResult r = rec.Recognize(q);
      if (steady) {
        steady_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        recognize_allocs +=
            bench::g_heap_allocs.load(std::memory_order_relaxed) -
            allocs_before;
        ++queries;
      }
      recognized += r.events.size() + r.fluents.size();
      ++slides;
    }
    state.SetIterationTime(steady_seconds);
    steady_total += steady_seconds;
    benchmark::DoNotOptimize(recognized);
    for (const DefRegenStats& st : rec.engine().def_regen_stats()) {
      fast_forwards += st.fast_forwards;
      evals += st.evals;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.counters["us_per_slide"] =
      queries > 0 ? 1e6 * steady_total / static_cast<double>(queries) : 0.0;
  state.counters["allocs_per_slide"] =
      bench::kAllocCountingActive && queries > 0
          ? static_cast<double>(recognize_allocs) / static_cast<double>(queries)
          : 0.0;
  state.counters["keys_per_slide"] =
      slides > 0 ? static_cast<double>(evals) / static_cast<double>(slides)
                 : 0.0;
  state.counters["fast_forward_share"] =
      evals > 0 ? static_cast<double>(fast_forwards) /
                      static_cast<double>(evals)
                : 0.0;
  state.counters["feed_allocs_per_cp"] =
      bench::kAllocCountingActive && fed > 0
          ? static_cast<double>(feed_allocs) / static_cast<double>(fed)
          : 0.0;
}
BENCHMARK(BM_LongWindowRecognition)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace maritime::rtec
