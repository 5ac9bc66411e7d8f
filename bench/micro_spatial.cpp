// Microbenchmark (ablation): the spatial index behind the `close`
// predicate. DESIGN.md calls the spatial index our equivalent of RTEC's
// "declarations" facility — it restricts spatial reasoning to candidate
// areas near a point. Axes:
//   - area count: 35 (the paper's world) up to 2240;
//   - index cell size, for the cell-granularity trade-off;
// plus PortContaining over the paper's world. The index answers exactly as
// an all-areas scan does (asserted in tests/spatial_index_test.cc).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "maritime/knowledge.h"
#include "sim/world.h"

namespace maritime::surveillance {
namespace {

std::vector<AreaInfo> RandomAreas(int areas, uint64_t seed) {
  Rng rng(seed);
  std::vector<AreaInfo> out;
  for (int i = 0; i < areas; ++i) {
    AreaInfo a;
    a.id = i + 1;
    a.kind = static_cast<AreaKind>(i % 3);
    a.polygon = geo::Polygon::RegularPolygon(
        geo::GeoPoint{rng.NextDouble(22.5, 27.5), rng.NextDouble(35.0, 41.0)},
        rng.NextDouble(2000.0, 8000.0), 8);
    if (a.kind == AreaKind::kShallow) a.depth_m = 4.0;
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<geo::GeoPoint> QueryPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::GeoPoint> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(geo::GeoPoint{rng.NextDouble(22.5, 27.5),
                                rng.NextDouble(35.0, 41.0)});
  }
  return out;
}

// --- area-count axis ---------------------------------------------------------

void BM_AreasCloseTo(benchmark::State& state) {
  KnowledgeBase kb(1000.0);
  for (AreaInfo& a : RandomAreas(static_cast<int>(state.range(0)), 11)) {
    kb.AddArea(std::move(a));
  }
  const auto points = QueryPoints(1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.AreasCloseTo(points[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AreasCloseTo)->Arg(35)->Arg(140)->Arg(560)->Arg(2240);

// --- cell-size axis ----------------------------------------------------------

void BM_AreasCloseTo_TieredCellDeg(benchmark::State& state) {
  // range(0) is the cell size in millidegrees. The index is queried as
  // KnowledgeBase::AreasCloseTo queries it: a fresh result vector per call.
  const double cell_deg = static_cast<double>(state.range(0)) / 1000.0;
  geo::SpatialIndex index(1000.0,
                          geo::SpatialIndex::Options{.cell_deg = cell_deg});
  for (const AreaInfo& a : RandomAreas(560, 11)) index.Insert(a.id, a.polygon);
  const auto points = QueryPoints(1024, 12);
  geo::SpatialIndex::Cache cache;
  size_t i = 0;
  for (auto _ : state) {
    std::vector<int32_t> out;
    index.AreasCloseTo(points[i++ & 1023], &out, &cache);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AreasCloseTo_TieredCellDeg)->Arg(5)->Arg(10)->Arg(20)->Arg(50)
    ->Arg(100);

// --- PortContaining ----------------------------------------------------------

void BM_PortContaining(benchmark::State& state) {
  sim::WorldParams params;
  sim::World world = sim::BuildWorld(13, params);
  KnowledgeBase kb(params.close_threshold_m);
  for (const AreaInfo& a : world.knowledge.areas()) kb.AddArea(a);
  const auto points = QueryPoints(1024, 14);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.PortContaining(points[i++ & 1023]));
  }
}
BENCHMARK(BM_PortContaining);

}  // namespace
}  // namespace maritime::surveillance
