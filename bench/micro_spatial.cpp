// Microbenchmark (ablation): the spatial engines behind the `close`
// predicate. DESIGN.md calls the spatial index our equivalent of RTEC's
// "declarations" facility — it restricts spatial reasoning to candidate
// areas near a point. Axes:
//   - engine: brute (all-areas scan, arg 0) / tiered (tri-state cell labels
//     + edge buckets, arg 1);
//   - area count: 35 (the paper's world) up to 2240;
//   - tiered cell size, for the cell-granularity trade-off;
// plus PortContaining across engines. All engines return identical results
// (asserted in tests/spatial_index_test.cc); only speed differs.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "maritime/knowledge.h"
#include "sim/world.h"

namespace maritime::surveillance {
namespace {

SpatialEngine EngineOf(int64_t axis) {
  return axis == 0 ? SpatialEngine::kBrute : SpatialEngine::kTiered;
}

KnowledgeBase MakeKbWithAreas(int areas, uint64_t seed, SpatialEngine engine,
                              double tiered_cell_deg = 0.02) {
  SpatialOptions spatial;
  spatial.engine = engine;
  spatial.tiered_cell_deg = tiered_cell_deg;
  KnowledgeBase kb(1000.0, spatial);
  Rng rng(seed);
  for (int i = 0; i < areas; ++i) {
    AreaInfo a;
    a.id = i + 1;
    a.kind = static_cast<AreaKind>(i % 3);
    a.polygon = geo::Polygon::RegularPolygon(
        geo::GeoPoint{rng.NextDouble(22.5, 27.5), rng.NextDouble(35.0, 41.0)},
        rng.NextDouble(2000.0, 8000.0), 8);
    if (a.kind == AreaKind::kShallow) a.depth_m = 4.0;
    kb.AddArea(a);
  }
  return kb;
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

// --- engine x area-count ----------------------------------------------------

void BM_AreasCloseTo(benchmark::State& state) {
  const KnowledgeBase kb = MakeKbWithAreas(static_cast<int>(state.range(1)),
                                           11, EngineOf(state.range(0)));
  const auto points = QueryPoints(1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.AreasCloseTo(points[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(SpatialEngineName(kb.spatial_options().engine)));
}
BENCHMARK(BM_AreasCloseTo)
    ->ArgsProduct({{0, 1}, {35, 140, 560, 2240}});

// --- tiered cell-size axis --------------------------------------------------

void BM_AreasCloseTo_TieredCellDeg(benchmark::State& state) {
  // range(0) is the cell size in millidegrees.
  const double cell_deg = static_cast<double>(state.range(0)) / 1000.0;
  const KnowledgeBase kb =
      MakeKbWithAreas(560, 11, SpatialEngine::kTiered, cell_deg);
  const auto points = QueryPoints(1024, 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.AreasCloseTo(points[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AreasCloseTo_TieredCellDeg)->Arg(5)->Arg(10)->Arg(20)->Arg(50)
    ->Arg(100);

// --- PortContaining across engines ------------------------------------------

void BM_PortContaining(benchmark::State& state) {
  sim::WorldParams params;
  sim::World world = sim::BuildWorld(13, params);
  SpatialOptions spatial;
  spatial.engine = EngineOf(state.range(0));
  KnowledgeBase kb(params.close_threshold_m, spatial);
  for (const AreaInfo& a : world.knowledge.areas()) kb.AddArea(a);
  const auto points = QueryPoints(1024, 14);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.PortContaining(points[i++ & 1023]));
  }
  state.SetLabel(std::string(SpatialEngineName(kb.spatial_options().engine)));
}
BENCHMARK(BM_PortContaining)->Arg(0)->Arg(1);

}  // namespace
}  // namespace maritime::surveillance
