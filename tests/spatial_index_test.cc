#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/polygon.h"
#include "maritime/knowledge.h"

namespace maritime::geo {
namespace {

using maritime::Rng;
using surveillance::AreaInfo;
using surveillance::AreaKind;
using surveillance::KnowledgeBase;

// ---------------------------------------------------------------------------
// Brute-force oracles (definitionally what the index must reproduce).
// ---------------------------------------------------------------------------

struct NamedPoly {
  int32_t id;
  Polygon poly;
};

bool BruteClose(const NamedPoly& np, const GeoPoint& p, double threshold_m) {
  return np.poly.DistanceMeters(p) < threshold_m;
}

std::vector<int32_t> BruteCloseSet(const std::vector<NamedPoly>& polys,
                                   const GeoPoint& p, double threshold_m) {
  std::vector<int32_t> out;
  for (const NamedPoly& np : polys) {
    if (BruteClose(np, p, threshold_m)) out.push_back(np.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int32_t> BruteContainSet(const std::vector<NamedPoly>& polys,
                                     const GeoPoint& p) {
  std::vector<int32_t> out;
  for (const NamedPoly& np : polys) {
    if (np.poly.Contains(p)) out.push_back(np.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Random polygon: mostly proper polygons (possibly jittered), sometimes the
// degenerate shapes (empty / single vertex / two-vertex "line").
Polygon RandomPolygon(Rng& rng, const GeoPoint& center) {
  const int64_t kind = rng.NextInt(0, 12);
  if (kind == 0) return Polygon();
  if (kind == 1) return Polygon(std::vector<GeoPoint>{center});
  if (kind == 2) {
    return Polygon(std::vector<GeoPoint>{
        center, DestinationPoint(center, rng.NextDouble(0.0, 360.0),
                                 rng.NextDouble(100.0, 4000.0))});
  }
  const int sides = static_cast<int>(rng.NextInt(3, 9));
  const double radius = rng.NextDouble(200.0, 9000.0);
  Polygon base = Polygon::RegularPolygon(center, radius, sides);
  if (rng.NextBool(0.5)) return base;
  // Jitter the vertices so edges are irregular (still simple enough for the
  // even-odd test to behave identically in both implementations).
  std::vector<GeoPoint> verts = base.vertices();
  for (GeoPoint& v : verts) {
    v.lon += rng.NextDouble(-1e-3, 1e-3);
    v.lat += rng.NextDouble(-1e-3, 1e-3);
  }
  return Polygon(std::move(verts));
}

// Query points biased toward the interesting band: most within a few
// thresholds of some polygon center, the rest uniform over the region.
GeoPoint RandomQuery(Rng& rng, const std::vector<NamedPoly>& polys,
                     const BoundingBox& region, double threshold_m) {
  if (!polys.empty() && rng.NextBool(0.7)) {
    const NamedPoly& np =
        polys[static_cast<size_t>(rng.NextBelow(polys.size()))];
    if (!np.poly.empty()) {
      const GeoPoint c = np.poly.VertexCentroid();
      return DestinationPoint(c, rng.NextDouble(0.0, 360.0),
                              rng.NextDouble(0.0, 12000.0 + 4.0 * threshold_m));
    }
  }
  return GeoPoint{rng.NextDouble(region.min_lon, region.max_lon),
                  rng.NextDouble(region.min_lat, region.max_lat)};
}

void ExpectMatchesBrute(const SpatialIndex& index,
                        const std::vector<NamedPoly>& polys,
                        const GeoPoint& p, double threshold_m,
                        SpatialIndex::Cache* cache) {
  std::vector<int32_t> got;
  index.AreasCloseTo(p, &got, cache);
  const std::vector<int32_t> want = BruteCloseSet(polys, p, threshold_m);
  ASSERT_EQ(got, want) << "AreasCloseTo mismatch at " << p;
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(index.AnyClose(p, cache), !want.empty());

  std::vector<int32_t> inside;
  index.AreasContaining(p, &inside, cache);
  ASSERT_EQ(inside, BruteContainSet(polys, p))
      << "AreasContaining mismatch at " << p;

  for (const NamedPoly& np : polys) {
    ASSERT_EQ(index.Close(p, np.id, cache), BruteClose(np, p, threshold_m))
        << "Close mismatch for id " << np.id << " at " << p;
    ASSERT_EQ(index.Contains(p, np.id, cache), np.poly.Contains(p))
        << "Contains mismatch for id " << np.id << " at " << p;
  }
}

// ---------------------------------------------------------------------------
// Differential property tests: tiered index vs brute force.
// ---------------------------------------------------------------------------

TEST(SpatialIndexDifferentialTest, RandomPolygonsMatchBruteForce) {
  const BoundingBox region{22.5, 35.0, 27.5, 41.0};
  for (const double threshold_m : {250.0, 1000.0, 5000.0}) {
    Rng rng(0x5eed0 + static_cast<uint64_t>(threshold_m));
    std::vector<NamedPoly> polys;
    SpatialIndex index(threshold_m);
    for (int32_t id = 0; id < 48; ++id) {
      const GeoPoint center{rng.NextDouble(region.min_lon, region.max_lon),
                            rng.NextDouble(region.min_lat, region.max_lat)};
      NamedPoly np{id * 3 + 1, RandomPolygon(rng, center)};
      index.Insert(np.id, np.poly);
      polys.push_back(std::move(np));
    }
    SpatialIndex::Cache cache;
    for (int i = 0; i < 600; ++i) {
      ExpectMatchesBrute(index, polys,
                         RandomQuery(rng, polys, region, threshold_m),
                         threshold_m, &cache);
    }
  }
}

TEST(SpatialIndexDifferentialTest, HighLatitudeMatchesBruteForce) {
  // Longitude degrees at 84.5N are ~10x shorter than at the equator; a
  // latitude-derived lon margin under-covers by that factor, which is the
  // historical KnowledgeBase::AddArea bug this index family fixes.
  const double threshold_m = 1000.0;
  const BoundingBox region{10.0, 84.0, 14.0, 85.0};
  Rng rng(0xa1a5);
  std::vector<NamedPoly> polys;
  SpatialIndex index(threshold_m);
  for (int32_t id = 0; id < 24; ++id) {
    const GeoPoint center{rng.NextDouble(region.min_lon, region.max_lon),
                          rng.NextDouble(region.min_lat, region.max_lat)};
    NamedPoly np{id, RandomPolygon(rng, center)};
    index.Insert(np.id, np.poly);
    polys.push_back(std::move(np));
  }
  for (int i = 0; i < 500; ++i) {
    ExpectMatchesBrute(index, polys,
                       RandomQuery(rng, polys, region, threshold_m),
                       threshold_m, nullptr);
  }
}

TEST(SpatialIndexDifferentialTest, AntimeridianWrapMatchesBruteForce) {
  // The Haversine distance wraps longitude, so a polygon hugging +180 must
  // be found by queries just west of -180 (and vice versa). The index
  // registers +-360-degree images of each neighborhood; the exactness
  // contract is agreement with Polygon::DistanceMeters, whatever it does.
  const double threshold_m = 2000.0;
  Rng rng(0x180);
  std::vector<NamedPoly> polys;
  SpatialIndex index(threshold_m);
  for (int32_t id = 0; id < 16; ++id) {
    const double lon = rng.NextBool(0.5) ? rng.NextDouble(179.8, 180.0)
                                         : rng.NextDouble(-180.0, -179.8);
    const GeoPoint center{lon, rng.NextDouble(-60.0, 60.0)};
    NamedPoly np{id, rng.NextBool(0.3)
                         ? Polygon(std::vector<GeoPoint>{center})
                         : Polygon::RegularPolygon(
                               center, rng.NextDouble(200.0, 3000.0),
                               static_cast<int>(rng.NextInt(3, 8)))};
    index.Insert(np.id, np.poly);
    polys.push_back(std::move(np));
  }
  for (int i = 0; i < 400; ++i) {
    const double lon = rng.NextBool(0.5) ? rng.NextDouble(179.7, 180.0)
                                         : rng.NextDouble(-180.0, -179.7);
    const GeoPoint p{lon, rng.NextDouble(-61.0, 61.0)};
    ExpectMatchesBrute(index, polys, p, threshold_m, nullptr);
  }
  // A single-vertex polygon on one side must be reachable from the other.
  SpatialIndex wrap(threshold_m);
  const GeoPoint east{179.9995, 10.0};
  wrap.Insert(99, Polygon(std::vector<GeoPoint>{east}));
  const GeoPoint west{-179.9995, 10.0};
  ASSERT_LT(HaversineMeters(east, west), threshold_m);
  EXPECT_TRUE(wrap.Close(west, 99));
  EXPECT_TRUE(wrap.AnyClose(west));
}

TEST(SpatialIndexDifferentialTest, OutOfDomainInputsFallBackToBruteForce) {
  const double threshold_m = 1000.0;
  SpatialIndex index(threshold_m);
  std::vector<NamedPoly> polys;
  // A normal polygon, plus polygons the cell enumeration cannot represent:
  // out-of-domain vertices and a non-finite coordinate.
  polys.push_back({1, Polygon::RegularPolygon(GeoPoint{24.0, 37.0}, 2000, 6)});
  polys.push_back({2, Polygon(std::vector<GeoPoint>{GeoPoint{1e9, 37.0},
                                                    GeoPoint{1e9, 37.1},
                                                    GeoPoint{1e9 + 1, 37.0}})});
  polys.push_back({3, Polygon(std::vector<GeoPoint>{
                          GeoPoint{24.0, std::nan("")}, GeoPoint{24.1, 37.0},
                          GeoPoint{24.2, 37.2}})});
  for (const NamedPoly& np : polys) index.Insert(np.id, np.poly);
  EXPECT_GE(index.overflow_count(), 2u);

  Rng rng(0xbad);
  for (int i = 0; i < 200; ++i) {
    // In-domain and out-of-domain queries both agree with brute force.
    const GeoPoint in{rng.NextDouble(23.5, 24.5), rng.NextDouble(36.5, 37.5)};
    ExpectMatchesBrute(index, polys, in, threshold_m, nullptr);
    const GeoPoint out{rng.NextDouble(-720.0, 720.0),
                       rng.NextDouble(-200.0, 200.0)};
    ExpectMatchesBrute(index, polys, out, threshold_m, nullptr);
  }
}

TEST(SpatialIndexTest, CacheSurvivesReuseAcrossInstancesAndInserts) {
  SpatialIndex::Cache cache;
  const GeoPoint p{24.0, 37.0};

  SpatialIndex a(1000.0);
  a.Insert(1, Polygon::RegularPolygon(p, 2000.0, 8));
  EXPECT_TRUE(a.Close(p, 1, &cache));
  EXPECT_TRUE(a.Close(p, 1, &cache));  // cache hit path

  // Mutating the index must invalidate the cached cell.
  a.Insert(2, Polygon::RegularPolygon(GeoPoint{24.001, 37.001}, 500.0, 6));
  std::vector<int32_t> got;
  a.AreasCloseTo(p, &got, &cache);
  EXPECT_EQ(got, (std::vector<int32_t>{1, 2}));

  // Reusing the same cache against a different instance must not leak the
  // old cell: `b` has nothing near p.
  SpatialIndex b(1000.0);
  b.Insert(7, Polygon::RegularPolygon(GeoPoint{30.0, 40.0}, 2000.0, 8));
  EXPECT_FALSE(b.AnyClose(p, &cache));
  b.AreasCloseTo(p, &got, &cache);
  EXPECT_TRUE(got.empty());
}

TEST(SpatialIndexTest, DegenerateShapesMatchBruteSemantics) {
  SpatialIndex index(1000.0);
  index.Insert(1, Polygon());  // empty: infinite distance, never close
  const GeoPoint v{24.0, 37.0};
  index.Insert(2, Polygon(std::vector<GeoPoint>{v}));  // point
  index.Insert(3, Polygon(std::vector<GeoPoint>{
                      v, DestinationPoint(v, 90.0, 5000.0)}));  // segment

  EXPECT_FALSE(index.Close(v, 1));
  EXPECT_TRUE(index.Close(v, 2));
  EXPECT_TRUE(index.Close(DestinationPoint(v, 0.0, 999.0), 2));
  EXPECT_FALSE(index.Close(DestinationPoint(v, 0.0, 1001.0), 2));
  // Near the middle of the segment but 900 m north of it.
  const GeoPoint mid = DestinationPoint(
      DestinationPoint(v, 90.0, 2500.0), 0.0, 900.0);
  EXPECT_TRUE(index.Close(mid, 3));
  EXPECT_FALSE(index.Contains(mid, 3));  // 2-vertex polygon contains nothing
  EXPECT_FALSE(index.Close(v, 99));      // unknown id
}

// ---------------------------------------------------------------------------
// KnowledgeBase against a brute oracle: a scan over every area of the KB
// answers each spatial predicate, in the same deterministic order.
// ---------------------------------------------------------------------------

KnowledgeBase MakeKb(double threshold_m, const std::vector<AreaInfo>& areas) {
  KnowledgeBase kb(threshold_m);
  for (const AreaInfo& a : areas) kb.AddArea(a);
  return kb;
}

bool OracleClose(const AreaInfo& area, const GeoPoint& p,
                 const KnowledgeBase& kb) {
  return area.polygon.DistanceMeters(p) < kb.close_threshold_m();
}

std::vector<int32_t> OracleAreasCloseTo(const KnowledgeBase& kb,
                                        const GeoPoint& p) {
  std::vector<int32_t> out;
  for (const AreaInfo& area : kb.areas()) {
    if (OracleClose(area, p, kb)) out.push_back(area.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int32_t> OracleAreasCloseTo(const KnowledgeBase& kb,
                                        const GeoPoint& p, AreaKind kind) {
  std::vector<int32_t> out;
  for (const AreaInfo& area : kb.areas()) {
    if (area.kind == kind && OracleClose(area, p, kb)) out.push_back(area.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The lowest-id port whose polygon contains `p`.
const AreaInfo* OraclePortContaining(const KnowledgeBase& kb,
                                     const GeoPoint& p) {
  const AreaInfo* best = nullptr;
  for (const AreaInfo& area : kb.areas()) {
    if (area.kind == AreaKind::kPort && area.polygon.Contains(p) &&
        (best == nullptr || area.id < best->id)) {
      best = &area;
    }
  }
  return best;
}

std::vector<AreaInfo> RandomAreas(Rng& rng, const BoundingBox& region,
                                  int count) {
  std::vector<AreaInfo> areas;
  const AreaKind kinds[] = {AreaKind::kProtected, AreaKind::kForbiddenFishing,
                            AreaKind::kShallow, AreaKind::kPort};
  for (int32_t id = 0; id < count; ++id) {
    AreaInfo a;
    a.id = id + 1;
    a.kind = kinds[rng.NextBelow(4)];
    const GeoPoint center{rng.NextDouble(region.min_lon, region.max_lon),
                          rng.NextDouble(region.min_lat, region.max_lat)};
    a.polygon = RandomPolygon(rng, center);
    areas.push_back(std::move(a));
  }
  return areas;
}

TEST(KnowledgeBaseEngineTest, EnginesAgreeAndOutputsAreSorted) {
  const double threshold_m = 1000.0;
  const BoundingBox region{22.5, 35.0, 27.5, 41.0};
  Rng rng(0x6b1);
  const std::vector<AreaInfo> areas = RandomAreas(rng, region, 60);
  const KnowledgeBase kb = MakeKb(threshold_m, areas);

  std::vector<NamedPoly> polys;
  for (const AreaInfo& a : areas) polys.push_back({a.id, a.polygon});
  for (int i = 0; i < 500; ++i) {
    const GeoPoint p = RandomQuery(rng, polys, region, threshold_m);
    const std::vector<int32_t> got = kb.AreasCloseTo(p);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    ASSERT_EQ(got, OracleAreasCloseTo(kb, p));
    for (const AreaKind kind :
         {AreaKind::kPort, AreaKind::kProtected, AreaKind::kShallow}) {
      const std::vector<int32_t> want_kind = OracleAreasCloseTo(kb, p, kind);
      ASSERT_EQ(kb.AreasCloseTo(p, kind), want_kind);
      ASSERT_EQ(kb.AnyAreaCloseTo(p, kind), !want_kind.empty());
    }
    const AreaInfo* want_port = OraclePortContaining(kb, p);
    const AreaInfo* port = kb.PortContaining(p);
    ASSERT_EQ(port == nullptr, want_port == nullptr);
    if (want_port != nullptr) {
      ASSERT_EQ(port->id, want_port->id);
    }
    for (const AreaInfo& a : areas) {
      ASSERT_EQ(kb.Close(p, a.id), OracleClose(a, p, kb));
      ASSERT_EQ(kb.InsideArea(p, a.id), a.polygon.Contains(p));
    }
    if (i % 10 != 0) continue;
    // `close` is strict: with the threshold set to exactly this point's
    // distance to its nearest area (outside it), the area is not close; one
    // ulp wider, it is.
    const AreaInfo* nearest = nullptr;
    double d_min = std::numeric_limits<double>::infinity();
    for (const AreaInfo& a : areas) {
      const double d = a.polygon.DistanceMeters(p);
      if (d > 0.0 && d < d_min) {
        d_min = d;
        nearest = &a;
      }
    }
    if (nearest == nullptr) continue;
    const KnowledgeBase at = MakeKb(d_min, {*nearest});
    ASSERT_EQ(at.Close(p, nearest->id), OracleClose(*nearest, p, at));
    ASSERT_EQ(at.AreasCloseTo(p), OracleAreasCloseTo(at, p));
    const KnowledgeBase past =
        MakeKb(std::nextafter(d_min, d_min * 2.0), {*nearest});
    ASSERT_EQ(past.Close(p, nearest->id), OracleClose(*nearest, p, past));
    ASSERT_EQ(past.AreasCloseTo(p), OracleAreasCloseTo(past, p));
  }
}

TEST(KnowledgeBaseEngineTest, TieredMatchesBruteAtHighLatitude) {
  // At 84.5N the close threshold of 1000 m spans ~0.098 degrees of
  // longitude, far more than a fixed mid-latitude margin of ~0.028 degrees;
  // an index whose margin ignored latitude would prune genuinely-close areas
  // west/east of the polygon.
  const double threshold_m = 1000.0;
  const std::vector<NamedPoly> polys = {
      {42, Polygon::RegularPolygon(GeoPoint{12.0, 84.5}, 500.0, 8)}};

  // Fine cells (0.01 deg) so the margin itself, not cell quantization,
  // decides which cells know about the area.
  SpatialIndex index(threshold_m, SpatialIndex::Options{.cell_deg = 0.01});
  index.Insert(polys[0].id, polys[0].poly);

  // Walk points due west of the polygon edge out to beyond the threshold.
  std::vector<int32_t> got;
  for (double d = 100.0; d <= 1600.0; d += 100.0) {
    const GeoPoint p =
        DestinationPoint(GeoPoint{12.0, 84.5}, 270.0, 500.0 + d);
    index.AreasCloseTo(p, &got);
    ASSERT_EQ(got, BruteCloseSet(polys, p, threshold_m)) << "at d=" << d;
  }
  // Sanity: the near-threshold point is genuinely close.
  const GeoPoint near =
      DestinationPoint(GeoPoint{12.0, 84.5}, 270.0, 500.0 + 900.0);
  index.AreasCloseTo(near, &got);
  EXPECT_EQ(got, (std::vector<int32_t>{42}));
}

}  // namespace
}  // namespace maritime::geo
