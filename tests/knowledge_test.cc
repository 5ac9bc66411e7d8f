#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "maritime/knowledge.h"
#include "maritime/me_stream.h"
#include "snapshot/codec.h"

namespace maritime::surveillance {
namespace {

const geo::GeoPoint kCenterA{24.0, 37.0};
const geo::GeoPoint kCenterB{25.5, 38.5};

KnowledgeBase MakeKb() {
  KnowledgeBase kb(1000.0);
  AreaInfo park;
  park.id = 1;
  park.name = "park";
  park.kind = AreaKind::kProtected;
  park.polygon = geo::Polygon::RegularPolygon(kCenterA, 3000.0, 8);
  kb.AddArea(park);

  AreaInfo shoal;
  shoal.id = 2;
  shoal.name = "shoal";
  shoal.kind = AreaKind::kShallow;
  shoal.polygon = geo::Polygon::RegularPolygon(kCenterB, 2000.0, 8);
  shoal.depth_m = 4.0;
  kb.AddArea(shoal);

  AreaInfo port;
  port.id = 1000;
  port.name = "port";
  port.kind = AreaKind::kPort;
  port.polygon =
      geo::Polygon::RegularPolygon(geo::GeoPoint{24.5, 37.5}, 700.0, 10);
  kb.AddArea(port);

  VesselInfo trawler;
  trawler.mmsi = 100;
  trawler.type = VesselType::kFishing;
  trawler.fishing_gear = true;
  trawler.draft_m = 4.0;
  kb.AddVessel(trawler);

  VesselInfo tanker;
  tanker.mmsi = 200;
  tanker.type = VesselType::kTanker;
  tanker.draft_m = 12.0;
  kb.AddVessel(tanker);

  VesselInfo dinghy;
  dinghy.mmsi = 300;
  dinghy.type = VesselType::kPleasure;
  dinghy.draft_m = 1.5;
  kb.AddVessel(dinghy);
  return kb;
}

TEST(KnowledgeTest, FindAreaAndVessel) {
  const KnowledgeBase kb = MakeKb();
  ASSERT_NE(kb.FindArea(1), nullptr);
  EXPECT_EQ(kb.FindArea(1)->name, "park");
  EXPECT_EQ(kb.FindArea(99), nullptr);
  ASSERT_NE(kb.FindVessel(100), nullptr);
  EXPECT_EQ(kb.FindVessel(100)->type, VesselType::kFishing);
  EXPECT_EQ(kb.FindVessel(999), nullptr);
  EXPECT_EQ(kb.vessel_count(), 3u);
}

TEST(KnowledgeTest, ClosePredicate) {
  const KnowledgeBase kb = MakeKb();
  EXPECT_TRUE(kb.Close(kCenterA, 1)) << "inside is close";
  // 500 m outside the 3 km polygon: within the 1000 m threshold.
  EXPECT_TRUE(kb.Close(geo::DestinationPoint(kCenterA, 0.0, 3500.0), 1));
  // 5 km outside: not close.
  EXPECT_FALSE(kb.Close(geo::DestinationPoint(kCenterA, 0.0, 8000.0), 1));
  EXPECT_FALSE(kb.Close(kCenterA, 99));
}

TEST(KnowledgeTest, AreasCloseToFiltersKind) {
  const KnowledgeBase kb = MakeKb();
  const auto all = kb.AreasCloseTo(kCenterA);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], 1);
  EXPECT_TRUE(kb.AreasCloseTo(kCenterA, AreaKind::kShallow).empty());
  const auto shallow = kb.AreasCloseTo(kCenterB, AreaKind::kShallow);
  ASSERT_EQ(shallow.size(), 1u);
  EXPECT_EQ(shallow[0], 2);
}

TEST(KnowledgeTest, FishingPredicate) {
  const KnowledgeBase kb = MakeKb();
  EXPECT_TRUE(kb.IsFishing(100));
  EXPECT_FALSE(kb.IsFishing(200));
  EXPECT_FALSE(kb.IsFishing(12345)) << "unknown vessels are not fishing";
}

TEST(KnowledgeTest, ShallowPredicateUsesDraft) {
  const KnowledgeBase kb = MakeKb();
  // Area 2 is 4 m deep. Tanker draft 12 m: too shallow. Dinghy draft 1.5 m
  // (+1 m clearance = 2.5 m): safe.
  EXPECT_TRUE(kb.IsShallowFor(2, 200));
  EXPECT_FALSE(kb.IsShallowFor(2, 300));
  // Trawler draft 4.0 + 1.0 clearance > 4.0: too shallow.
  EXPECT_TRUE(kb.IsShallowFor(2, 100));
  // A protected area is never "shallow".
  EXPECT_FALSE(kb.IsShallowFor(1, 200));
  // Unknown vessel: conservative 3 m draft + 1 m clearance = 4 m, not < 4.
  EXPECT_FALSE(kb.IsShallowFor(2, 777));
}

TEST(KnowledgeTest, PortContaining) {
  const KnowledgeBase kb = MakeKb();
  const AreaInfo* port = kb.PortContaining(geo::GeoPoint{24.5, 37.5});
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->id, 1000);
  EXPECT_EQ(kb.PortContaining(kCenterA), nullptr)
      << "the protected area is not a port";
  EXPECT_EQ(kb.PortContaining(geo::GeoPoint{20.0, 30.0}), nullptr);
}

TEST(KnowledgeTest, RestrictedKeepsVesselsAndSelectedAreas) {
  const KnowledgeBase kb = MakeKb();
  const KnowledgeBase west = kb.Restricted({1});
  EXPECT_EQ(west.areas().size(), 1u);
  EXPECT_NE(west.FindArea(1), nullptr);
  EXPECT_EQ(west.FindArea(2), nullptr);
  EXPECT_EQ(west.vessel_count(), 3u);
  EXPECT_TRUE(west.IsFishing(100));
}

TEST(KnowledgeTest, KindAndTypeNames) {
  EXPECT_EQ(AreaKindName(AreaKind::kProtected), "protected");
  EXPECT_EQ(AreaKindName(AreaKind::kForbiddenFishing), "forbidden_fishing");
  EXPECT_EQ(AreaKindName(AreaKind::kShallow), "shallow");
  EXPECT_EQ(AreaKindName(AreaKind::kPort), "port");
  EXPECT_EQ(VesselTypeName(VesselType::kFishing), "fishing");
  EXPECT_EQ(VesselTypeName(VesselType::kTanker), "tanker");
}

// --- bands cut by Restricted -------------------------------------------------
// A band shares its parent's spatial index; every answer must still equal
// that of a KB built fresh from the band's areas only.

constexpr double kBandRegionLon0 = 24.0;
constexpr double kBandRegionLat0 = 37.0;
constexpr double kBandRegionDeg = 0.6;

// Areas packed into a small region so that most have neighbours, and most
// neighbours fall into the other band.
std::vector<AreaInfo> PackedAreas(Rng& rng, int count) {
  const AreaKind kinds[] = {AreaKind::kProtected, AreaKind::kForbiddenFishing,
                            AreaKind::kShallow, AreaKind::kPort};
  std::vector<AreaInfo> areas;
  for (int32_t i = 0; i < count; ++i) {
    AreaInfo a;
    a.id = 10 + 3 * i;
    a.name = "area" + std::to_string(a.id);
    a.kind = kinds[rng.NextBelow(4)];
    const geo::GeoPoint center{
        kBandRegionLon0 + rng.NextDouble(0.0, kBandRegionDeg),
        kBandRegionLat0 + rng.NextDouble(0.0, kBandRegionDeg)};
    a.polygon = geo::Polygon::RegularPolygon(
        center, rng.NextDouble(500.0, 6000.0),
        static_cast<int>(rng.NextInt(3, 9)));
    a.depth_m = rng.NextDouble(1.0, 20.0);
    areas.push_back(std::move(a));
  }
  return areas;
}

KnowledgeBase KbOf(const std::vector<AreaInfo>& areas) {
  KnowledgeBase kb(1000.0);
  for (const AreaInfo& a : areas) kb.AddArea(a);
  return kb;
}

// Half the points land within a few km of an area outside the band, the
// rest anywhere over the region.
std::vector<geo::GeoPoint> ProbePoints(Rng& rng,
                                       const std::vector<AreaInfo>& outside,
                                       size_t count) {
  std::vector<geo::GeoPoint> pts;
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0 && !outside.empty()) {
      const AreaInfo& a = outside[rng.NextBelow(outside.size())];
      pts.push_back(geo::DestinationPoint(a.polygon.VertexCentroid(),
                                          rng.NextDouble(0.0, 360.0),
                                          rng.NextDouble(0.0, 8000.0)));
    } else {
      pts.push_back(geo::GeoPoint{
          kBandRegionLon0 + rng.NextDouble(-0.05, kBandRegionDeg + 0.05),
          kBandRegionLat0 + rng.NextDouble(-0.05, kBandRegionDeg + 0.05)});
    }
  }
  return pts;
}

// Every spatial query of `band` equals that of `fresh` at each point, for
// every id in `ids` (which includes ids neither KB holds).
void ExpectSameAnswers(const KnowledgeBase& band, const KnowledgeBase& fresh,
                       const std::vector<int32_t>& ids,
                       const std::vector<geo::GeoPoint>& pts) {
  for (const geo::GeoPoint& p : pts) {
    ASSERT_EQ(band.AreasCloseTo(p), fresh.AreasCloseTo(p)) << p;
    for (const AreaKind kind :
         {AreaKind::kProtected, AreaKind::kForbiddenFishing, AreaKind::kShallow,
          AreaKind::kPort}) {
      ASSERT_EQ(band.AreasCloseTo(p, kind), fresh.AreasCloseTo(p, kind))
          << p;
      ASSERT_EQ(band.AnyAreaCloseTo(p, kind), fresh.AnyAreaCloseTo(p, kind))
          << p;
    }
    const AreaInfo* port = band.PortContaining(p);
    const AreaInfo* want_port = fresh.PortContaining(p);
    ASSERT_EQ(port == nullptr ? -1 : port->id,
              want_port == nullptr ? -1 : want_port->id)
        << p;
    for (const int32_t id : ids) {
      ASSERT_EQ(band.Close(p, id), fresh.Close(p, id)) << p << " id " << id;
      ASSERT_EQ(band.InsideArea(p, id), fresh.InsideArea(p, id))
          << p << " id " << id;
    }
  }
}

TEST(KnowledgeBandTest, BandAnswersEqualAKbBuiltFromItsAreas) {
  Rng rng(0xba9d);
  const std::vector<AreaInfo> areas = PackedAreas(rng, 60);
  KnowledgeBase parent = KbOf(areas);
  VesselInfo trawler;
  trawler.mmsi = 7;
  trawler.type = VesselType::kFishing;
  parent.AddVessel(trawler);

  // An interleaved cut in a scrambled order: every band area has foreign
  // neighbours, and the order must survive.
  std::vector<AreaInfo> in_band;
  std::vector<AreaInfo> outside;
  for (size_t i = 0; i < areas.size(); ++i) {
    (i % 3 == 1 ? in_band : outside).push_back(areas[i]);
  }
  std::reverse(in_band.begin(), in_band.end());
  std::vector<int32_t> band_ids;
  for (const AreaInfo& a : in_band) band_ids.push_back(a.id);
  std::vector<int32_t> all_ids = {-1, 0, 1, 1000};  // Held by neither KB.
  for (const AreaInfo& a : areas) all_ids.push_back(a.id);

  const KnowledgeBase band = parent.Restricted(band_ids);
  const KnowledgeBase fresh = KbOf(in_band);
  ASSERT_EQ(band.areas().size(), in_band.size());
  for (size_t i = 0; i < in_band.size(); ++i) {
    EXPECT_EQ(band.areas()[i].id, band_ids[i]);
  }
  EXPECT_EQ(band.vessel_count(), 1u);
  EXPECT_TRUE(band.IsFishing(7));

  const std::vector<geo::GeoPoint> pts = ProbePoints(rng, outside, 2000);
  ExpectSameAnswers(band, fresh, all_ids, pts);
  // The band that holds every area answers as the parent does.
  ExpectSameAnswers(parent.Restricted(all_ids), parent, all_ids,
                    ProbePoints(rng, areas, 200));
}

TEST(KnowledgeBandTest, AddAreaAfterRestrictedLeavesOtherKbsUnchanged) {
  Rng rng(0x5eed);
  const std::vector<AreaInfo> areas = PackedAreas(rng, 30);
  KnowledgeBase parent = KbOf(areas);
  std::vector<AreaInfo> in_band;
  std::vector<int32_t> band_ids;
  for (size_t i = 0; i < areas.size(); i += 2) {
    in_band.push_back(areas[i]);
    band_ids.push_back(areas[i].id);
  }
  KnowledgeBase band = parent.Restricted(band_ids);
  std::vector<int32_t> all_ids;
  for (const AreaInfo& a : areas) all_ids.push_back(a.id);
  // A band of every area filters nothing, so only an unshared parent index
  // keeps the new area out of its answers.
  const KnowledgeBase whole = parent.Restricted(all_ids);
  const std::vector<geo::GeoPoint> pts = ProbePoints(rng, areas, 500);

  // A large new area over the whole region, added to the parent only.
  AreaInfo blanket;
  blanket.id = 5000;
  blanket.kind = AreaKind::kProtected;
  blanket.polygon = geo::Polygon::RegularPolygon(
      geo::GeoPoint{kBandRegionLon0 + 0.3, kBandRegionLat0 + 0.3}, 40000.0, 6);
  parent.AddArea(blanket);
  all_ids.push_back(blanket.id);
  ExpectSameAnswers(band, KbOf(in_band), all_ids, pts);
  ExpectSameAnswers(whole, KbOf(areas), all_ids, pts);
  std::vector<AreaInfo> grown = areas;
  grown.push_back(blanket);
  ExpectSameAnswers(parent, KbOf(grown), all_ids, pts);

  // A band that grows answers for its own areas only, even when the new
  // area reuses the id of an area in the other band.
  AreaInfo reused = blanket;
  reused.id = areas[1].id;
  reused.kind = AreaKind::kShallow;
  band.AddArea(reused);
  in_band.push_back(reused);
  ExpectSameAnswers(band, KbOf(in_band), all_ids, pts);
  ExpectSameAnswers(parent, KbOf(grown), all_ids, pts);
}

using Ids = std::vector<int32_t>;

TEST(SpatialFactTableTest, LatestGroupInForce) {
  SpatialFactTable t;
  t.AddFactGroup(100, 10, Ids{1, 2});
  t.AddFactGroup(100, 50, Ids{2});
  EXPECT_TRUE(t.IsCloseAt(100, 1, 10));
  EXPECT_TRUE(t.IsCloseAt(100, 1, 49)) << "group at 10 in force until 50";
  EXPECT_FALSE(t.IsCloseAt(100, 1, 50)) << "superseded by the group at 50";
  EXPECT_TRUE(t.IsCloseAt(100, 2, 50));
  EXPECT_FALSE(t.IsCloseAt(100, 1, 5)) << "no facts before the first group";
  EXPECT_FALSE(t.IsCloseAt(999, 1, 50));
  const auto at60 = t.AreasCloseAt(100, 60);
  EXPECT_EQ(Ids(at60.begin(), at60.end()), Ids{2});
  EXPECT_EQ(t.fact_count(), 3u);
}

TEST(SpatialFactTableTest, DelayedGroupInsertedInOrder) {
  SpatialFactTable t;
  t.AddFactGroup(100, 50, Ids{2});
  t.AddFactGroup(100, 10, Ids{1});  // arrives late
  EXPECT_TRUE(t.IsCloseAt(100, 1, 20));
  EXPECT_TRUE(t.IsCloseAt(100, 2, 60));
}

TEST(SpatialFactTableTest, PurgeKeepsLatestBoundaryGroup) {
  SpatialFactTable t;
  t.AddFactGroup(100, 5, Ids{3});
  t.AddFactGroup(100, 10, Ids{1});
  t.AddFactGroup(100, 50, Ids{2});
  // The group at t=5 is shadowed by the boundary group at t=10 for every
  // query after the cutoff, so only it is dropped; answers at t > 10 are
  // unchanged by the purge (last-known-state inertia).
  t.PurgeBefore(10);
  EXPECT_EQ(t.fact_count(), 2u);
  EXPECT_FALSE(t.IsCloseAt(100, 3, 20));
  EXPECT_TRUE(t.IsCloseAt(100, 1, 20));
  EXPECT_TRUE(t.IsCloseAt(100, 2, 60));
  // Purging past every group retains the single latest one: the vessel's
  // last known spatial state stays in force.
  t.PurgeBefore(100);
  EXPECT_EQ(t.fact_count(), 1u);
  const auto last = t.AreasCloseAt(100, 200);
  EXPECT_EQ(Ids(last.begin(), last.end()), Ids{2});
}

/// Brute-force model of a SpatialFactTable: per vessel, the retained groups
/// in time order (equal times in arrival order), each with its sorted ids.
class FactTableModel {
 public:
  struct Group {
    Timestamp t;
    Ids areas;
  };

  void Add(stream::Mmsi mmsi, Timestamp t, Ids areas) {
    std::sort(areas.begin(), areas.end());
    auto& groups = vessels_[mmsi];
    auto pos = groups.begin();
    while (pos != groups.end() && pos->t <= t) ++pos;
    groups.insert(pos, Group{t, std::move(areas)});
  }

  void Purge(Timestamp cutoff) {
    for (auto& [mmsi, groups] : vessels_) {
      // Keep the latest group at or before the cutoff and every later one.
      size_t at_or_before = 0;
      while (at_or_before < groups.size() && groups[at_or_before].t <= cutoff) {
        ++at_or_before;
      }
      if (at_or_before > 1) {
        groups.erase(groups.begin(), groups.begin() + (at_or_before - 1));
      }
    }
  }

  /// Index of the group in force at t, or -1.
  int InForce(stream::Mmsi mmsi, Timestamp t) const {
    const auto it = vessels_.find(mmsi);
    int found = -1;
    if (it == vessels_.end()) return found;
    for (size_t i = 0; i < it->second.size(); ++i) {
      if (it->second[i].t <= t) found = static_cast<int>(i);
    }
    return found;
  }

  Ids AreasAt(stream::Mmsi mmsi, Timestamp t) const {
    const int g = InForce(mmsi, t);
    return g < 0 ? Ids{} : vessels_.at(mmsi)[static_cast<size_t>(g)].areas;
  }

  bool CloseAt(stream::Mmsi mmsi, int32_t area, Timestamp t) const {
    const Ids ids = AreasAt(mmsi, t);
    return std::find(ids.begin(), ids.end(), area) != ids.end();
  }

  /// ConstantCloseOver's contract: every group in force at some time in
  /// [from, upto] agrees on the area — with the implicit "never close"
  /// before the first group among them — and there are at most 8.
  bool ConstantClose(stream::Mmsi mmsi, int32_t area, Timestamp from,
                     Timestamp upto, bool* close) const {
    std::set<bool> answers;
    if (InForce(mmsi, from) < 0) answers.insert(false);
    int scanned = 0;
    const auto it = vessels_.find(mmsi);
    if (it != vessels_.end()) {
      const int first = std::max(InForce(mmsi, from), 0);
      for (size_t i = static_cast<size_t>(first); i < it->second.size(); ++i) {
        const Group& g = it->second[i];
        if (g.t > upto) break;
        ++scanned;
        answers.insert(std::find(g.areas.begin(), g.areas.end(), area) !=
                       g.areas.end());
      }
    }
    *close = *answers.begin();
    return answers.size() == 1 && scanned <= 8;
  }

  Ids Covering(stream::Mmsi mmsi, Timestamp from) const {
    std::set<int32_t> out;
    const auto it = vessels_.find(mmsi);
    if (it == vessels_.end()) return {};
    for (size_t i = static_cast<size_t>(std::max(InForce(mmsi, from), 0));
         i < it->second.size(); ++i) {
      out.insert(it->second[i].areas.begin(), it->second[i].areas.end());
    }
    return Ids(out.begin(), out.end());
  }

  /// (MMSI, groups naming the area), ascending MMSI.
  std::vector<std::pair<stream::Mmsi, uint32_t>> Near(int32_t area) const {
    std::vector<std::pair<stream::Mmsi, uint32_t>> out;
    for (const auto& [mmsi, groups] : vessels_) {
      uint32_t refs = 0;
      for (const Group& g : groups) {
        refs += static_cast<uint32_t>(
            std::count(g.areas.begin(), g.areas.end(), area));
      }
      if (refs > 0) out.emplace_back(mmsi, refs);
    }
    return out;
  }

  size_t FactCount() const {
    size_t n = 0;
    for (const auto& [mmsi, groups] : vessels_) {
      for (const Group& g : groups) n += g.areas.size();
    }
    return n;
  }

 private:
  std::map<stream::Mmsi, std::vector<Group>> vessels_;
};

void ExpectMatchesModel(const SpatialFactTable& t, const FactTableModel& m,
                        Rng& rng, Timestamp now) {
  constexpr int32_t kAreas = 8;
  for (int32_t area = 0; area < kAreas; ++area) {
    std::vector<std::pair<stream::Mmsi, uint32_t>> near;
    for (const SpatialFactTable::NearVessel& n : t.VesselsNear(area)) {
      EXPECT_EQ(n.area, area);
      near.emplace_back(n.mmsi, n.refs);
    }
    EXPECT_EQ(near, m.Near(area)) << "area " << area;
  }
  EXPECT_EQ(t.fact_count(), m.FactCount());
  for (stream::Mmsi mmsi = 1; mmsi <= 7; ++mmsi) {
    for (int probe = 0; probe < 6; ++probe) {
      const Timestamp at = rng.NextInt(0, now + 100);
      const int32_t area = static_cast<int32_t>(rng.NextBelow(kAreas));
      const auto ids = t.AreasCloseAt(mmsi, at);
      EXPECT_EQ(Ids(ids.begin(), ids.end()), m.AreasAt(mmsi, at));
      EXPECT_EQ(t.IsCloseAt(mmsi, area, at), m.CloseAt(mmsi, area, at));
      const Timestamp upto = at + rng.NextInt(0, 400);
      bool close = false;
      bool model_close = false;
      const bool constant = t.ConstantCloseOver(mmsi, area, at, upto, &close);
      EXPECT_EQ(constant, m.ConstantClose(mmsi, area, at, upto, &model_close))
          << "vessel " << mmsi << " area " << area << " (" << at << ", "
          << upto << "]";
      if (constant) {
        EXPECT_EQ(close, model_close);
      }
      Ids covering;
      t.AreasCoveringFrom(mmsi, at, &covering);
      EXPECT_EQ(covering, m.Covering(mmsi, at));
    }
  }
}

TEST(SpatialFactTableTest, RandomOpsMatchBruteForceModel) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(4200 + trial);
    SpatialFactTable t;
    FactTableModel m;
    Timestamp now = 0;
    Timestamp cutoff = 0;
    for (int step = 0; step < 300; ++step) {
      const uint64_t op = rng.NextBelow(20);
      if (op < 14) {
        // A fact group, delayed behind the stream head one time in four
        // (sometimes behind the last purge cutoff too), naming up to three
        // distinct areas in any order.
        now += rng.NextInt(0, 15);
        const Timestamp at =
            rng.NextBool(0.25) ? now - rng.NextInt(0, 120) : now;
        Ids areas;
        const int count = static_cast<int>(rng.NextInt(0, 3));
        while (static_cast<int>(areas.size()) < count) {
          const auto area = static_cast<int32_t>(rng.NextBelow(8));
          if (std::find(areas.begin(), areas.end(), area) == areas.end()) {
            areas.push_back(area);
          }
        }
        const auto mmsi = static_cast<stream::Mmsi>(rng.NextInt(1, 6));
        t.AddFactGroup(mmsi, at, areas);
        m.Add(mmsi, at, areas);
      } else if (op < 18) {
        // Purge, mostly advancing; now and then a cutoff behind the last.
        cutoff = rng.NextBool(0.8) ? std::max(cutoff, now - rng.NextInt(0, 90))
                                   : cutoff - rng.NextInt(0, 60);
        t.PurgeBefore(cutoff);
        m.Purge(cutoff);
      } else {
        // Save, restore into a fresh table, and carry on with the copy: its
        // bytes must round-trip and its derived state (area index, purge
        // queue) must behave as the original's.
        snapshot::Writer w;
        t.SaveTo(w);
        SpatialFactTable restored;
        snapshot::Reader r(w.bytes());
        ASSERT_TRUE(restored.RestoreFrom(r).ok());
        snapshot::Writer again;
        restored.SaveTo(again);
        ASSERT_EQ(again.bytes(), w.bytes());
        t = std::move(restored);
      }
      ExpectMatchesModel(t, m, rng, now);
      if (HasFailure()) {
        ADD_FAILURE() << "trial " << trial << " step " << step;
        return;
      }
    }
  }
}

}  // namespace
}  // namespace maritime::surveillance
