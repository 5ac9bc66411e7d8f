// Randomized property tests across module boundaries: these catch the
// interactions unit tests miss. All generators are seeded per-trial, so any
// failure reproduces deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "maritime/recognizer.h"
#include "sim/scenarios.h"
#include "snapshot/codec.h"
#include "tracker/mobility_tracker.h"
#include "tracker/reconstruct.h"

namespace maritime {
namespace {

using surveillance::AreaInfo;
using surveillance::AreaKind;
using surveillance::KnowledgeBase;
using surveillance::RecognizerConfig;
using surveillance::VesselInfo;
using surveillance::VesselType;

// ---------------------------------------------------------------------------
// Property: CE recognition with on-demand spatial reasoning and with
// precomputed spatial facts must produce identical results on any critical
// point stream (paper Section 5.2 asserts the recognized CEs do not change
// between the two settings).
// ---------------------------------------------------------------------------

KnowledgeBase RandomKb(Rng& rng) {
  KnowledgeBase kb(1000.0);
  int32_t id = 1;
  for (const AreaKind kind :
       {AreaKind::kProtected, AreaKind::kForbiddenFishing,
        AreaKind::kShallow}) {
    const int count = static_cast<int>(rng.NextInt(1, 3));
    for (int i = 0; i < count; ++i) {
      AreaInfo a;
      a.id = id++;
      a.name = "area";
      a.kind = kind;
      a.polygon = geo::Polygon::RegularPolygon(
          geo::GeoPoint{rng.NextDouble(23.0, 27.0),
                        rng.NextDouble(35.5, 40.5)},
          rng.NextDouble(2000.0, 6000.0), 8);
      if (kind == AreaKind::kShallow) a.depth_m = rng.NextDouble(2.0, 6.0);
      kb.AddArea(a);
    }
  }
  for (stream::Mmsi m = 100; m < 112; ++m) {
    VesselInfo v;
    v.mmsi = m;
    v.type = rng.NextBool(0.4) ? VesselType::kFishing : VesselType::kTanker;
    v.fishing_gear = v.type == VesselType::kFishing;
    v.draft_m = rng.NextDouble(2.0, 14.0);
    kb.AddVessel(v);
  }
  return kb;
}

std::vector<tracker::CriticalPoint> RandomCriticalStream(Rng& rng,
                                                         const KnowledgeBase& kb,
                                                         Timestamp horizon) {
  // Vessels emit random ME marker sequences near random areas (and off in
  // open water), with paired durative markers kept consistent per vessel.
  std::vector<tracker::CriticalPoint> out;
  for (stream::Mmsi m = 100; m < 112; ++m) {
    Timestamp t = rng.NextInt(60, 600);
    bool stopped = false;
    bool slow = false;
    geo::GeoPoint pos{rng.NextDouble(23.0, 27.0), rng.NextDouble(35.5, 40.5)};
    while (t < horizon) {
      // Sometimes jump close to a random area, sometimes drift.
      if (rng.NextBool(0.5) && !kb.areas().empty()) {
        const AreaInfo& a =
            kb.areas()[rng.NextBelow(kb.areas().size())];
        pos = geo::DestinationPoint(a.polygon.VertexCentroid(),
                                    rng.NextDouble(0.0, 360.0),
                                    rng.NextDouble(0.0, 2500.0));
      } else {
        pos = geo::DestinationPoint(pos, rng.NextDouble(0.0, 360.0),
                                    rng.NextDouble(500.0, 5000.0));
      }
      tracker::CriticalPoint cp;
      cp.mmsi = m;
      cp.pos = pos;
      cp.tau = t;
      switch (rng.NextBelow(6)) {
        case 0:
          cp.flags = stopped ? tracker::kStopEnd : tracker::kStopStart;
          stopped = !stopped;
          break;
        case 1:
          cp.flags = slow ? tracker::kSlowMotionEnd
                          : tracker::kSlowMotionStart;
          slow = !slow;
          break;
        case 2:
          cp.flags = tracker::kGapStart;
          break;
        case 3:
          cp.flags = tracker::kTurn;
          break;
        case 4:
          cp.flags = tracker::kSpeedChange;
          break;
        case 5:
          cp.flags = tracker::kGapEnd;
          break;
      }
      out.push_back(cp);
      t += rng.NextInt(60, 900);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.tau < b.tau; });
  return out;
}

std::string Fingerprint(const rtec::RecognitionResult& r) {
  std::vector<std::string> items;
  for (const auto& f : r.fluents) {
    std::string s = StrPrintf("F%d k%d v%d:", f.fluent, f.key.id, f.value);
    for (const auto& i : f.intervals) {
      s += StrPrintf("(%lld,%lld]", static_cast<long long>(i.since),
                     static_cast<long long>(i.till));
    }
    items.push_back(std::move(s));
  }
  for (const auto& e : r.events) {
    items.push_back(StrPrintf("E%d s%d o%d t%lld", e.event,
                              e.instance.subject.id, e.instance.object.id,
                              static_cast<long long>(e.instance.t)));
  }
  std::sort(items.begin(), items.end());
  std::string out;
  for (const auto& i : items) {
    out += i;
    out += '\n';
  }
  return out;
}

TEST(SpatialModeEquivalenceProperty, RandomStreamsRecognizeIdentically) {
  for (uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng(8000 + trial);
    const KnowledgeBase kb = RandomKb(rng);
    const auto stream = RandomCriticalStream(rng, kb, 6 * kHour);

    RecognizerConfig on_demand;
    on_demand.window = stream::WindowSpec{2 * kHour, kHour};
    RecognizerConfig with_facts = on_demand;
    with_facts.ce.use_spatial_facts = true;

    surveillance::CERecognizer a(&kb, on_demand);
    surveillance::CERecognizer b(&kb, with_facts);

    size_t cursor_a = 0, cursor_b = 0;
    for (Timestamp q = kHour; q <= 6 * kHour; q += kHour) {
      while (cursor_a < stream.size() && stream[cursor_a].tau <= q) {
        a.Feed(stream[cursor_a++]);
      }
      while (cursor_b < stream.size() && stream[cursor_b].tau <= q) {
        b.Feed(stream[cursor_b++]);
      }
      const auto ra = a.Recognize(q);
      const auto rb = b.Recognize(q);
      EXPECT_EQ(Fingerprint(ra), Fingerprint(rb))
          << "trial " << trial << " at Q=" << q;
    }
  }
}

/// Loitering clusters for the spatial-mode property below: every half hour
/// four to six vessels, at least one of them a fishing vessel, stop close to
/// one shared area (a forbidden-fishing area every other time) for 20–60
/// minutes and then leave, on top of RandomCriticalStream's background.
/// Each vessel takes part in at most one cluster at a time. Returned sorted
/// by time.
std::vector<tracker::CriticalPoint> LoiteringStream(
    Rng& rng, const KnowledgeBase& kb, Timestamp horizon,
    const std::vector<stream::Mmsi>& fishing) {
  std::vector<tracker::CriticalPoint> out =
      RandomCriticalStream(rng, kb, horizon);
  std::vector<const AreaInfo*> forbidden;
  std::vector<const AreaInfo*> others;
  for (const AreaInfo& a : kb.areas()) {
    (a.kind == AreaKind::kForbiddenFishing ? forbidden : others).push_back(&a);
  }
  std::vector<stream::Mmsi> fleet;
  for (stream::Mmsi m = 100; m < 112; ++m) fleet.push_back(m);
  fleet.insert(fleet.end(), fishing.begin(), fishing.end());
  std::map<stream::Mmsi, Timestamp> busy_until;
  int cluster = 0;
  for (Timestamp start = 20 * kMinute; start + kHour < horizon;
       start += 30 * kMinute, ++cluster) {
    const auto& pool = cluster % 2 == 0 || others.empty() ? forbidden : others;
    const AreaInfo& area = *pool[rng.NextBelow(pool.size())];
    std::vector<stream::Mmsi> members;
    const auto join = [&](stream::Mmsi m) {
      if (busy_until[m] > start - 10 * kMinute) return;
      if (std::find(members.begin(), members.end(), m) != members.end()) return;
      members.push_back(m);
    };
    join(fishing[rng.NextBelow(fishing.size())]);
    const size_t want = static_cast<size_t>(rng.NextInt(4, 6));
    for (int tries = 0; members.size() < want && tries < 50; ++tries) {
      join(fleet[rng.NextBelow(fleet.size())]);
    }
    for (const stream::Mmsi m : members) {
      const auto near = [&] {
        return geo::DestinationPoint(area.polygon.VertexCentroid(),
                                     rng.NextDouble(0.0, 360.0),
                                     rng.NextDouble(0.0, 800.0));
      };
      tracker::CriticalPoint cp;
      cp.mmsi = m;
      cp.pos = near();
      cp.tau = start - rng.NextInt(2 * kMinute, 10 * kMinute);
      cp.flags = tracker::kTurn;  // the approach
      out.push_back(cp);
      cp.pos = near();
      cp.tau = start + rng.NextInt(0, 5 * kMinute);
      cp.flags = tracker::kStopStart;
      out.push_back(cp);
      cp.tau += rng.NextInt(20 * kMinute, kHour);
      cp.flags = tracker::kStopEnd;
      out.push_back(cp);
      cp.pos = geo::DestinationPoint(cp.pos, rng.NextDouble(0.0, 360.0),
                                     20000.0);
      cp.tau += rng.NextInt(5 * kMinute, 15 * kMinute);
      cp.flags = tracker::kSpeedChange;  // gone
      out.push_back(cp);
      busy_until[m] = cp.tau;
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) { return a.tau < b.tau; });
  return out;
}

// The spatial-facts mode visits only the vessels its fact table indexes near
// an area; the on-demand mode sweeps the fleet. Both must agree slide for
// slide under the incremental engine's partial regenerations (omega = 2 h,
// beta = 10 min), with critical points arriving late and out of order
// (fact groups inserted mid-vector) and a checkpoint/restore of the
// facts-mode recognizer mid-stream. The loitering clusters make sure the
// area-counting CEs actually fire, so agreement is not vacuous.
TEST(SpatialModeEquivalenceProperty,
     IncrementalDelayedLoiteringWithRestoreRecognizeIdentically) {
  constexpr Timestamp kHorizon = 6 * kHour;
  constexpr Timestamp kSlide = 10 * kMinute;
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(8100 + trial);
    KnowledgeBase kb = RandomKb(rng);
    std::vector<stream::Mmsi> fishing;
    for (stream::Mmsi m = 112; m < 116; ++m) {
      VesselInfo v;
      v.mmsi = m;
      v.type = VesselType::kFishing;
      v.fishing_gear = true;
      v.draft_m = 4.0;
      kb.AddVessel(v);
      fishing.push_back(m);
    }
    const auto stream = LoiteringStream(rng, kb, kHorizon, fishing);

    // Arrival order: one point in six is held back one to three slides, so
    // it reaches recognition behind later points (of its own vessel too).
    std::vector<std::pair<Timestamp, tracker::CriticalPoint>> arrivals;
    for (const tracker::CriticalPoint& cp : stream) {
      const Timestamp lag =
          rng.NextBool(1.0 / 6.0) ? rng.NextInt(1, 3) * kSlide : 0;
      arrivals.emplace_back(cp.tau + lag, cp);
    }
    std::stable_sort(
        arrivals.begin(), arrivals.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });

    RecognizerConfig on_demand;
    on_demand.window = stream::WindowSpec{2 * kHour, kSlide};
    on_demand.engine = surveillance::EngineMode::kIncremental;
    RecognizerConfig with_facts = on_demand;
    with_facts.ce.use_spatial_facts = true;
    surveillance::CERecognizer a(&kb, on_demand);
    auto b = std::make_unique<surveillance::CERecognizer>(&kb, with_facts);

    size_t cursor = 0;
    int suspicious = 0;
    int illegal_fishing = 0;
    for (Timestamp q = kSlide; q <= kHorizon; q += kSlide) {
      for (; cursor < arrivals.size() && arrivals[cursor].first <= q;
           ++cursor) {
        a.Feed(arrivals[cursor].second);
        b->Feed(arrivals[cursor].second);
      }
      if (q == kHorizon / 2) {
        snapshot::Writer w;
        b->SaveTo(w);
        auto restored =
            std::make_unique<surveillance::CERecognizer>(&kb, with_facts);
        snapshot::Reader r(w.bytes());
        ASSERT_TRUE(restored->RestoreFrom(r).ok()) << "trial " << trial;
        b = std::move(restored);
      }
      const auto ra = a.Recognize(q);
      const auto rb = b->Recognize(q);
      ASSERT_EQ(Fingerprint(ra), Fingerprint(rb))
          << "trial " << trial << " at Q=" << q;
      for (const rtec::RecognizedFluent& f : rb.fluents) {
        if (f.intervals.empty()) continue;
        suspicious += f.fluent == b->schema().suspicious;
        illegal_fishing += f.fluent == b->schema().illegal_fishing;
      }
    }
    EXPECT_GT(suspicious, 0) << "trial " << trial;
    EXPECT_GT(illegal_fishing, 0) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Property: tracker output invariants on random voyages, across parameter
// settings.
// ---------------------------------------------------------------------------

std::vector<stream::PositionTuple> RandomVoyage(Rng& rng, stream::Mmsi mmsi) {
  sim::TraceBuilder b(mmsi,
                      geo::GeoPoint{rng.NextDouble(23.0, 27.0),
                                    rng.NextDouble(35.5, 40.5)},
                      rng.NextInt(0, 600));
  const int segments = static_cast<int>(rng.NextInt(3, 8));
  double bearing = rng.NextDouble(0.0, 360.0);
  for (int s = 0; s < segments; ++s) {
    switch (rng.NextBelow(5)) {
      case 0:
        bearing = rng.NextDouble(0.0, 360.0);
        b.Cruise(bearing, rng.NextDouble(6.0, 18.0),
                 rng.NextInt(10 * kMinute, kHour), 60);
        break;
      case 1:
        b.Drift(rng.NextInt(15 * kMinute, kHour), 120, 10.0);
        break;
      case 2:
        b.Cruise(bearing, rng.NextDouble(1.5, 3.8),
                 rng.NextInt(20 * kMinute, kHour), 60);
        break;
      case 3:
        b.Silence(rng.NextInt(12 * kMinute, 40 * kMinute));
        break;
      case 4:
        b.SmoothTurn(rng.NextDouble(-90.0, 90.0),
                     static_cast<int>(rng.NextInt(5, 20)),
                     rng.NextDouble(8.0, 14.0), 60);
        bearing = b.last_bearing_deg();
        break;
    }
  }
  return b.Build();
}

class TrackerInvariantProperty : public ::testing::TestWithParam<double> {};

TEST_P(TrackerInvariantProperty, HoldOnRandomVoyages) {
  tracker::TrackerParams params;
  params.turn_threshold_deg = GetParam();
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(9100 + trial * 17 + static_cast<uint64_t>(GetParam()));
    const auto tuples = RandomVoyage(rng, 500 + trial);
    tracker::MobilityTracker tracker(params);
    std::vector<tracker::CriticalPoint> cps;
    for (const auto& t : tuples) tracker.Process(t, &cps);
    tracker.Finish(&cps);

    // Invariant: accounting adds up.
    const auto& st = tracker.stats();
    EXPECT_EQ(st.processed, tuples.size());
    EXPECT_EQ(st.processed,
              st.accepted + st.stale_discarded +
                  (st.outliers_discarded - st.outlier_resets));
    EXPECT_EQ(st.critical_points, cps.size());

    // Invariant: per vessel, critical flags that bound episodes alternate
    // and never nest (a stop cannot start while one is open, etc.).
    int stop_depth = 0, slow_depth = 0, gap_depth = 0;
    Timestamp last_tau = INT64_MIN;
    std::sort(cps.begin(), cps.end(),
              [](const auto& a, const auto& b) { return a.tau < b.tau; });
    for (const auto& cp : cps) {
      EXPECT_GE(cp.tau, last_tau);
      last_tau = cp.tau;
      if (cp.Has(tracker::kStopStart)) ++stop_depth;
      if (cp.Has(tracker::kStopEnd)) --stop_depth;
      if (cp.Has(tracker::kSlowMotionStart)) ++slow_depth;
      if (cp.Has(tracker::kSlowMotionEnd)) --slow_depth;
      if (cp.Has(tracker::kGapStart)) ++gap_depth;
      if (cp.Has(tracker::kGapEnd)) --gap_depth;
      EXPECT_GE(stop_depth, 0);
      EXPECT_LE(stop_depth, 1);
      EXPECT_GE(slow_depth, 0);
      EXPECT_LE(slow_depth, 1);
      EXPECT_GE(gap_depth, 0);
      EXPECT_LE(gap_depth, 1);
      // Episode-end durations are consistent.
      if (cp.Has(tracker::kStopEnd) || cp.Has(tracker::kSlowMotionEnd) ||
          cp.Has(tracker::kGapEnd)) {
        EXPECT_GT(cp.duration, 0) << cp;
      }
      EXPECT_TRUE(geo::IsValidPosition(cp.pos)) << cp;
    }
    EXPECT_EQ(stop_depth, 0) << "stop closed by Finish";
    EXPECT_EQ(slow_depth, 0) << "slow motion closed by Finish";

    // Invariant: the synopsis is a *reduction* and reconstruction is sane.
    EXPECT_LE(cps.size(), tuples.size() + 4u);
    if (!cps.empty()) {
      const double rmse = tracker::TrajectoryRmseMeters(tuples, cps);
      EXPECT_LT(rmse, 20000.0) << "reconstruction within a few km even on "
                                  "adversarial random voyages";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TurnThresholds, TrackerInvariantProperty,
                         ::testing::Values(5.0, 10.0, 20.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return StrPrintf("Theta%d",
                                            static_cast<int>(info.param));
                         });

// ---------------------------------------------------------------------------
// Property: compression never increases when the turn threshold widens
// (more tolerance => fewer or equal critical points), on the same stream.
// ---------------------------------------------------------------------------
TEST(CompressionMonotonicityProperty, WiderThresholdNeverAddsPoints) {
  for (uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(9500 + trial);
    const auto tuples = RandomVoyage(rng, 700 + trial);
    bool first = true;
    size_t previous = 0;
    for (const double dtheta : {5.0, 10.0, 15.0, 20.0}) {
      tracker::TrackerParams params;
      params.turn_threshold_deg = dtheta;
      tracker::MobilityTracker tracker(params);
      std::vector<tracker::CriticalPoint> cps;
      for (const auto& t : tuples) tracker.Process(t, &cps);
      tracker.Finish(&cps);
      // Heading-threshold detections (turns) shrink; episode markers are
      // threshold-independent. Allow a small slack because a missed turn
      // can occasionally re-partition smooth-turn accumulation.
      if (!first) {
        EXPECT_LE(cps.size(), previous + 3)
            << "trial " << trial << " dtheta " << dtheta;
      }
      first = false;
      previous = cps.size();
    }
  }
}

}  // namespace
}  // namespace maritime
