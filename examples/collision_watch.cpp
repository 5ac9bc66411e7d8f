// Collision watch: the low-latency screening the paper motivates as a
// beneficiary of online trajectory compression ("reducing latency of online
// collision detection", Section 1) plus the "is a ship approaching a port"
// continuous query of Section 2.
//
// Two scripted ferries converge head-on in open water while background
// traffic sails around them. The pipeline compresses the streams into
// critical points; alongside it the example keeps each vessel's last fix,
// with speed and heading derived from the fix before, and marks vessels whose
// transponder went silent (gap-start critical points). Each window slide runs
// a closest-point-of-approach screen over that live picture, and the final
// picture answers a port-approach query.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "geo/velocity.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/scenarios.h"
#include "sim/world.h"
#include "stream/replayer.h"

using namespace maritime;

namespace {

/// Latest known kinematic state of one vessel.
struct LiveVessel {
  stream::Mmsi mmsi = 0;
  geo::GeoPoint pos;
  Timestamp tau = 0;            ///< Time of the state.
  double speed_knots = 0.0;
  double heading_deg = 0.0;
  bool in_gap = false;          ///< Transponder silent (course unknown).
};

/// The fleet's live picture, ascending by MMSI.
using LivePicture = std::map<stream::Mmsi, LiveVessel>;

/// A predicted close encounter between two moving vessels, from a
/// constant-velocity closest-point-of-approach (CPA) extrapolation.
struct Encounter {
  stream::Mmsi a = 0;
  stream::Mmsi b = 0;
  double current_distance_m = 0.0;
  double cpa_distance_m = 0.0;  ///< Distance at the closest approach.
  Duration time_to_cpa = 0;     ///< Seconds until it (0 = already diverging).
};

/// Closest point of approach of two constant-velocity tracks: returns the
/// time (>= 0 s) at which the distance is minimal, and that distance. The
/// classic ARPA computation, in a local tangent plane around `a`.
Encounter ComputeCpa(const LiveVessel& a, const LiveVessel& b) {
  Encounter e;
  e.a = a.mmsi;
  e.b = b.mmsi;
  e.current_distance_m = geo::HaversineMeters(a.pos, b.pos);

  // Local tangent plane around `a` (east/north meters).
  const double coslat = std::cos(geo::DegToRad(a.pos.lat));
  const double meters_per_deg_lat = 111194.9;
  const double rx = (b.pos.lon - a.pos.lon) * meters_per_deg_lat * coslat;
  const double ry = (b.pos.lat - a.pos.lat) * meters_per_deg_lat;

  const geo::Velocity va{a.speed_knots, a.heading_deg};
  const geo::Velocity vb{b.speed_knots, b.heading_deg};
  const double vx = vb.east_mps() - va.east_mps();
  const double vy = vb.north_mps() - va.north_mps();
  const double v2 = vx * vx + vy * vy;
  if (v2 < 1e-9) {
    // No relative motion: the distance never changes.
    e.cpa_distance_m = e.current_distance_m;
    e.time_to_cpa = 0;
    return e;
  }
  const double t = -(rx * vx + ry * vy) / v2;
  if (t <= 0.0) {
    // Already past the closest point; diverging.
    e.cpa_distance_m = e.current_distance_m;
    e.time_to_cpa = 0;
    return e;
  }
  const double cx = rx + vx * t;
  const double cy = ry + vy * t;
  e.cpa_distance_m = std::hypot(cx, cy);
  e.time_to_cpa = static_cast<Duration>(t);
  return e;
}

/// The state a raw fix gives, with speed and heading derived from the
/// vessel's previous fix.
LiveVessel FixState(const LivePicture& live, const stream::PositionTuple& fix) {
  geo::Velocity velocity{0.0, 0.0};
  const auto prev = live.find(fix.mmsi);
  if (prev != live.end() && fix.tau > prev->second.tau) {
    velocity = geo::VelocityBetween(prev->second.pos, prev->second.tau,
                                    fix.pos, fix.tau);
  }
  return LiveVessel{fix.mmsi, fix.pos, fix.tau, velocity.speed_knots,
                    velocity.heading_deg, /*in_gap=*/false};
}

/// Records a vessel's state unless the picture holds a newer one.
void Record(LivePicture& live, const LiveVessel& state) {
  const auto [it, inserted] = live.try_emplace(state.mmsi, state);
  if (!inserted && state.tau >= it->second.tau) it->second = state;
}

bool Moving(const LiveVessel& v) {
  return !v.in_gap && v.speed_knots >= 0.5;
}

/// All pairs of moving vessels within `screen_radius_m` of each other whose
/// predicted CPA within `horizon_s` seconds is below `cpa_threshold_m`,
/// closest CPA first. Vessels in a gap (course unknown) are skipped.
std::vector<Encounter> CollisionScreen(const LivePicture& live,
                                       double cpa_threshold_m,
                                       Duration horizon_s,
                                       double screen_radius_m = 20000.0) {
  std::vector<Encounter> out;
  for (auto a = live.begin(); a != live.end(); ++a) {
    if (!Moving(a->second)) continue;
    for (auto b = std::next(a); b != live.end(); ++b) {  // each pair once
      if (!Moving(b->second) ||
          geo::HaversineMeters(a->second.pos, b->second.pos) >
              screen_radius_m) {
        continue;
      }
      const Encounter e = ComputeCpa(a->second, b->second);
      if (e.time_to_cpa > 0 && e.time_to_cpa <= horizon_s &&
          e.cpa_distance_m < cpa_threshold_m) {
        out.push_back(e);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Encounter& x, const Encounter& y) {
    return x.cpa_distance_m < y.cpa_distance_m;
  });
  return out;
}

}  // namespace

int main() {
  sim::World world = sim::BuildWorld(/*seed=*/55);

  // Background traffic.
  sim::FleetConfig fleet_cfg;
  fleet_cfg.vessels = 15;
  fleet_cfg.duration = 4 * kHour;
  fleet_cfg.seed = 56;
  sim::FleetSimulator fleet(&world, fleet_cfg);
  auto tuples = fleet.Generate();

  // Two ferries on reciprocal courses, timed to meet in the middle.
  const geo::GeoPoint meet{25.0, 38.0};
  const double leg_m = 30000.0;
  const Duration leg_s =
      static_cast<Duration>(leg_m / (14.0 * geo::kKnotsToMps));
  for (int i = 0; i < 2; ++i) {
    surveillance::VesselInfo info;
    info.mmsi = 238000001u + static_cast<stream::Mmsi>(i);
    info.name = i == 0 ? "MF EASTBOUND" : "MF WESTBOUND";
    info.type = surveillance::VesselType::kPassenger;
    info.draft_m = 5.5;
    world.knowledge.AddVessel(info);
    const double bearing = i == 0 ? 90.0 : 270.0;
    sim::TraceBuilder t(info.mmsi,
                        geo::DestinationPoint(meet, bearing + 180.0, leg_m),
                        kHour);
    t.Cruise(bearing, 14.0, 2 * leg_s, 30);
    auto trace = std::move(t).Build();
    tuples.insert(tuples.end(), trace.begin(), trace.end());
  }
  stream::StreamReplayer replayer(std::move(tuples));
  std::printf("fleet of %zu vessels; ferries converge head-on near "
              "(%.2f, %.2f) around t=%s\n",
              fleet.fleet().size() + 2, meet.lon, meet.lat,
              FormatTimestamp(kHour + leg_s).c_str());

  surveillance::PipelineConfig config;
  config.window = stream::WindowSpec{kHour, 5 * kMinute};
  config.archive = false;
  surveillance::SurveillancePipeline pipeline(&world.knowledge, config);

  LivePicture live;
  std::set<std::pair<stream::Mmsi, stream::Mmsi>> reported;
  size_t alerts = 0;
  stream::QueryTimeSequence queries(config.window, 0);
  const Timestamp last_tau = replayer.last_timestamp();
  while (true) {
    const Timestamp q = queries.Fire();
    const auto batch = replayer.NextBatch(q);
    // The live picture tracks every raw fix (cheap: last state per vessel);
    // the pipeline's critical points additionally mark transponder gaps so
    // dark vessels are excluded from extrapolation.
    for (const auto& fix : batch) Record(live, FixState(live, fix));
    const auto report = pipeline.RunSlide(q, batch);
    for (const auto& cp : report.critical_points) {
      if (cp.Has(tracker::kGapStart)) {
        Record(live, LiveVessel{cp.mmsi, cp.pos, cp.tau, cp.speed_knots,
                                cp.heading_deg, /*in_gap=*/true});
      }
    }
    std::erase_if(live, [&](const auto& entry) {
      return entry.second.tau < q - 2 * kHour;  // silent for two hours
    });

    for (const auto& e : CollisionScreen(live, /*cpa_threshold_m=*/800.0,
                                         /*horizon_s=*/30 * kMinute)) {
      if (!reported.insert({e.a, e.b}).second) continue;
      ++alerts;
      std::printf(
          "  [Q=%s] CPA WARNING vessels %u / %u: now %.1f km apart, "
          "CPA %.0f m in %s\n",
          FormatTimestamp(report.query_time).c_str(), e.a, e.b,
          e.current_distance_m / 1000.0, e.cpa_distance_m,
          FormatDuration(e.time_to_cpa).c_str());
    }
    if (q >= last_tau) break;
  }
  pipeline.Finish();

  // Port-approach query against the final picture.
  std::printf("\nport approach snapshot (last window):\n");
  // A vessel approaches a port when it is within 15 km, moving at 1 kn or
  // more, and its course is within 30 degrees of the bearing to the port.
  for (const auto& port : world.ports) {
    for (const auto& [mmsi, v] : live) {
      if (geo::HaversineMeters(port.center, v.pos) > 15000.0 || v.in_gap ||
          v.speed_knots < 1.0) {
        continue;
      }
      const double bearing_to_port = geo::InitialBearingDeg(v.pos, port.center);
      if (std::fabs(geo::BearingDifferenceDeg(v.heading_deg,
                                              bearing_to_port)) > 30.0) {
        continue;
      }
      std::printf("  %s: vessel %u inbound at %.1f kn, %.1f km out\n",
                  port.name.c_str(), mmsi, v.speed_knots,
                  geo::HaversineMeters(v.pos, port.center) / 1000.0);
    }
  }
  std::printf("\nCPA warnings raised: %zu (ferry pair %s)\n", alerts,
              reported.count({238000001u, 238000002u}) ? "flagged" :
              "NOT flagged");
  return reported.count({238000001u, 238000002u}) ? 0 : 2;
}
