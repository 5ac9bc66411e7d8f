#include "tracker/mobility_tracker.h"

#include <cassert>
#include <cmath>

namespace maritime::tracker {
namespace {

/// Floor for the denominator of the relative speed-change test, so that a
/// deceleration towards zero still registers as a bounded ratio.
constexpr double kSpeedRatioFloorKnots = 0.5;

/// Minimum velocity history before off-course detection engages; with fewer
/// samples the mean velocity is not yet a trustworthy course abstraction.
constexpr size_t kMinHistoryForOutliers = 3;

/// Displacement that triggers a shape waypoint inside a slow-motion episode.
/// Between its start and end markers a meandering episode (e.g. a trawler
/// working a ground for hours) would otherwise collapse to a straight
/// segment.
constexpr double kSlowWaypointMeters = 300.0;

}  // namespace

MobilityTracker::MobilityTracker(TrackerParams params)
    : params_(params) {
  assert(params_.Validate().ok());
}

const VesselState* MobilityTracker::FindVessel(stream::Mmsi mmsi) const {
  const auto it = slot_of_.find(mmsi);
  return it == slot_of_.end() ? nullptr : &vessels_[it->second];
}

uint32_t MobilityTracker::SlotFor(stream::Mmsi mmsi) {
  const auto [it, inserted] =
      slot_of_.try_emplace(mmsi, static_cast<uint32_t>(vessels_.size()));
  if (inserted) {
    vessels_.emplace_back(mmsi, static_cast<size_t>(params_.history_size));
  }
  return it->second;
}

geo::GeoPoint MobilityTracker::SlowMedian(const VesselState& vs) {
  assert(!vs.slow_samples.empty());
  median_scratch_.clear();
  for (size_t i = 0; i < vs.slow_samples.size(); ++i) {
    median_scratch_.push_back(vs.slow_samples[i].pos);
  }
  return geo::MedianPoint(median_scratch_);
}

void MobilityTracker::Emit(const CriticalPoint& cp,
                           std::vector<CriticalPoint>* out) {
  ++stats_.critical_points;
  out->push_back(cp);
}

bool IsOffCourse(const Ring<geo::VelocityComponents>& recent,
                 const geo::Velocity& v_now,
                 const geo::VelocityComponents& c_now,
                 const TrackerParams& params) {
  if (recent.size() < kMinHistoryForOutliers) return false;
  // The mean of the cached components, summed oldest first.
  double east = 0.0, north = 0.0;
  for (size_t i = 0; i < recent.size(); ++i) {
    east += recent[i].east_mps;
    north += recent[i].north_mps;
  }
  const geo::VelocityComponents mean =
      geo::MeanComponents(east, north, recent.size());
  const double mean_speed = geo::SpeedKnots(mean);  // v_m.speed_knots
  const double threshold =
      std::max(params.outlier_min_speed_knots,
               params.outlier_speed_factor * mean_speed);
  // The deviation |v_now - v_m| is at most |v_now| + |v_m| (triangle
  // inequality; its rounding is a few ulps, far inside the 1e-9 margin), so
  // a sum below the threshold decides the test without v_m's heading.
  if ((v_now.speed_knots + mean_speed) * (1.0 + 1e-9) < threshold) {
    return false;
  }
  const geo::Velocity v_m =
      geo::Velocity::FromComponents(mean.east_mps, mean.north_mps);
  return geo::VelocityDeviationKnots(c_now, v_m) > threshold;
}

void MobilityTracker::CloseStop(VesselState& vs, stream::Mmsi mmsi,
                                Timestamp end_tau,
                                std::vector<CriticalPoint>* out) {
  assert(vs.stop_active && vs.stop_count > 0);
  CriticalPoint cp;
  cp.mmsi = mmsi;
  cp.pos = vs.StopCentroid();
  cp.tau = end_tau;
  cp.flags = kStopEnd;
  cp.duration = SaturatingSub(end_tau, vs.stop_start_tau);
  Emit(cp, out);
  vs.stop_active = false;
  vs.stop_start_tau = kInvalidTimestamp;
  vs.ClearStopSamples();
}

void MobilityTracker::CloseSlowMotion(VesselState& vs, stream::Mmsi mmsi,
                                      Timestamp end_tau,
                                      std::vector<CriticalPoint>* out) {
  assert(vs.slow_active && !vs.slow_samples.empty());
  CriticalPoint cp;
  cp.mmsi = mmsi;
  cp.pos = SlowMedian(vs);
  cp.tau = end_tau;
  cp.flags = kSlowMotionEnd;
  cp.duration = SaturatingSub(end_tau, vs.slow_start_tau);
  Emit(cp, out);
  vs.slow_active = false;
  vs.slow_start_tau = kInvalidTimestamp;
  vs.slow_samples.clear();
}

bool MobilityTracker::UpdateStop(VesselState& vs,
                                 const stream::PositionTuple& t,
                                 double speed_knots,
                                 std::vector<CriticalPoint>* out) {
  const bool pause = speed_knots < params_.min_speed_knots;
  if (!pause) {
    if (vs.stop_active) {
      // The vessel resumed moving: the stop lasted until the previous sample.
      CloseStop(vs, t.mmsi, vs.last.tau, out);
    } else {
      vs.ClearStopSamples();
    }
    return false;
  }
  // Pause sample: check spatial coherence with the current stop candidate.
  if (vs.stop_count > 0) {
    if (geo::HaversineMeters(t.pos, vs.StopCentroid()) >
        params_.stop_radius_m) {
      // Drifted beyond r: the previous episode (if any) ends here.
      if (vs.stop_active) CloseStop(vs, t.mmsi, vs.last.tau, out);
      vs.ClearStopSamples();
    }
  }
  vs.AddStopSample(t);
  if (!vs.stop_active &&
      vs.stop_count >= static_cast<uint64_t>(params_.history_size)) {
    vs.stop_active = true;
    vs.stop_start_tau = vs.stop_first_tau;
    CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.pos = vs.StopCentroid();
    cp.tau = vs.stop_start_tau;  // Retroactive: the stop began m samples ago.
    cp.flags = kStopStart;
    Emit(cp, out);
  }
  return true;  // Pause samples are absorbed; isolated they are meaningless.
}

void MobilityTracker::UpdateSlowMotion(VesselState& vs,
                                       const stream::PositionTuple& t,
                                       double speed_knots, bool in_stop,
                                       std::vector<CriticalPoint>* out) {
  const bool slow = !in_stop && speed_knots <= params_.slow_speed_knots;
  if (!slow) {
    if (vs.slow_active) {
      CloseSlowMotion(vs, t.mmsi, vs.last.tau, out);
    } else {
      vs.slow_samples.clear();
    }
    return;
  }
  // A full ring drops its oldest sample: the closing median represents the
  // last m positions, the end of the episode, and memory stays O(m).
  vs.slow_samples.push_back(SlowSample{t.pos, t.tau});
  if (!vs.slow_active && vs.slow_samples.size() >=
                             static_cast<size_t>(params_.history_size)) {
    vs.slow_active = true;
    vs.slow_start_tau = vs.slow_samples.front().tau;
    CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.pos = SlowMedian(vs);
    cp.tau = vs.slow_start_tau;  // Retroactive, like stop starts.
    cp.flags = kSlowMotionStart;
    cp.speed_knots = speed_knots;
    Emit(cp, out);
    vs.slow_anchor = cp.pos;
  } else if (vs.slow_active &&
             geo::HaversineMeters(t.pos, vs.slow_anchor) >
                 kSlowWaypointMeters) {
    // Shape waypoint: without it a meandering episode would collapse to the
    // straight start→end segment on reconstruction.
    CriticalPoint cp;
    cp.mmsi = t.mmsi;
    cp.pos = t.pos;
    cp.tau = t.tau;
    cp.flags = kSlowMotionWaypoint;
    cp.speed_knots = speed_knots;
    Emit(cp, out);
    vs.slow_anchor = t.pos;
  }
}

void MobilityTracker::ProcessBatch(
    std::span<const stream::PositionTuple> batch,
    std::vector<CriticalPoint>* out) {
  for (const auto& t : batch) Process(t, out);
}

void MobilityTracker::Process(const stream::PositionTuple& tuple,
                              std::vector<CriticalPoint>* out) {
  VesselState& vs = vessels_[SlotFor(tuple.mmsi)];
  ++stats_.processed;

  if (!vs.has_last) {
    vs.Accept(tuple, geo::TrackPoint(tuple.pos));
    ++stats_.accepted;
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.pos = tuple.pos;
    cp.tau = tuple.tau;
    cp.flags = kFirst;
    Emit(cp, out);
    return;
  }

  // A forward jump too large for a Duration saturates, so it reads as a
  // retrospective gap below.
  const Duration dt = SaturatingSub(tuple.tau, vs.last.tau);
  if (dt <= 0) {
    ++stats_.stale_discarded;
    return;
  }
  const geo::TrackPoint prev = vs.LastPoint();
  const geo::TrackPoint here(tuple.pos);

  if (vs.gap_open) {
    // Gap already reported by AdvanceTo; this sample terminates it.
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.pos = tuple.pos;
    cp.tau = tuple.tau;
    cp.flags = kGapEnd;
    cp.duration = SaturatingSub(tuple.tau, vs.gap_start_tau);
    Emit(cp, out);
    vs.gap_open = false;
    vs.gap_start_tau = kInvalidTimestamp;
    vs.ResetMotionState();
    vs.odometer_m += geo::HaversineMeters(prev, here);
    vs.Accept(tuple, here);
    ++stats_.accepted;
    return;
  }

  if (dt > params_.gap_period) {
    // Gap discovered retrospectively (the vessel reported again before any
    // window slide noticed the silence).
    if (vs.stop_active) CloseStop(vs, tuple.mmsi, vs.last.tau, out);
    if (vs.slow_active) CloseSlowMotion(vs, tuple.mmsi, vs.last.tau, out);
    CriticalPoint start;
    start.mmsi = tuple.mmsi;
    start.pos = vs.last.pos;
    start.tau = vs.last.tau;
    start.flags = kGapStart;
    Emit(start, out);
    CriticalPoint end;
    end.mmsi = tuple.mmsi;
    end.pos = tuple.pos;
    end.tau = tuple.tau;
    end.flags = kGapEnd;
    end.duration = dt;
    Emit(end, out);
    vs.ResetMotionState();
    vs.odometer_m += geo::HaversineMeters(prev, here);
    vs.Accept(tuple, here);
    ++stats_.accepted;
    return;
  }

  // The step's Haversine distance feeds both the velocity and the odometer.
  double step_m = 0.0;
  const geo::Velocity v_now =
      geo::VelocityBetween(prev, vs.last.tau, here, tuple.tau, &step_m);
  const geo::VelocityComponents c_now = v_now.components();

  if (IsOffCourse(vs.recent_velocities, v_now, c_now, params_)) {
    ++stats_.outliers_discarded;
    ++vs.consecutive_outliers;
    if (vs.consecutive_outliers >= params_.outlier_reset_count) {
      // Persistent deviation: this is a genuine new course, not noise.
      ++stats_.outlier_resets;
      vs.ResetMotionState();
      vs.odometer_m += step_m;
      vs.Accept(tuple, here);
      ++stats_.accepted;
    }
    return;
  }
  vs.consecutive_outliers = 0;

  // --- instantaneous events ---------------------------------------------
  const bool moving_now = v_now.speed_knots >= params_.min_speed_knots;
  const bool moving_prev =
      vs.has_velocity && vs.v_prev.speed_knots >= params_.min_speed_knots;

  bool speed_change = false;
  if (vs.has_velocity) {
    const double denom = std::max(v_now.speed_knots, kSpeedRatioFloorKnots);
    speed_change = std::fabs(v_now.speed_knots - vs.v_prev.speed_knots) /
                       denom >
                   params_.speed_change_ratio;
  }

  bool turn = false;
  double heading_diff = 0.0;
  if (vs.has_velocity && moving_now && moving_prev) {
    heading_diff =
        geo::BearingDifferenceDeg(vs.v_prev.heading_deg, v_now.heading_deg);
    turn = std::fabs(heading_diff) > params_.turn_threshold_deg;
  }

  // A transition from cruising into stillness: the previous sample is the
  // last point consistent with the old velocity, so it anchors the end of
  // the leg (otherwise the whole leg would be time-dilated when the
  // trajectory is reconstructed from critical points).
  const bool pause_now = v_now.speed_knots < params_.min_speed_knots;
  if (pause_now && moving_prev && speed_change) {
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.pos = vs.last.pos;
    cp.tau = vs.last.tau;
    cp.flags = kSpeedChange;
    cp.speed_knots = vs.v_prev.speed_knots;
    cp.heading_deg = vs.v_prev.heading_deg;
    Emit(cp, out);
  }

  // --- long-lasting events -------------------------------------------------
  const bool in_stop = UpdateStop(vs, tuple, v_now.speed_knots, out);
  UpdateSlowMotion(vs, tuple, v_now.speed_knots, in_stop, out);

  bool smooth_turn = false;
  if (vs.has_velocity && moving_now && moving_prev) {
    if (turn) {
      // A sharp turn resets the cumulative-heading accumulator: the course
      // change is already captured by the instantaneous event.
      vs.heading_diffs.clear();
    } else {
      vs.heading_diffs.push_back(heading_diff);  // Drops the oldest at m.
      double cumulative = 0.0;
      for (size_t i = 0; i < vs.heading_diffs.size(); ++i) {
        cumulative += vs.heading_diffs[i];
      }
      if (std::fabs(cumulative) > params_.turn_threshold_deg) {
        smooth_turn = true;
        vs.heading_diffs.clear();
      }
    }
  } else {
    vs.heading_diffs.clear();
  }

  // --- emission ------------------------------------------------------------
  // During a slow-motion episode, per-sample chatter (relative speed
  // fluctuations, heading jitter of a trawler working a ground) is absorbed
  // by the episode; the episode's shape is retained by distance-triggered
  // waypoints emitted from UpdateSlowMotion instead.
  uint32_t flags = 0;
  if (!vs.slow_active) {
    if (turn) flags |= kTurn;
    if (smooth_turn) flags |= kSmoothTurn;
    if (speed_change) flags |= kSpeedChange;
  }
  if (flags != 0 && !in_stop) {
    CriticalPoint cp;
    cp.mmsi = tuple.mmsi;
    cp.flags = flags;
    if (flags & (kTurn | kSpeedChange)) {
      // The velocity changed somewhere between the previous sample and this
      // one, so the previous sample is the corner of the trajectory (the
      // last point consistent with the old velocity). Anchoring the critical
      // point there keeps the reconstructed polyline tight around sharp
      // turns — anchoring at the detection sample would cut the corner by a
      // whole reporting interval.
      cp.pos = vs.last.pos;
      cp.tau = vs.last.tau;
      cp.speed_knots = vs.v_prev.speed_knots;
      cp.heading_deg = vs.v_prev.heading_deg;
    } else {
      // A smooth turn's representative point is the latest of the series
      // (paper Section 3.1).
      cp.pos = tuple.pos;
      cp.tau = tuple.tau;
      cp.speed_knots = v_now.speed_knots;
      cp.heading_deg = v_now.heading_deg;
    }
    Emit(cp, out);
  }

  // --- state update ----------------------------------------------------------
  vs.recent_velocities.push_back(c_now);  // Drops the oldest at m.
  vs.v_prev = v_now;
  vs.has_velocity = true;
  vs.odometer_m += step_m;
  vs.Accept(tuple, here);
  ++stats_.accepted;
}

void MobilityTracker::AdvanceTo(Timestamp now,
                                std::vector<CriticalPoint>* out) {
  for (VesselState& vs : vessels_) {
    if (!vs.has_last || vs.gap_open) continue;
    if (SaturatingSub(now, vs.last.tau) <= params_.gap_period) continue;
    // The vessel fell silent: finalize open episodes, report the gap start
    // at the last known position (paper Section 3.1, Figure 3(a)).
    if (vs.stop_active) CloseStop(vs, vs.mmsi, vs.last.tau, out);
    if (vs.slow_active) CloseSlowMotion(vs, vs.mmsi, vs.last.tau, out);
    CriticalPoint cp;
    cp.mmsi = vs.mmsi;
    cp.pos = vs.last.pos;
    cp.tau = vs.last.tau;
    cp.flags = kGapStart;
    Emit(cp, out);
    vs.gap_open = true;
    vs.gap_start_tau = vs.last.tau;
  }
}

void MobilityTracker::Finish(std::vector<CriticalPoint>* out) {
  for (VesselState& vs : vessels_) {
    if (vs.stop_active) CloseStop(vs, vs.mmsi, vs.last.tau, out);
    if (vs.slow_active) CloseSlowMotion(vs, vs.mmsi, vs.last.tau, out);
    if (vs.has_last) {
      // Closing anchor so that approximate reconstruction covers the whole
      // observed trace.
      CriticalPoint cp;
      cp.mmsi = vs.mmsi;
      cp.pos = vs.last.pos;
      cp.tau = vs.last.tau;
      cp.flags = kLast;
      if (vs.has_velocity) {
        cp.speed_knots = vs.v_prev.speed_knots;
        cp.heading_deg = vs.v_prev.heading_deg;
      }
      Emit(cp, out);
    }
  }
}

}  // namespace maritime::tracker
