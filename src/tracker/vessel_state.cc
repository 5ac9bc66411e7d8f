#include "tracker/vessel_state.h"

#include "geo/snapshot_io.h"
#include "stream/snapshot_io.h"

namespace maritime::tracker {

void VesselState::ResetMotionState() {
  has_velocity = false;
  recent_velocities.clear();
  heading_diffs.clear();
  ClearStopSamples();
  stop_active = false;
  stop_start_tau = kInvalidTimestamp;
  slow_samples.clear();
  slow_active = false;
  slow_start_tau = kInvalidTimestamp;
  consecutive_outliers = 0;
}

// Format v2: rings are written oldest first, the stop samples as their
// running aggregates. (v1 wrote velocities as speed/heading and both sample
// buffers as position tuples.)
// Each run of fixed fields between two rings is one Writer::Put; a bool is
// the u8 0/1 that Writer::Bool writes.
void VesselState::SaveTo(snapshot::Writer& w) const {
  w.Put(uint8_t{has_last}, last.mmsi, last.pos.lon, last.pos.lat, last.tau,
        uint8_t{has_velocity}, v_prev.speed_knots, v_prev.heading_deg,
        uint64_t{recent_velocities.size()});
  for (size_t i = 0; i < recent_velocities.size(); ++i) {
    w.Put(recent_velocities[i].east_mps, recent_velocities[i].north_mps);
  }
  w.U64(heading_diffs.size());
  for (size_t i = 0; i < heading_diffs.size(); ++i) w.F64(heading_diffs[i]);
  w.Put(stop_count, stop_first_tau, stop_sum_lon, stop_sum_lat,
        uint8_t{stop_active}, stop_start_tau,
        uint64_t{slow_samples.size()});
  for (size_t i = 0; i < slow_samples.size(); ++i) {
    const SlowSample& s = slow_samples[i];
    w.Put(s.pos.lon, s.pos.lat, s.tau);
  }
  w.Put(uint8_t{slow_active}, slow_start_tau, slow_anchor.lon,
        slow_anchor.lat, uint8_t{gap_open}, gap_start_tau,
        int32_t{consecutive_outliers}, accepted_count, odometer_m);
}

namespace {

// v1 velocity history: speed/heading pairs. The components are derived with
// the expressions the v1 tracker evaluated when it took the mean, so the
// restored ring holds exactly the values it summed.
bool LoadVelocitiesV1(snapshot::Reader& r, VesselState* vs) {
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(double) * 2)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    geo::Velocity v;
    if (!geo::LoadVelocity(r, &v)) return false;
    vs->recent_velocities.push_back(v.components());
  }
  return true;
}

bool LoadVelocitiesV2(snapshot::Reader& r, VesselState* vs) {
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(double) * 2)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    geo::VelocityComponents c;
    if (!r.F64(&c.east_mps) || !r.F64(&c.north_mps)) return false;
    vs->recent_velocities.push_back(c);
  }
  return true;
}

// v1 stop buffer: the pause samples themselves, folded into the aggregates
// in buffer order (the order the v1 centroid summed them in).
bool LoadStopV1(snapshot::Reader& r, VesselState* vs) {
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t))) return false;
  for (uint64_t i = 0; i < n; ++i) {
    stream::PositionTuple p;
    if (!stream::LoadPositionTuple(r, &p)) return false;
    vs->AddStopSample(p);
  }
  return r.Bool(&vs->stop_active) && r.I64(&vs->stop_start_tau);
}

bool LoadStopV2(snapshot::Reader& r, VesselState* vs) {
  return r.U64(&vs->stop_count) && r.I64(&vs->stop_first_tau) &&
         r.F64(&vs->stop_sum_lon) && r.F64(&vs->stop_sum_lat) &&
         r.Bool(&vs->stop_active) && r.I64(&vs->stop_start_tau);
}

bool LoadSlowSamples(snapshot::Reader& r, uint8_t version, VesselState* vs) {
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t))) return false;
  for (uint64_t i = 0; i < n; ++i) {
    SlowSample s;
    if (version == 1) {
      stream::PositionTuple p;
      if (!stream::LoadPositionTuple(r, &p)) return false;
      s = SlowSample{p.pos, p.tau};
    } else if (!geo::LoadGeoPoint(r, &s.pos) || !r.I64(&s.tau)) {
      return false;
    }
    vs->slow_samples.push_back(s);
  }
  return true;
}

}  // namespace

Status VesselState::RestoreFrom(snapshot::Reader& r, uint8_t version) {
  *this = VesselState(mmsi, recent_velocities.capacity());
  const bool v1 = version == 1;
  uint64_t n = 0;
  bool ok = r.Bool(&has_last) && stream::LoadPositionTuple(r, &last) &&
            r.Bool(&has_velocity) && geo::LoadVelocity(r, &v_prev) &&
            (v1 ? LoadVelocitiesV1(r, this) : LoadVelocitiesV2(r, this)) &&
            r.Count(&n, sizeof(double));
  if (!ok) return snapshot::CorruptionIn("vessel state");
  for (uint64_t i = 0; i < n; ++i) {
    double d = 0.0;
    if (!r.F64(&d)) return snapshot::CorruptionIn("vessel state");
    heading_diffs.push_back(d);
  }
  ok = (v1 ? LoadStopV1(r, this) : LoadStopV2(r, this)) &&
       LoadSlowSamples(r, version, this) && r.Bool(&slow_active) &&
       r.I64(&slow_start_tau) && geo::LoadGeoPoint(r, &slow_anchor) &&
       r.Bool(&gap_open) && r.I64(&gap_start_tau) &&
       r.I32(&consecutive_outliers) && r.U64(&accepted_count) &&
       r.F64(&odometer_m);
  if (!ok) return snapshot::CorruptionIn("vessel state");
  const geo::TrackPoint trig(last.pos);
  last_sin_lat = trig.sin_phi;
  last_cos_lat = trig.cos_phi;
  return Status::OK();
}

}  // namespace maritime::tracker
