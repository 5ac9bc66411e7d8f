#include "tracker/vessel_state.h"

#include <cstddef>
#include <memory>
#include <type_traits>

namespace maritime::tracker {
namespace {

// Value-initializes `n` slots of T at `at` and returns them.
template <typename T>
T* PlaceSlots(std::byte* at, size_t n) {
  static_assert(alignof(T) <= alignof(std::max_align_t) &&
                std::is_trivially_destructible_v<T>);
  T* slots = reinterpret_cast<T*>(at);
  std::uninitialized_value_construct_n(slots, n);
  return slots;
}

}  // namespace

VesselState::VesselState(stream::Mmsi id, size_t history_size) : mmsi(id) {
  if (history_size == 0) return;
  // The arrays sit back to back, so each size must keep the next aligned.
  static_assert(sizeof(geo::VelocityComponents) % alignof(double) == 0 &&
                sizeof(double) % alignof(SlowSample) == 0);
  const size_t velocity_bytes = history_size * sizeof(geo::VelocityComponents);
  const size_t diff_bytes = history_size * sizeof(double);
  ring_slots_ = std::make_unique_for_overwrite<std::byte[]>(
      velocity_bytes + diff_bytes + history_size * sizeof(SlowSample));
  std::byte* at = ring_slots_.get();
  recent_velocities = Ring<geo::VelocityComponents>(
      PlaceSlots<geo::VelocityComponents>(at, history_size), history_size);
  heading_diffs = Ring<double>(
      PlaceSlots<double>(at + velocity_bytes, history_size), history_size);
  slow_samples = Ring<SlowSample>(
      PlaceSlots<SlowSample>(at + velocity_bytes + diff_bytes, history_size),
      history_size);
}

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
bool LoadVelocitiesV1(snapshot::Reader& r, uint64_t n, VesselState* vs) {
  for (uint64_t i = 0; i < n; ++i) {
    geo::Velocity v;
    if (!r.Get(&v.speed_knots, &v.heading_deg)) return false;
    vs->recent_velocities.push_back(v.components());
  }
  return true;
}

bool LoadVelocitiesV2(snapshot::Reader& r, uint64_t n, VesselState* vs) {
  for (uint64_t i = 0; i < n; ++i) {
    geo::VelocityComponents c;
    if (!r.Get(&c.east_mps, &c.north_mps)) return false;
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
    if (!r.Get(&p.mmsi, &p.pos.lon, &p.pos.lat, &p.tau)) return false;
    vs->AddStopSample(p);
  }
  uint8_t active = 0;
  if (!r.Get(&active, &vs->stop_start_tau)) return false;
  vs->stop_active = active != 0;
  return true;
}

bool LoadStopV2(snapshot::Reader& r, VesselState* vs) {
  uint8_t active = 0;
  if (!r.Get(&vs->stop_count, &vs->stop_first_tau, &vs->stop_sum_lon,
             &vs->stop_sum_lat, &active, &vs->stop_start_tau)) {
    return false;
  }
  vs->stop_active = active != 0;
  return true;
}

bool LoadSlowSamples(snapshot::Reader& r, uint8_t version, VesselState* vs) {
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t))) return false;
  for (uint64_t i = 0; i < n; ++i) {
    SlowSample s;
    if (version == 1) {
      stream::Mmsi mmsi = 0;
      if (!r.Get(&mmsi, &s.pos.lon, &s.pos.lat, &s.tau)) return false;
    } else if (!r.Get(&s.pos.lon, &s.pos.lat, &s.tau)) {
      return false;
    }
    vs->slow_samples.push_back(s);
  }
  return true;
}

}  // namespace

// Fills the state in place: the rings keep the storage the tracker gave the
// vessel's slot, so a restored vessel allocates nothing beyond that slot.
// Every serialized field is overwritten; the rings and the stop aggregates
// (which v1 rebuilds sample by sample) start empty.
Status VesselState::RestoreFrom(snapshot::Reader& r, uint8_t version) {
  recent_velocities.clear();
  heading_diffs.clear();
  slow_samples.clear();
  ClearStopSamples();
  const bool v1 = version == 1;
  uint8_t has_last_u8 = 0, has_velocity_u8 = 0;
  uint64_t n = 0;
  bool ok = r.Get(&has_last_u8, &last.mmsi, &last.pos.lon, &last.pos.lat,
                  &last.tau, &has_velocity_u8, &v_prev.speed_knots,
                  &v_prev.heading_deg, &n) &&
            r.Fits(n, 2 * sizeof(double)) &&
            (v1 ? LoadVelocitiesV1(r, n, this) : LoadVelocitiesV2(r, n, this)) &&
            r.Count(&n, sizeof(double));
  if (!ok) return snapshot::CorruptionIn("vessel state");
  has_last = has_last_u8 != 0;
  has_velocity = has_velocity_u8 != 0;
  for (uint64_t i = 0; i < n; ++i) {
    double d = 0.0;
    if (!r.F64(&d)) return snapshot::CorruptionIn("vessel state");
    heading_diffs.push_back(d);
  }
  uint8_t slow_active_u8 = 0, gap_open_u8 = 0;
  int32_t outliers = 0;
  ok = (v1 ? LoadStopV1(r, this) : LoadStopV2(r, this)) &&
       LoadSlowSamples(r, version, this) &&
       r.Get(&slow_active_u8, &slow_start_tau, &slow_anchor.lon,
             &slow_anchor.lat, &gap_open_u8, &gap_start_tau, &outliers,
             &accepted_count, &odometer_m);
  if (!ok) return snapshot::CorruptionIn("vessel state");
  slow_active = slow_active_u8 != 0;
  gap_open = gap_open_u8 != 0;
  consecutive_outliers = outliers;
  // An open stop or slow-motion episode always holds samples: closing one
  // without any would have no position to report.
  if ((stop_active && stop_count == 0) ||
      (slow_active && slow_samples.empty())) {
    return snapshot::CorruptionIn("vessel state (episode without samples)");
  }
  const geo::TrackPoint trig(last.pos);
  last_sin_lat = trig.sin_phi;
  last_cos_lat = trig.cos_phi;
  return Status::OK();
}

}  // namespace maritime::tracker
