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
// running aggregates. Each run of fixed fields between two rings is one
// Writer::Put; a bool is the u8 0/1 that Writer::Bool writes.
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

// Fills the state in place: the rings keep the storage the tracker gave the
// vessel's slot, so a restored vessel allocates nothing beyond that slot.
// Every serialized field is overwritten; the rings start empty. A ring count
// is at most the ring's capacity, as SaveTo writes it: a longer list would
// push its oldest entries out unseen.
Status VesselState::RestoreFrom(snapshot::Reader& r) {
  const auto corrupt = [] { return snapshot::CorruptionIn("vessel state"); };
  recent_velocities.clear();
  heading_diffs.clear();
  slow_samples.clear();
  uint8_t has_last_u8 = 0, has_velocity_u8 = 0;
  uint64_t n = 0;
  if (!r.Get(&has_last_u8, &last.mmsi, &last.pos.lon, &last.pos.lat,
             &last.tau, &has_velocity_u8, &v_prev.speed_knots,
             &v_prev.heading_deg, &n) ||
      !r.Flag(has_last_u8, &has_last) ||
      !r.Flag(has_velocity_u8, &has_velocity) ||
      n > recent_velocities.capacity() || !r.Fits(n, 2 * sizeof(double))) {
    return corrupt();
  }
  for (uint64_t i = 0; i < n; ++i) {
    geo::VelocityComponents c;
    if (!r.Get(&c.east_mps, &c.north_mps)) return corrupt();
    recent_velocities.push_back(c);
  }
  if (!r.U64(&n) || n > heading_diffs.capacity() ||
      !r.Fits(n, sizeof(double))) {
    return corrupt();
  }
  for (uint64_t i = 0; i < n; ++i) {
    double d = 0.0;
    if (!r.F64(&d)) return corrupt();
    heading_diffs.push_back(d);
  }
  uint8_t stop_active_u8 = 0;
  if (!r.Get(&stop_count, &stop_first_tau, &stop_sum_lon, &stop_sum_lat,
             &stop_active_u8, &stop_start_tau, &n) ||
      !r.Flag(stop_active_u8, &stop_active) ||
      n > slow_samples.capacity() ||
      !r.Fits(n, 2 * sizeof(double) + sizeof(int64_t))) {
    return corrupt();
  }
  for (uint64_t i = 0; i < n; ++i) {
    SlowSample s;
    if (!r.Get(&s.pos.lon, &s.pos.lat, &s.tau)) return corrupt();
    slow_samples.push_back(s);
  }
  uint8_t slow_active_u8 = 0, gap_open_u8 = 0;
  int32_t outliers = 0;
  if (!r.Get(&slow_active_u8, &slow_start_tau, &slow_anchor.lon,
             &slow_anchor.lat, &gap_open_u8, &gap_start_tau, &outliers,
             &accepted_count, &odometer_m) ||
      !r.Flag(slow_active_u8, &slow_active) ||
      !r.Flag(gap_open_u8, &gap_open)) {
    return corrupt();
  }
  consecutive_outliers = outliers;
  // An open stop or slow-motion episode holds samples, the first no later
  // than the last report, so closing it there has a position and a
  // duration; an open gap started at the last report.
  const auto opened_by_last = [this](Timestamp start) {
    Duration duration = 0;
    return start <= last.tau &&
           !__builtin_sub_overflow(last.tau, start, &duration);
  };
  if ((stop_active && (stop_count == 0 || !opened_by_last(stop_start_tau))) ||
      (slow_active &&
       (slow_samples.empty() || !opened_by_last(slow_start_tau))) ||
      (gap_open && gap_start_tau != last.tau)) {
    return snapshot::CorruptionIn("vessel state (open episode)");
  }
  const geo::TrackPoint trig(last.pos);
  last_sin_lat = trig.sin_phi;
  last_cos_lat = trig.cos_phi;
  return Status::OK();
}

}  // namespace maritime::tracker
