#ifndef MARITIME_TRACKER_VESSEL_STATE_H_
#define MARITIME_TRACKER_VESSEL_STATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "geo/velocity.h"
#include "snapshot/codec.h"
#include "stream/position.h"

namespace maritime::tracker {

/// Fixed-capacity FIFO ring over slots its owner allocates once: pushing
/// onto a full ring overwrites its oldest element, so a vessel's history
/// never allocates after the vessel is first seen. The ring does not own
/// its slots (VesselState keeps its three rings' slots in one block).
template <typename T>
class Ring {
 public:
  Ring() = default;
  /// A ring over the `capacity` slots at `slots`, which must outlive it.
  Ring(T* slots, size_t capacity)
      : slots_(slots), capacity_(static_cast<uint32_t>(capacity)) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  void push_back(const T& value) {
    if (capacity_ == 0) return;
    if (size_ < capacity_) {
      slots_[Slot(size_)] = value;
      ++size_;
    } else {
      slots_[head_] = value;
      head_ = Slot(1);
    }
  }

  /// Element `i`, counting from the oldest (0) to the newest (size() - 1).
  const T& operator[](size_t i) const { return slots_[Slot(i)]; }
  const T& front() const { return (*this)[0]; }

 private:
  uint32_t Slot(size_t i) const {
    const auto j = static_cast<uint32_t>(head_ + i);
    return j >= capacity_ ? j - capacity_ : j;
  }

  T* slots_ = nullptr;
  uint32_t capacity_ = 0;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
};

/// A slow-motion sample: the position and time of one accepted report.
struct SlowSample {
  geo::GeoPoint pos;
  Timestamp tau = 0;
};

/// Per-vessel in-memory movement state maintained by the mobility tracker.
/// The tracker works "entirely in main memory and without any index support"
/// (paper Section 2); each vessel's state is O(m) in the number of inspected
/// recent positions, held in three rings of capacity m (DESIGN.md §15).
struct VesselState {
  VesselState() = default;
  /// A vessel whose rings hold the last `history_size` (m) samples. The
  /// three rings share one allocation.
  VesselState(stream::Mmsi id, size_t history_size);

  stream::Mmsi mmsi = 0;

  // --- latest accepted sample -------------------------------------------
  bool has_last = false;
  stream::PositionTuple last;
  /// Trig of last.pos.lat, evaluated when the sample was accepted; the next
  /// step's distance and bearing reuse it.
  double last_sin_lat = 0.0;
  double last_cos_lat = 1.0;

  /// Makes `t` (at `p`, its position with trig) the latest accepted sample.
  void Accept(const stream::PositionTuple& t, const geo::TrackPoint& p) {
    has_last = true;
    last = t;
    last_sin_lat = p.sin_phi;
    last_cos_lat = p.cos_phi;
    ++accepted_count;
  }
  /// `last.pos` with its trig.
  geo::TrackPoint LastPoint() const {
    geo::TrackPoint p;
    p.pos = last.pos;
    p.sin_phi = last_sin_lat;
    p.cos_phi = last_cos_lat;
    return p;
  }

  // --- instantaneous velocity -------------------------------------------
  bool has_velocity = false;
  geo::Velocity v_prev;  ///< Velocity implied by the two latest positions.

  /// Components of the last m velocities, cached when pushed (for the mean
  /// velocity v_m used in off-course detection).
  Ring<geo::VelocityComponents> recent_velocities;

  /// The last m signed heading changes (for smooth-turn detection).
  Ring<double> heading_diffs;

  // --- long-term stop tracking ------------------------------------------
  /// Running aggregates over the consecutive pause samples that are
  /// candidates for / members of a stop episode: their count, the first
  /// one's τ, and their coordinate sums, added in arrival order.
  uint64_t stop_count = 0;
  Timestamp stop_first_tau = kInvalidTimestamp;
  double stop_sum_lon = 0.0;
  double stop_sum_lat = 0.0;
  bool stop_active = false;
  Timestamp stop_start_tau = kInvalidTimestamp;

  // --- slow-motion tracking ---------------------------------------------
  /// The last m slow-motion samples.
  Ring<SlowSample> slow_samples;
  bool slow_active = false;
  Timestamp slow_start_tau = kInvalidTimestamp;
  /// Last emitted shape waypoint of the active slow-motion episode.
  geo::GeoPoint slow_anchor;

  // --- communication-gap tracking ---------------------------------------
  bool gap_open = false;
  Timestamp gap_start_tau = kInvalidTimestamp;

  // --- outlier tracking ---------------------------------------------------
  int consecutive_outliers = 0;

  uint64_t accepted_count = 0;

  /// Cumulative traveled distance since the first accepted position (a
  /// feature the paper lists as future work in Section 3.1). Distance over
  /// silent periods is counted as the straight line between the bracketing
  /// reports, so the value is a lower bound while gaps occur.
  double odometer_m = 0.0;

  /// Adds a pause sample to the stop aggregates.
  void AddStopSample(const stream::PositionTuple& t) {
    if (stop_count == 0) stop_first_tau = t.tau;
    ++stop_count;
    stop_sum_lon += t.pos.lon;
    stop_sum_lat += t.pos.lat;
  }
  /// Centroid of the stop samples. Precondition: stop_count > 0.
  geo::GeoPoint StopCentroid() const {
    const double n = static_cast<double>(stop_count);
    return geo::GeoPoint{stop_sum_lon / n, stop_sum_lat / n};
  }
  void ClearStopSamples() {
    stop_count = 0;
    stop_first_tau = kInvalidTimestamp;
    stop_sum_lon = 0.0;
    stop_sum_lat = 0.0;
  }

  /// Drops velocity history and open episodes (used after gaps and outlier
  /// resets, when the recent course is no longer trustworthy). Keeps `last`.
  void ResetMotionState();

  // --- checkpointing ------------------------------------------------------
  /// Serializes every field (format v2, framed by the owning tracker).
  void SaveTo(snapshot::Writer& w) const;
  /// Overwrites the dynamic fields from `r`, written by SaveTo; the mmsi and
  /// ring capacities are kept. Corruption on malformed input, including a
  /// flag byte other than 0/1 and a ring count above the ring's capacity;
  /// the state is unspecified after an error (the owning tracker discards
  /// it).
  Status RestoreFrom(snapshot::Reader& r);

 private:
  /// The slots of recent_velocities, heading_diffs and slow_samples, back
  /// to back. Moving a VesselState moves the block, not the slots, so the
  /// rings stay valid.
  std::unique_ptr<std::byte[]> ring_slots_;
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_VESSEL_STATE_H_
