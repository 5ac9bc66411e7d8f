#ifndef MARITIME_TRACKER_MOBILITY_TRACKER_H_
#define MARITIME_TRACKER_MOBILITY_TRACKER_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "snapshot/codec.h"
#include "stream/position.h"
#include "tracker/critical_point.h"
#include "tracker/params.h"
#include "tracker/vessel_state.h"

namespace maritime::tracker {

/// Counters describing the tracker's filtering behaviour.
struct TrackerStats {
  uint64_t processed = 0;           ///< Tuples fed in.
  uint64_t accepted = 0;            ///< Tuples accepted into vessel state.
  uint64_t stale_discarded = 0;     ///< τ not strictly increasing per vessel.
  uint64_t outliers_discarded = 0;  ///< Off-course positions dropped.
  uint64_t outlier_resets = 0;      ///< Motion-state resets after persistent
                                    ///< deviation.
  uint64_t critical_points = 0;     ///< Critical points emitted.

  /// Compression ratio so far: fraction of raw positions NOT retained as
  /// critical points (paper Figure 9; close to 1 means strong reduction).
  double CompressionRatio() const {
    if (processed == 0) return 0.0;
    return 1.0 - static_cast<double>(critical_points) /
                     static_cast<double>(processed);
  }
};

/// The tracker's off-course test: true when `v_now` (whose components are
/// `c_now`) deviates from v_m, the mean of the `recent` velocities, by more
/// than max(outlier_min_speed_knots, outlier_speed_factor · |v_m|). Never
/// true while fewer than three velocities are known. Exposed for tests.
bool IsOffCourse(const Ring<geo::VelocityComponents>& recent,
                 const geo::Velocity& v_now,
                 const geo::VelocityComponents& c_now,
                 const TrackerParams& params);

/// The Mobility Tracker of paper Section 3: consumes the positional stream,
/// maintains one velocity vector per vessel from its two most recent
/// positions, detects instantaneous trajectory events (pause, speed change,
/// turn, off-course outlier) and long-lasting ones (communication gap,
/// smooth turn, long-term stop, slow motion), and emits annotated critical
/// points.
///
/// Complexity per incoming tuple: O(1) for instantaneous events and gaps
/// (only the two latest positions are examined), O(m) for long-lasting
/// events (m = params.history_size), matching Section 3.1.
///
/// Not thread-safe; partition vessels across instances for parallelism (as
/// the paper does for CE recognition).
class MobilityTracker {
 public:
  explicit MobilityTracker(TrackerParams params = TrackerParams());

  const TrackerParams& params() const { return params_; }

  /// Processes one positional tuple, appending any critical points to `out`.
  /// Tuples must arrive per-vessel in non-decreasing τ order; stale tuples
  /// are counted and dropped (the stream is append-only).
  void Process(const stream::PositionTuple& tuple,
               std::vector<CriticalPoint>* out);

  /// Processes a batch (one window slide's worth of fresh positions), one
  /// tuple at a time.
  void ProcessBatch(std::span<const stream::PositionTuple> batch,
                    std::vector<CriticalPoint>* out);

  /// Advances the tracker clock to `now` (typically a window query time):
  /// detects communication gaps of vessels that have been silent for longer
  /// than ΔT and finalizes episodes interrupted by those gaps.
  void AdvanceTo(Timestamp now, std::vector<CriticalPoint>* out);

  /// Flushes open episodes (stops, slow motions) at end of stream, emitting
  /// their closing critical points at the vessels' last timestamps.
  void Finish(std::vector<CriticalPoint>* out);

  const TrackerStats& stats() const { return stats_; }
  size_t vessel_count() const { return vessels_.size(); }

  /// Drops every vessel and counter: the tracker as constructed.
  void Clear();

  /// Read-only view of a vessel's state; nullptr when unknown. Exposed for
  /// tests and diagnostics.
  const VesselState* FindVessel(stream::Mmsi mmsi) const;

  /// Traveled distance of `mmsi` since its first accepted position, in
  /// meters (0 when unknown). Distance across silent periods counts the
  /// straight line between the bracketing reports. The "traveled distance
  /// from a given origin" feature the paper lists as future work.
  double OdometerMeters(stream::Mmsi mmsi) const {
    const VesselState* vs = FindVessel(mmsi);
    return vs == nullptr ? 0.0 : vs->odometer_m;
  }

  // --- checkpointing ------------------------------------------------------
  /// Serializes every vessel's state plus the counters (format v2). Vessels
  /// are written in ascending MMSI order so identical state yields identical
  /// bytes regardless of the order vessels were first seen.
  void SaveTo(snapshot::Writer& w) const;
  /// Replaces the dynamic state (vessels + counters) from format v1 or v2;
  /// the construction-time params are kept. On error the tracker is left
  /// empty, never half-filled.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  /// The vessel's slot, created (with rings of capacity m) on first sight.
  uint32_t SlotFor(stream::Mmsi mmsi);
  void Emit(const CriticalPoint& cp, std::vector<CriticalPoint>* out);
  /// Coordinate-wise median of the vessel's slow-motion samples.
  geo::GeoPoint SlowMedian(const VesselState& vs);
  /// Closes an active stop episode, emitting kStopEnd.
  void CloseStop(VesselState& vs, stream::Mmsi mmsi, Timestamp end_tau,
                 std::vector<CriticalPoint>* out);
  /// Closes an active slow-motion episode, emitting kSlowMotionEnd.
  void CloseSlowMotion(VesselState& vs, stream::Mmsi mmsi, Timestamp end_tau,
                       std::vector<CriticalPoint>* out);
  /// Updates stop detection with an accepted sample; returns true when the
  /// sample is absorbed into a stop episode (suppressing other annotations).
  bool UpdateStop(VesselState& vs, const stream::PositionTuple& t,
                  double speed_knots, std::vector<CriticalPoint>* out);
  void UpdateSlowMotion(VesselState& vs, const stream::PositionTuple& t,
                        double speed_knots, bool in_stop,
                        std::vector<CriticalPoint>* out);

  TrackerParams params_;
  /// Dense vessel slots in order of first sight, behind an MMSI -> slot
  /// index; slots are never removed.
  std::vector<VesselState> vessels_;
  std::unordered_map<stream::Mmsi, uint32_t> slot_of_;
  std::vector<geo::GeoPoint> median_scratch_;  ///< Reused by SlowMedian.
  TrackerStats stats_;
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_MOBILITY_TRACKER_H_
