#ifndef MARITIME_TRACKER_CRITICAL_POINT_H_
#define MARITIME_TRACKER_CRITICAL_POINT_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/time.h"
#include "geo/geo_point.h"
#include "stream/position.h"

namespace maritime::tracker {

/// Annotations attached to a critical point. A single point may carry
/// several (e.g. a sharp turn that is also a speed change), which is why
/// these are flags rather than an enum.
enum CriticalFlag : uint32_t {
  kFirst = 1u << 0,        ///< First position ever seen for the vessel.
  kGapStart = 1u << 1,     ///< Last position before a communication gap.
  kGapEnd = 1u << 2,       ///< First position after a communication gap.
  kTurn = 1u << 3,         ///< Instantaneous heading change > Δθ.
  kSmoothTurn = 1u << 4,   ///< Cumulative heading change > Δθ.
  kSpeedChange = 1u << 5,  ///< Speed deviated by more than α from previous.
  kStopStart = 1u << 6,    ///< Long-term stop began.
  kStopEnd = 1u << 7,      ///< Long-term stop ended (centroid + duration).
  kSlowMotionStart = 1u << 8,  ///< Slow-motion episode began.
  kSlowMotionEnd = 1u << 9,    ///< Slow-motion episode ended (median point).
  kLast = 1u << 10,            ///< Final position at end of stream (emitted
                               ///< by MobilityTracker::Finish so trajectory
                               ///< reconstruction has a closing anchor).
  kSlowMotionWaypoint = 1u << 11,  ///< Shape waypoint inside a slow-motion
                                   ///< episode, emitted whenever the vessel
                                   ///< has drifted far from the previous
                                   ///< waypoint; keeps the reconstructed
                                   ///< meander faithful without per-sample
                                   ///< turn chatter.
};

/// Human-readable flag list, e.g. "turn|speed_change".
std::string CriticalFlagsToString(uint32_t flags);

/// A "critical point": a salient motion feature retained by the online
/// summarization (paper Section 3). The sequence of critical points per
/// vessel is a concise yet reliable synopsis of its trajectory.
struct CriticalPoint {
  stream::Mmsi mmsi = 0;
  geo::GeoPoint pos;           ///< Representative position (sample, centroid
                               ///< for stops, or median for slow motion).
  Timestamp tau = 0;           ///< Event time.
  uint32_t flags = 0;          ///< OR of CriticalFlag values.
  double speed_knots = 0.0;    ///< Instantaneous speed at emission.
  double heading_deg = 0.0;    ///< Instantaneous heading at emission.
  Duration duration = 0;       ///< For kStopEnd / kSlowMotionEnd / kGapEnd:
                               ///< episode length in seconds.

  bool Has(CriticalFlag f) const { return (flags & f) != 0; }

  friend bool operator==(const CriticalPoint&, const CriticalPoint&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const CriticalPoint& c) {
  return os << "{mmsi=" << c.mmsi << " " << c.pos << " tau=" << c.tau << " ["
            << CriticalFlagsToString(c.flags) << "]}";
}

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_CRITICAL_POINT_H_
