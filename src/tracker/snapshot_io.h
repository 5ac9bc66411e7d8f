#ifndef MARITIME_TRACKER_SNAPSHOT_IO_H_
#define MARITIME_TRACKER_SNAPSHOT_IO_H_

#include "snapshot/codec.h"
#include "tracker/critical_point.h"

namespace maritime::tracker {

/// One record, one bounds check: the window, the trips, the archiver's
/// staging and the trip builder all save critical points through this.
inline void SaveCriticalPoint(const CriticalPoint& cp, snapshot::Writer& w) {
  w.Put(cp.mmsi, cp.pos.lon, cp.pos.lat, cp.tau, cp.flags, cp.speed_knots,
        cp.heading_deg, cp.duration);
}

inline bool LoadCriticalPoint(snapshot::Reader& r, CriticalPoint* cp) {
  return r.Get(&cp->mmsi, &cp->pos.lon, &cp->pos.lat, &cp->tau, &cp->flags,
               &cp->speed_knots, &cp->heading_deg, &cp->duration);
}

/// Encoded size of one critical point, for validating a count of them.
inline constexpr size_t kCriticalPointBytes =
    2 * sizeof(uint32_t) + 2 * sizeof(int64_t) + 4 * sizeof(double);

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_SNAPSHOT_IO_H_
