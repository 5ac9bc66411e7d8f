#ifndef MARITIME_TRACKER_SNAPSHOT_IO_H_
#define MARITIME_TRACKER_SNAPSHOT_IO_H_

#include "geo/snapshot_io.h"
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
  return r.U32(&cp->mmsi) && geo::LoadGeoPoint(r, &cp->pos) &&
         r.I64(&cp->tau) && r.U32(&cp->flags) && r.F64(&cp->speed_knots) &&
         r.F64(&cp->heading_deg) && r.I64(&cp->duration);
}

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_SNAPSHOT_IO_H_
