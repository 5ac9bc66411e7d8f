#ifndef MARITIME_STREAM_SNAPSHOT_IO_H_
#define MARITIME_STREAM_SNAPSHOT_IO_H_

#include "geo/snapshot_io.h"
#include "snapshot/codec.h"
#include "stream/position.h"

namespace maritime::stream {

inline void SavePositionTuple(const PositionTuple& p, snapshot::Writer& w) {
  w.U32(p.mmsi);
  geo::SaveGeoPoint(p.pos, w);
  w.I64(p.tau);
}

inline bool LoadPositionTuple(snapshot::Reader& r, PositionTuple* p) {
  return r.U32(&p->mmsi) && geo::LoadGeoPoint(r, &p->pos) && r.I64(&p->tau);
}

}  // namespace maritime::stream

#endif  // MARITIME_STREAM_SNAPSHOT_IO_H_
