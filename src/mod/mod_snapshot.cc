// Checkpoint serialization of the offline MOD layer: trip builder segments,
// the trajectory store, and the Hermes archival path.

#include <vector>

#include "mod/hermes.h"
#include "mod/store.h"
#include "mod/trips.h"
#include "snapshot/codec.h"
#include "tracker/snapshot_io.h"

namespace maritime::mod {
namespace {

constexpr uint8_t kTripBuilderFormatVersion = 1;
constexpr uint8_t kStoreFormatVersion = 1;
// v2 dropped the three phase timers: wall-clock readings made the same run
// write different bytes. v1 snapshots still restore; their readings are
// discarded.
constexpr uint8_t kArchiverFormatVersion = 2;

// Minimum encoded size of a critical point, for hostile-count validation.
constexpr size_t kCriticalPointBytes =
    2 * sizeof(uint32_t) + 2 * sizeof(int64_t) + 4 * sizeof(double);

void SaveCriticalPoints(const std::vector<tracker::CriticalPoint>& pts,
                        snapshot::Writer& w) {
  w.U64(pts.size());
  for (const auto& cp : pts) tracker::SaveCriticalPoint(cp, w);
}

bool LoadCriticalPoints(snapshot::Reader& r,
                        std::vector<tracker::CriticalPoint>* pts) {
  uint64_t n = 0;
  if (!r.Count(&n, kCriticalPointBytes)) return false;
  pts->clear();
  pts->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    tracker::CriticalPoint cp;
    if (!tracker::LoadCriticalPoint(r, &cp)) return false;
    pts->push_back(cp);
  }
  return true;
}

void SaveTrip(const Trip& t, snapshot::Writer& w) {
  w.Put(t.mmsi, t.origin_port, t.destination_port);
  SaveCriticalPoints(t.points, w);
  w.Put(t.start_tau, t.end_tau, t.distance_m);
}

bool LoadTrip(snapshot::Reader& r, Trip* t) {
  return r.U32(&t->mmsi) && r.I32(&t->origin_port) &&
         r.I32(&t->destination_port) && LoadCriticalPoints(r, &t->points) &&
         r.I64(&t->start_tau) && r.I64(&t->end_tau) && r.F64(&t->distance_m);
}

}  // namespace

void TripBuilder::SaveTo(snapshot::Writer& w) const {
  w.Put(kTripBuilderFormatVersion, min_trip_distance_m_,
        uint64_t{segments_.size()});
  for (const auto* entry : snapshot::SortedEntries(segments_)) {
    const auto& [mmsi, seg] = *entry;
    w.Put(mmsi, seg.origin_port);
    SaveCriticalPoints(seg.points, w);
    w.F64(seg.distance_m);
  }
}

Status TripBuilder::RestoreFrom(snapshot::Reader& r) {
  segments_.clear();
  const auto fail = [this] {
    segments_.clear();
    return snapshot::CorruptionIn("trip builder");
  };
  uint8_t version = 0;
  if (!r.U8(&version)) return fail();
  if (version > kTripBuilderFormatVersion) {
    return snapshot::VersionError("trip builder");
  }
  double threshold = 0.0;
  if (!r.F64(&threshold)) return fail();
  if (threshold != min_trip_distance_m_) {
    return Status::InvalidArgument(
        "snapshot: trip builder distance threshold mismatch");
  }
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t) + sizeof(int32_t) + sizeof(uint64_t) +
                       sizeof(double))) {
    return fail();
  }
  for (uint64_t i = 0; i < n; ++i) {
    stream::Mmsi mmsi = 0;
    OpenSegment seg;
    if (!r.U32(&mmsi) || !r.I32(&seg.origin_port) ||
        !LoadCriticalPoints(r, &seg.points) || !r.F64(&seg.distance_m)) {
      return fail();
    }
    segments_[mmsi] = std::move(seg);
  }
  return Status::OK();
}

void TrajectoryStore::SaveTo(snapshot::Writer& w) const {
  w.U8(kStoreFormatVersion);
  w.U64(trips_.size());
  for (const Trip& t : trips_) SaveTrip(t, w);
}

Status TrajectoryStore::RestoreFrom(snapshot::Reader& r) {
  trips_.clear();
  by_vessel_.clear();
  by_destination_.clear();
  const auto fail = [this] {
    trips_.clear();
    by_vessel_.clear();
    by_destination_.clear();
    return snapshot::CorruptionIn("trajectory store");
  };
  uint8_t version = 0;
  if (!r.U8(&version)) return fail();
  if (version > kStoreFormatVersion) {
    return snapshot::VersionError("trajectory store");
  }
  uint64_t n = 0;
  if (!r.Count(&n, 3 * sizeof(int32_t) + 3 * sizeof(int64_t) +
                       sizeof(double))) {
    return fail();
  }
  for (uint64_t i = 0; i < n; ++i) {
    Trip t;
    if (!LoadTrip(r, &t)) return fail();
    AddTrip(std::move(t));  // rebuilds by_vessel_/by_destination_
  }
  return Status::OK();
}

void HermesArchiver::SaveTo(snapshot::Writer& w) const {
  w.U8(kArchiverFormatVersion);
  builder_.SaveTo(w);
  w.U64(staging_.size());
  for (const auto& cp : staging_) tracker::SaveCriticalPoint(cp, w);
  w.U64(reconstructed_.size());
  for (const Trip& t : reconstructed_) SaveTrip(t, w);
  store_.SaveTo(w);
  w.U64(timings_.batches);
}

Status HermesArchiver::RestoreFrom(snapshot::Reader& r) {
  staging_.clear();
  reconstructed_.clear();
  timings_ = ArchiveTimings{};
  const auto fail = [this] {
    staging_.clear();
    reconstructed_.clear();
    timings_ = ArchiveTimings{};
    return snapshot::CorruptionIn("archiver");
  };
  uint8_t version = 0;
  if (!r.U8(&version)) return fail();
  if (version > kArchiverFormatVersion) {
    return snapshot::VersionError("archiver");
  }
  if (const Status s = builder_.RestoreFrom(r); !s.ok()) return s;
  uint64_t n = 0;
  if (!r.Count(&n, kCriticalPointBytes)) return fail();
  for (uint64_t i = 0; i < n; ++i) {
    tracker::CriticalPoint cp;
    if (!tracker::LoadCriticalPoint(r, &cp)) return fail();
    staging_.push_back(cp);
  }
  if (!r.Count(&n, 3 * sizeof(int32_t) + 3 * sizeof(int64_t) +
                       sizeof(double))) {
    return fail();
  }
  reconstructed_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Trip t;
    if (!LoadTrip(r, &t)) return fail();
    reconstructed_.push_back(std::move(t));
  }
  if (const Status s = store_.RestoreFrom(r); !s.ok()) return s;
  // Phase times are this process's own measurement, so they restart at
  // zero; only the batch count is durable state.
  double v1_seconds[3] = {};
  if (version < 2 && (!r.F64(&v1_seconds[0]) || !r.F64(&v1_seconds[1]) ||
                      !r.F64(&v1_seconds[2]))) {
    return fail();
  }
  if (!r.U64(&timings_.batches)) return fail();
  return Status::OK();
}

}  // namespace maritime::mod
