// Checkpoint serialization of the offline MOD layer: trip builder segments,
// the trajectory store, and the Hermes archival path. Each record reads the
// format its SaveTo writes; the archiver also reads the fixture's v1
// (DESIGN.md §9).

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
// write different bytes. v1 still restores, its readings discarded, because
// the committed fixture tests/data/checkpoint_6_slides.msnp holds it.
constexpr uint8_t kArchiverFormatVersion = 2;
constexpr uint8_t kArchiverOldestVersion = 1;

using tracker::kCriticalPointBytes;
// Minimum encoded size of a trip and of an open segment (no points).
constexpr size_t kTripBytes =
    3 * sizeof(int32_t) + 3 * sizeof(int64_t) + sizeof(double);
constexpr size_t kSegmentBytes =
    sizeof(uint32_t) + sizeof(int32_t) + sizeof(uint64_t) + sizeof(double);

void SaveCriticalPoints(const std::vector<tracker::CriticalPoint>& pts,
                        snapshot::Writer& w) {
  w.U64(pts.size());
  for (const auto& cp : pts) tracker::SaveCriticalPoint(cp, w);
}

// `n` points onto the end of `pts`, whichever sequence holds them.
template <typename Points>
bool AppendCriticalPoints(snapshot::Reader& r, uint64_t n, Points* pts) {
  for (uint64_t i = 0; i < n; ++i) {
    if (!tracker::LoadCriticalPoint(r, &pts->emplace_back())) return false;
  }
  return true;
}

// A counted list of points into `pts` (empty), reserved to its count.
bool LoadCriticalPoints(snapshot::Reader& r,
                        std::vector<tracker::CriticalPoint>* pts) {
  uint64_t n = 0;
  if (!r.Count(&n, kCriticalPointBytes)) return false;
  pts->reserve(n);
  return AppendCriticalPoints(r, n, pts);
}

void SaveTrip(const Trip& t, snapshot::Writer& w) {
  w.Put(t.mmsi, t.origin_port, t.destination_port);
  SaveCriticalPoints(t.points, w);
  w.Put(t.start_tau, t.end_tau, t.distance_m);
}

// Into `t`, a freshly emplaced trip, one TripBuilder::Add can make: two
// points or more, from the first point's τ to no later than the last's (the
// stop end that closed it), with a travel time a Duration holds. The points
// are in arrival order, which is not τ order (Trip::points).
bool LoadTrip(snapshot::Reader& r, Trip* t) {
  if (!r.Get(&t->mmsi, &t->origin_port, &t->destination_port) ||
      !LoadCriticalPoints(r, &t->points) ||
      !r.Get(&t->start_tau, &t->end_tau, &t->distance_m)) {
    return false;
  }
  Duration travel = 0;
  return t->points.size() >= 2 && t->start_tau == t->points.front().tau &&
         t->start_tau <= t->end_tau && t->end_tau <= t->points.back().tau &&
         !__builtin_sub_overflow(t->end_tau, t->start_tau, &travel);
}

// A counted list of trips onto the end of `trips` (empty), each read in
// place.
template <typename Trips>
bool LoadTrips(snapshot::Reader& r, Trips* trips) {
  uint64_t n = 0;
  if (!r.Count(&n, kTripBytes)) return false;
  if constexpr (requires { trips->reserve(n); }) trips->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!LoadTrip(r, &trips->emplace_back())) return false;
  }
  return true;
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
  if (const Status s = snapshot::ReadVersion(r, kTripBuilderFormatVersion,
                                             "trip builder");
      !s.ok()) {
    return s;
  }
  double threshold = 0.0;
  if (!r.F64(&threshold)) return fail();
  if (threshold != min_trip_distance_m_) {
    return Status::InvalidArgument(
        "snapshot: trip builder distance threshold mismatch");
  }
  uint64_t n = 0;
  if (!r.Count(&n, kSegmentBytes)) return fail();
  segments_.reserve(n);
  stream::Mmsi prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    stream::Mmsi mmsi = 0;
    int32_t origin = 0;
    // SaveTo writes each vessel once, in ascending MMSI order.
    if (!r.Get(&mmsi, &origin) || (i > 0 && mmsi <= prev)) return fail();
    prev = mmsi;
    OpenSegment& seg = segments_.try_emplace(mmsi).first->second;
    seg.origin_port = origin;
    if (!LoadCriticalPoints(r, &seg.points) || !r.F64(&seg.distance_m)) {
      return fail();
    }
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
  const auto fail = [this] {
    trips_.clear();
    return snapshot::CorruptionIn("trajectory store");
  };
  if (const Status s =
          snapshot::ReadVersion(r, kStoreFormatVersion, "trajectory store");
      !s.ok()) {
    return s;
  }
  if (!LoadTrips(r, &trips_)) return fail();
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
  if (const Status s =
          snapshot::ReadVersion(r, kArchiverOldestVersion,
                                kArchiverFormatVersion, "archiver", &version);
      !s.ok()) {
    return s;
  }
  if (const Status s = builder_.RestoreFrom(r); !s.ok()) return s;
  uint64_t n = 0;
  if (!r.Count(&n, kCriticalPointBytes) ||
      !AppendCriticalPoints(r, n, &staging_)) {
    return fail();
  }
  if (!LoadTrips(r, &reconstructed_)) return fail();
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
