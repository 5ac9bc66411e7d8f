#ifndef MARITIME_MOD_TRIPS_H_
#define MARITIME_MOD_TRIPS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "maritime/knowledge.h"
#include "tracker/critical_point.h"

namespace maritime::snapshot {
class Reader;
class Writer;
}  // namespace maritime::snapshot

namespace maritime::mod {

/// A reconstructed trip between ports: the semantic trajectory unit of paper
/// Section 3.2. A long journey breaks into smaller trips between ports, so
/// the MOD deals with many small segments instead of one ever-growing
/// trajectory per vessel; only the last (open) segment receives updates.
struct Trip {
  stream::Mmsi mmsi = 0;
  int32_t origin_port = -1;  ///< -1 when unknown (vessel already under way
                             ///< when its signals were first received).
  int32_t destination_port = -1;
  /// In arrival order, from the first point (at start_tau) to the stop end
  /// that closed the trip. Not sorted by tau: a retroactive stop or
  /// slow-motion start arrives after points later than it.
  std::vector<tracker::CriticalPoint> points;
  Timestamp start_tau = 0;
  Timestamp end_tau = 0;
  double distance_m = 0.0;  ///< Along-track length of the compressed path.

  Duration TravelTime() const { return end_tau - start_tau; }
};

/// Incrementally segments per-vessel critical-point sequences into trips.
///
/// Semantic enrichment (paper Section 3.2): AIS voyage data is unreliable,
/// so destinations are derived automatically — a long-term stop located
/// inside a known port polygon closes the current segment as a trip with
/// that port as destination; the next segment inherits it as origin.
/// Critical points of a vessel that has not yet reached a port stay pending
/// ("piling up in the staging table awaiting assignment to a trajectory").
class TripBuilder {
 public:
  /// `kb` provides the port polygons; must outlive the builder.
  /// `min_trip_distance_m` filters out degenerate "trips" produced by
  /// repeated stops inside the same port basin.
  explicit TripBuilder(const surveillance::KnowledgeBase* kb,
                       double min_trip_distance_m = 1000.0);

  /// Consumes one critical point (per vessel, in tau order); any trip it
  /// completes is appended to `out`.
  void Add(const tracker::CriticalPoint& cp, std::vector<Trip>* out);

  /// Number of critical points pending in open (unassigned) segments.
  size_t pending_points() const;

  /// Number of vessels with an open segment.
  size_t open_segments() const { return segments_.size(); }

  // --- checkpointing -------------------------------------------------------
  /// Serializes every open segment, in ascending MMSI order (format v1).
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a builder with the same trip-distance threshold
  /// (InvalidArgument otherwise). On error the builder is left empty.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  struct OpenSegment {
    int32_t origin_port = -1;
    std::vector<tracker::CriticalPoint> points;
    double distance_m = 0.0;
  };

  const surveillance::KnowledgeBase* kb_;
  double min_trip_distance_m_;
  std::unordered_map<stream::Mmsi, OpenSegment> segments_;
};

}  // namespace maritime::mod

#endif  // MARITIME_MOD_TRIPS_H_
