#ifndef MARITIME_MOD_STORE_H_
#define MARITIME_MOD_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "mod/trips.h"

namespace maritime::mod {

/// Summary statistics over the archived trips — the contents of paper
/// Table 4.
struct TripStatistics {
  uint64_t points_in_trips = 0;    ///< Critical points in reconstructed trips.
  uint64_t staged_points = 0;      ///< Critical points still in staging.
  uint64_t trip_count = 0;
  double avg_trips_per_vessel = 0.0;
  double avg_points_per_trip = 0.0;
  Duration avg_travel_time = 0;
  double avg_distance_m = 0.0;

  std::string ToString() const;
};

/// One cell of the Origin–Destination matrix (paper Section 3.3): aggregate
/// itinerary statistics between a pair of ports.
struct OdCell {
  uint64_t trips = 0;
  Duration total_travel_time = 0;  ///< Held at the Duration limits.
  double total_distance_m = 0.0;

  Duration AvgTravelTime() const {
    return trips == 0 ? 0 : total_travel_time / static_cast<Duration>(trips);
  }
  double AvgDistanceM() const {
    return trips == 0 ? 0.0 : total_distance_m / static_cast<double>(trips);
  }
};

/// The trajectory archive of the Hermes MOD substitute: stores reconstructed
/// trips and answers the offline queries of paper Section 3.3 (per-vessel
/// histories, port connectivity, Origin–Destination aggregates, time-range
/// retrieval).
class TrajectoryStore {
 public:
  void AddTrip(Trip trip);

  const std::deque<Trip>& trips() const { return trips_; }
  size_t trip_count() const { return trips_.size(); }

  /// The trips of one vessel, in insertion (time) order. A scan of the
  /// archive: offline queries are rare and the archive is append-only.
  std::vector<const Trip*> TripsOfVessel(stream::Mmsi mmsi) const;

  /// Trips arriving at `port`, in insertion order (a scan, as above).
  std::vector<const Trip*> TripsTo(int32_t port) const;

  /// Trips overlapping the time interval [from, to].
  std::vector<const Trip*> TripsOverlapping(Timestamp from, Timestamp to) const;

  /// Origin–Destination matrix keyed (origin, destination); unknown origins
  /// appear under key -1.
  std::map<std::pair<int32_t, int32_t>, OdCell> OriginDestinationMatrix()
      const;

  /// Table 4 statistics; `staged_points` comes from the staging area.
  TripStatistics ComputeStatistics(uint64_t staged_points) const;

  // --- checkpointing -------------------------------------------------------
  /// Serializes the trips in insertion order (format v1).
  void SaveTo(snapshot::Writer& w) const;
  /// Replaces the store contents. On error the store is left empty.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  /// Deque, not vector: TripsOfVessel/TripsTo/TripsOverlapping hand out
  /// pointers into this container, which must survive later AddTrip calls
  /// (std::deque never relocates existing elements on push_back).
  std::deque<Trip> trips_;
};

}  // namespace maritime::mod

#endif  // MARITIME_MOD_STORE_H_
