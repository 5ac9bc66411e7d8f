#include "mod/store.h"

#include <algorithm>

#include "common/strings.h"

namespace maritime::mod {

std::string TripStatistics::ToString() const {
  std::string out;
  out += StrPrintf("Critical points in reconstructed trajectories  %llu\n",
                   static_cast<unsigned long long>(points_in_trips));
  out += StrPrintf("Critical points remaining in staging area      %llu\n",
                   static_cast<unsigned long long>(staged_points));
  out += StrPrintf("Number of trips between ports                  %llu\n",
                   static_cast<unsigned long long>(trip_count));
  out += StrPrintf("Average trips per vessel                       %.1f\n",
                   avg_trips_per_vessel);
  out += StrPrintf("Average number of critical points per trip     %.1f\n",
                   avg_points_per_trip);
  out += StrPrintf("Average travel time per trip                   %s\n",
                   FormatDuration(avg_travel_time).c_str());
  out += StrPrintf("Average traveled distance per trip             %.3fkm\n",
                   avg_distance_m / 1000.0);
  return out;
}

void TrajectoryStore::AddTrip(Trip trip) { trips_.push_back(std::move(trip)); }

std::vector<const Trip*> TrajectoryStore::TripsOfVessel(
    stream::Mmsi mmsi) const {
  std::vector<const Trip*> out;
  for (const Trip& t : trips_) {
    if (t.mmsi == mmsi) out.push_back(&t);
  }
  return out;
}

std::vector<const Trip*> TrajectoryStore::TripsTo(int32_t port) const {
  std::vector<const Trip*> out;
  for (const Trip& t : trips_) {
    if (t.destination_port == port) out.push_back(&t);
  }
  return out;
}

std::vector<const Trip*> TrajectoryStore::TripsOverlapping(
    Timestamp from, Timestamp to) const {
  std::vector<const Trip*> out;
  for (const Trip& t : trips_) {
    if (t.start_tau <= to && t.end_tau >= from) out.push_back(&t);
  }
  return out;
}

std::map<std::pair<int32_t, int32_t>, OdCell>
TrajectoryStore::OriginDestinationMatrix() const {
  std::map<std::pair<int32_t, int32_t>, OdCell> out;
  for (const Trip& t : trips_) {
    OdCell& cell = out[{t.origin_port, t.destination_port}];
    ++cell.trips;
    cell.total_travel_time =
        SaturatingAdd(cell.total_travel_time, t.TravelTime());
    cell.total_distance_m += t.distance_m;
  }
  return out;
}

TripStatistics TrajectoryStore::ComputeStatistics(
    uint64_t staged_points) const {
  TripStatistics s;
  s.staged_points = staged_points;
  s.trip_count = trips_.size();
  Duration total_time = 0;
  double total_distance = 0.0;
  for (const Trip& t : trips_) {
    s.points_in_trips += t.points.size();
    total_time = SaturatingAdd(total_time, t.TravelTime());
    total_distance += t.distance_m;
  }
  if (!trips_.empty()) {
    const double n = static_cast<double>(trips_.size());
    s.avg_points_per_trip = static_cast<double>(s.points_in_trips) / n;
    s.avg_travel_time = total_time / static_cast<Duration>(trips_.size());
    s.avg_distance_m = total_distance / n;
  }
  if (!trips_.empty()) {
    std::vector<stream::Mmsi> vessels;
    vessels.reserve(trips_.size());
    for (const Trip& t : trips_) vessels.push_back(t.mmsi);
    std::sort(vessels.begin(), vessels.end());
    const auto distinct = static_cast<double>(
        std::unique(vessels.begin(), vessels.end()) - vessels.begin());
    s.avg_trips_per_vessel = static_cast<double>(trips_.size()) / distinct;
  }
  return s;
}

}  // namespace maritime::mod
