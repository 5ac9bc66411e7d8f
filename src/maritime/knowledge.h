#ifndef MARITIME_MARITIME_KNOWLEDGE_H_
#define MARITIME_MARITIME_KNOWLEDGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/polygon.h"
#include "geo/spatial_index.h"
#include "stream/position.h"

namespace maritime::surveillance {

/// Kinds of geographic areas the CE definitions reason about (paper
/// Section 4: protected areas, forbidden fishing areas, shallow waters) plus
/// port polygons used by trajectory semantic enrichment (Section 3.2).
enum class AreaKind : uint8_t {
  kProtected,         ///< Marine parks etc. — illegalShipping targets.
  kForbiddenFishing,  ///< illegalFishing targets.
  kShallow,           ///< dangerousShipping targets.
  kPort,              ///< Trip segmentation anchors (not a CE target).
};

std::string_view AreaKindName(AreaKind kind);

/// Static description of one area of interest.
struct AreaInfo {
  int32_t id = -1;
  std::string name;
  AreaKind kind = AreaKind::kProtected;
  geo::Polygon polygon;
  /// Water depth in meters; meaningful for kShallow areas.
  double depth_m = 0.0;
};

/// Vessel classes (coarse ITU ship-type buckets).
enum class VesselType : uint8_t {
  kCargo,
  kTanker,
  kPassenger,
  kFishing,
  kPleasure,
  kOther,
};

std::string_view VesselTypeName(VesselType type);

/// Maps an ITU-R M.1371 ship-type code (as carried by AIS message types 5
/// and 19) onto the coarse buckets above: 30 → fishing, 36/37 → pleasure,
/// 60–69 → passenger, 70–79 → cargo, 80–89 → tanker, everything else other.
VesselType VesselTypeFromAisCode(int ship_type_code);

/// Static per-vessel data correlated with the event stream (paper: "static
/// data expressing vessel characteristics (type, tonnage, cargo, etc.)").
struct VesselInfo {
  stream::Mmsi mmsi = 0;
  std::string name;
  VesselType type = VesselType::kOther;
  double draft_m = 0.0;       ///< Loaded draft, for shallow-water checks.
  bool fishing_gear = false;  ///< Registered fishing vessel.
};

/// The static geographical and vessel knowledge the CE recognition module
/// correlates with the ME stream. Lookup of areas near a point goes through
/// a spatial index (our equivalent of RTEC's "declarations" facility that
/// restricts CE computation to relevant areas).
class KnowledgeBase {
 public:
  /// `close_threshold_m` is the distance bound of the `close(Lon,Lat,Area)`
  /// predicate: a point is close to an area when its Haversine distance to
  /// the polygon is below the threshold (0 inside the polygon).
  explicit KnowledgeBase(double close_threshold_m = 1000.0);

  void AddArea(AreaInfo area);
  void AddVessel(VesselInfo vessel);

  /// Merges static data learned from the stream (an AIS type 5 message)
  /// into the registry: creates the vessel if unknown, otherwise updates
  /// name/type/draft. Crew-entered voyage fields (destination, ETA) are
  /// deliberately ignored — the paper found them unreliable; trip
  /// destinations are derived from port stops instead (Section 3.2).
  void UpsertVesselStatic(stream::Mmsi mmsi, const std::string& name,
                          VesselType type, double draft_m);

  const std::vector<AreaInfo>& areas() const { return areas_; }
  const AreaInfo* FindArea(int32_t id) const;
  const VesselInfo* FindVessel(stream::Mmsi mmsi) const;
  size_t vessel_count() const { return vessels_.size(); }
  double close_threshold_m() const { return close_threshold_m_; }

  /// The atemporal `close` predicate of the paper's rule-sets.
  bool Close(const geo::GeoPoint& p, int32_t area_id) const;

  /// Ids of all areas (optionally restricted to `kind`) close to `p`,
  /// sorted ascending.
  std::vector<int32_t> AreasCloseTo(const geo::GeoPoint& p) const;
  std::vector<int32_t> AreasCloseTo(const geo::GeoPoint& p,
                                    AreaKind kind) const;
  /// Capacity-reusing variant (`out` is cleared first): callers probing many
  /// positions — the engine's vessel→area dependency projector walks every
  /// coord fix in force — keep one scratch buffer instead of allocating a
  /// result vector per fix.
  void AreasCloseTo(const geo::GeoPoint& p, std::vector<int32_t>* out) const;

  /// True iff at least one area of `kind` is close to `p` (the
  /// "away from every port" test of the rule-sets, without materializing
  /// the id list).
  bool AnyAreaCloseTo(const geo::GeoPoint& p, AreaKind kind) const;

  /// Point-in-polygon test for one area (false for unknown ids).
  bool InsideArea(const geo::GeoPoint& p, int32_t area_id) const;

  /// The `fishing` predicate: database fact, or inferred from vessel type
  /// when the vessel is not registered (paper Scenario 2).
  bool IsFishing(stream::Mmsi mmsi) const;

  /// The `shallow(Area, Vessel)` predicate: the area's waters are too
  /// shallow for the vessel given its draft plus an under-keel clearance
  /// (paper Scenario 4).
  bool IsShallowFor(int32_t area_id, stream::Mmsi mmsi) const;

  /// The lowest-id port area whose polygon contains `p` (for trip
  /// segmentation); deterministic even when port polygons overlap.
  const AreaInfo* PortContaining(const geo::GeoPoint& p) const;

  /// Builds a copy containing only the given areas, in the given order, and
  /// a copy of the vessel registry taken now; used to partition CE
  /// recognition across processors (paper Section 5.2). The band shares this
  /// KB's spatial index instead of rebuilding one, and drops the ids it
  /// does not hold from every index answer, so it answers exactly as a KB
  /// built from those areas alone.
  KnowledgeBase Restricted(const std::vector<int32_t>& area_ids) const;

  /// Under-keel clearance margin used by IsShallowFor (meters).
  static constexpr double kUnderKeelClearanceM = 1.0;

 private:
  /// A KB answering through `spatial` (a band cut by Restricted).
  KnowledgeBase(double close_threshold_m,
                std::shared_ptr<geo::SpatialIndex> spatial);

  double close_threshold_m_;
  std::vector<AreaInfo> areas_;
  std::unordered_map<int32_t, size_t> area_index_;
  std::unordered_map<stream::Mmsi, VesselInfo> vessels_;
  /// Answers every spatial predicate. Shared with the bands cut by
  /// Restricted and with copies of this KB, and never mutated while shared:
  /// AddArea copies it first, or on a band builds one of the band's areas.
  std::shared_ptr<geo::SpatialIndex> spatial_;

  /// True when the index holds areas this KB does not (a band): index
  /// answers must then drop the ids FindArea does not know.
  bool IndexHoldsOtherAreas() const {
    return spatial_->polygon_count() != area_index_.size();
  }
  /// Drops the ids this KB does not hold from a sorted index answer.
  void DropOtherAreas(std::vector<int32_t>* ids) const;
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_KNOWLEDGE_H_
