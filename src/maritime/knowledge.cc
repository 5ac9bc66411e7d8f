#include "maritime/knowledge.h"

#include <utility>

namespace maritime::surveillance {

namespace {

/// Per-thread one-entry locality cache shared by all KnowledgeBase spatial
/// queries on that thread. Recognition partitions run concurrently over
/// bands that share one index, so the cache must not live in the (shared)
/// KnowledgeBase itself; a generation stamp keeps it safe to reuse across
/// different SpatialIndex instances on the same thread.
geo::SpatialIndex::Cache& TlsSpatialCache() {
  static thread_local geo::SpatialIndex::Cache cache;
  return cache;
}

/// Scratch id buffer for index queries whose result is not returned to the
/// caller (PortContaining, AnyAreaCloseTo): reusing it avoids an allocation
/// per call. Never held across calls into other KnowledgeBase methods.
std::vector<int32_t>& TlsIdScratch() {
  static thread_local std::vector<int32_t> ids;
  return ids;
}

/// Cell size of the spatial index (~2.2 km): `micro_spatial`'s cell-size
/// axis is flat from 0.005° to 0.02° and degrades at coarser cells.
constexpr double kIndexCellDeg = 0.02;

std::shared_ptr<geo::SpatialIndex> NewIndex(double close_threshold_m) {
  return std::make_shared<geo::SpatialIndex>(
      close_threshold_m, geo::SpatialIndex::Options{.cell_deg = kIndexCellDeg});
}

}  // namespace

std::string_view AreaKindName(AreaKind kind) {
  switch (kind) {
    case AreaKind::kProtected:
      return "protected";
    case AreaKind::kForbiddenFishing:
      return "forbidden_fishing";
    case AreaKind::kShallow:
      return "shallow";
    case AreaKind::kPort:
      return "port";
  }
  return "unknown";
}

std::string_view VesselTypeName(VesselType type) {
  switch (type) {
    case VesselType::kCargo:
      return "cargo";
    case VesselType::kTanker:
      return "tanker";
    case VesselType::kPassenger:
      return "passenger";
    case VesselType::kFishing:
      return "fishing";
    case VesselType::kPleasure:
      return "pleasure";
    case VesselType::kOther:
      return "other";
  }
  return "unknown";
}

KnowledgeBase::KnowledgeBase(double close_threshold_m)
    : KnowledgeBase(close_threshold_m, NewIndex(close_threshold_m)) {}

KnowledgeBase::KnowledgeBase(double close_threshold_m,
                             std::shared_ptr<geo::SpatialIndex> spatial)
    : close_threshold_m_(close_threshold_m), spatial_(std::move(spatial)) {}

void KnowledgeBase::AddArea(AreaInfo area) {
  if (IndexHoldsOtherAreas()) {
    // A band that grows stops sharing: its own index holds its areas only,
    // so an id from another band cannot collide.
    spatial_ = NewIndex(close_threshold_m_);
    for (const AreaInfo& a : areas_) spatial_->Insert(a.id, a.polygon);
  } else if (spatial_.use_count() > 1) {
    spatial_ = std::make_shared<geo::SpatialIndex>(*spatial_);
  }
  spatial_->Insert(area.id, area.polygon);
  area_index_[area.id] = areas_.size();
  areas_.push_back(std::move(area));
}

void KnowledgeBase::AddVessel(VesselInfo vessel) {
  vessels_[vessel.mmsi] = std::move(vessel);
}

VesselType VesselTypeFromAisCode(int code) {
  if (code == 30) return VesselType::kFishing;
  if (code == 36 || code == 37) return VesselType::kPleasure;
  if (code >= 60 && code <= 69) return VesselType::kPassenger;
  if (code >= 70 && code <= 79) return VesselType::kCargo;
  if (code >= 80 && code <= 89) return VesselType::kTanker;
  return VesselType::kOther;
}

void KnowledgeBase::UpsertVesselStatic(stream::Mmsi mmsi,
                                       const std::string& name,
                                       VesselType type, double draft_m) {
  VesselInfo& v = vessels_[mmsi];
  v.mmsi = mmsi;
  if (!name.empty()) v.name = name;
  v.type = type;
  if (type == VesselType::kFishing) v.fishing_gear = true;
  if (draft_m > 0.0) v.draft_m = draft_m;
}

const AreaInfo* KnowledgeBase::FindArea(int32_t id) const {
  const auto it = area_index_.find(id);
  return it == area_index_.end() ? nullptr : &areas_[it->second];
}

const VesselInfo* KnowledgeBase::FindVessel(stream::Mmsi mmsi) const {
  const auto it = vessels_.find(mmsi);
  return it == vessels_.end() ? nullptr : &it->second;
}

void KnowledgeBase::DropOtherAreas(std::vector<int32_t>* ids) const {
  if (IndexHoldsOtherAreas()) {
    std::erase_if(*ids, [&](int32_t id) { return FindArea(id) == nullptr; });
  }
}

bool KnowledgeBase::Close(const geo::GeoPoint& p, int32_t area_id) const {
  if (IndexHoldsOtherAreas() && FindArea(area_id) == nullptr) return false;
  return spatial_->Close(p, area_id, &TlsSpatialCache());
}

std::vector<int32_t> KnowledgeBase::AreasCloseTo(const geo::GeoPoint& p) const {
  std::vector<int32_t> out;
  AreasCloseTo(p, &out);
  return out;
}

void KnowledgeBase::AreasCloseTo(const geo::GeoPoint& p,
                                 std::vector<int32_t>* out) const {
  out->clear();
  spatial_->AreasCloseTo(p, out, &TlsSpatialCache());  // Sorted by id.
  DropOtherAreas(out);
}

std::vector<int32_t> KnowledgeBase::AreasCloseTo(const geo::GeoPoint& p,
                                                 AreaKind kind) const {
  std::vector<int32_t> out;
  spatial_->AreasCloseTo(p, &out, &TlsSpatialCache());
  std::erase_if(out, [&](int32_t id) {
    const AreaInfo* area = FindArea(id);
    return area == nullptr || area->kind != kind;
  });
  return out;
}

bool KnowledgeBase::AnyAreaCloseTo(const geo::GeoPoint& p,
                                   AreaKind kind) const {
  std::vector<int32_t>& close = TlsIdScratch();
  spatial_->AreasCloseTo(p, &close, &TlsSpatialCache());
  for (const int32_t id : close) {
    const AreaInfo* area = FindArea(id);
    if (area != nullptr && area->kind == kind) return true;
  }
  return false;
}

bool KnowledgeBase::InsideArea(const geo::GeoPoint& p, int32_t area_id) const {
  if (IndexHoldsOtherAreas() && FindArea(area_id) == nullptr) return false;
  return spatial_->Contains(p, area_id, &TlsSpatialCache());
}

bool KnowledgeBase::IsFishing(stream::Mmsi mmsi) const {
  const VesselInfo* v = FindVessel(mmsi);
  if (v == nullptr) return false;
  return v->fishing_gear || v->type == VesselType::kFishing;
}

bool KnowledgeBase::IsShallowFor(int32_t area_id, stream::Mmsi mmsi) const {
  const AreaInfo* area = FindArea(area_id);
  if (area == nullptr || area->kind != AreaKind::kShallow) return false;
  const VesselInfo* v = FindVessel(mmsi);
  // Unknown vessels get a conservative default draft so alerts still fire.
  const double draft = v != nullptr ? v->draft_m : 3.0;
  return area->depth_m < draft + kUnderKeelClearanceM;
}

const AreaInfo* KnowledgeBase::PortContaining(const geo::GeoPoint& p) const {
  // The lowest-id containing port, so trip segmentation is deterministic
  // even when port polygons overlap.
  std::vector<int32_t>& inside = TlsIdScratch();
  spatial_->AreasContaining(p, &inside, &TlsSpatialCache());
  for (const int32_t id : inside) {  // Sorted ascending: first port wins.
    const AreaInfo* area = FindArea(id);
    if (area != nullptr && area->kind == AreaKind::kPort) return area;
  }
  return nullptr;
}

KnowledgeBase KnowledgeBase::Restricted(
    const std::vector<int32_t>& area_ids) const {
  KnowledgeBase out(close_threshold_m_, spatial_);
  for (const int32_t id : area_ids) {
    const AreaInfo* area = FindArea(id);
    if (area == nullptr) continue;
    out.area_index_[id] = out.areas_.size();
    out.areas_.push_back(*area);
  }
  out.vessels_ = vessels_;
  return out;
}

}  // namespace maritime::surveillance
