#include "maritime/knowledge.h"

#include <algorithm>

namespace maritime::surveillance {

namespace {

/// Per-thread one-entry locality cache shared by all KnowledgeBase spatial
/// queries on that thread. The rule closures of the recognizer run
/// concurrently across keys, so the cache must not live in the (shared)
/// KnowledgeBase itself; a generation stamp keeps it safe to reuse across
/// different SpatialIndex instances on the same thread.
geo::SpatialIndex::Cache& TlsSpatialCache() {
  static thread_local geo::SpatialIndex::Cache cache;
  return cache;
}

/// Scratch id buffer for tiered queries whose result is not returned to the
/// caller (PortContaining, AnyAreaCloseTo): reusing it avoids an allocation
/// per call. Never held across calls into other KnowledgeBase methods.
std::vector<int32_t>& TlsIdScratch() {
  static thread_local std::vector<int32_t> ids;
  return ids;
}

std::shared_ptr<geo::SpatialIndex> NewIndex(double close_threshold_m,
                                            const SpatialOptions& spatial) {
  return std::make_shared<geo::SpatialIndex>(
      close_threshold_m,
      geo::SpatialIndex::Options{.cell_deg = spatial.tiered_cell_deg});
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

std::string_view SpatialEngineName(SpatialEngine engine) {
  switch (engine) {
    case SpatialEngine::kBrute:
      return "brute";
    case SpatialEngine::kTiered:
      return "tiered";
  }
  return "unknown";
}

KnowledgeBase::KnowledgeBase(double close_threshold_m, SpatialOptions spatial)
    : close_threshold_m_(close_threshold_m),
      spatial_options_(spatial),
      spatial_(NewIndex(close_threshold_m, spatial)) {}

void KnowledgeBase::AddArea(AreaInfo area) {
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    if (IndexHoldsOtherAreas()) {
      // A band that grows stops sharing: its own index holds its areas
      // only, so an id from another band cannot collide.
      spatial_ = NewIndex(close_threshold_m_, spatial_options_);
      for (const AreaInfo& a : areas_) spatial_->Insert(a.id, a.polygon);
    } else if (spatial_.use_count() > 1) {
      spatial_ = std::make_shared<geo::SpatialIndex>(*spatial_);
    }
    spatial_->Insert(area.id, area.polygon);
  }
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
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    if (IndexHoldsOtherAreas() && FindArea(area_id) == nullptr) return false;
    return spatial_->Close(p, area_id, &TlsSpatialCache());
  }
  const AreaInfo* area = FindArea(area_id);
  if (area == nullptr) return false;
  return area->polygon.DistanceMeters(p) < close_threshold_m_;
}

std::vector<int32_t> KnowledgeBase::AreasCloseTo(const geo::GeoPoint& p) const {
  std::vector<int32_t> out;
  AreasCloseTo(p, &out);
  return out;
}

void KnowledgeBase::AreasCloseTo(const geo::GeoPoint& p,
                                 std::vector<int32_t>* out) const {
  out->clear();
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    spatial_->AreasCloseTo(p, out, &TlsSpatialCache());  // Sorted by id.
    DropOtherAreas(out);
    return;
  }
  for (const AreaInfo& area : areas_) {
    if (area.polygon.DistanceMeters(p) < close_threshold_m_) {
      out->push_back(area.id);
    }
  }
  std::sort(out->begin(), out->end());
}

std::vector<int32_t> KnowledgeBase::AreasCloseTo(const geo::GeoPoint& p,
                                                 AreaKind kind) const {
  std::vector<int32_t> out;
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    spatial_->AreasCloseTo(p, &out, &TlsSpatialCache());
    std::erase_if(out, [&](int32_t id) {
      const AreaInfo* area = FindArea(id);
      return area == nullptr || area->kind != kind;
    });
    return out;
  }
  for (const AreaInfo& area : areas_) {
    if (area.kind == kind &&
        area.polygon.DistanceMeters(p) < close_threshold_m_) {
      out.push_back(area.id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool KnowledgeBase::AnyAreaCloseTo(const geo::GeoPoint& p,
                                   AreaKind kind) const {
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    std::vector<int32_t>& close = TlsIdScratch();
    spatial_->AreasCloseTo(p, &close, &TlsSpatialCache());
    for (const int32_t id : close) {
      const AreaInfo* area = FindArea(id);
      if (area != nullptr && area->kind == kind) return true;
    }
    return false;
  }
  for (const AreaInfo& area : areas_) {
    if (area.kind == kind &&
        area.polygon.DistanceMeters(p) < close_threshold_m_) {
      return true;
    }
  }
  return false;
}

bool KnowledgeBase::InsideArea(const geo::GeoPoint& p, int32_t area_id) const {
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    if (IndexHoldsOtherAreas() && FindArea(area_id) == nullptr) return false;
    return spatial_->Contains(p, area_id, &TlsSpatialCache());
  }
  const AreaInfo* area = FindArea(area_id);
  return area != nullptr && area->polygon.Contains(p);
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
  // Both engines return the lowest-id containing port so trip segmentation
  // is deterministic even when port polygons overlap.
  if (spatial_options_.engine == SpatialEngine::kTiered) {
    std::vector<int32_t>& inside = TlsIdScratch();
    spatial_->AreasContaining(p, &inside, &TlsSpatialCache());
    for (const int32_t id : inside) {  // Sorted ascending: first port wins.
      const AreaInfo* area = FindArea(id);
      if (area != nullptr && area->kind == AreaKind::kPort) return area;
    }
    return nullptr;
  }
  const AreaInfo* best = nullptr;
  for (const AreaInfo& area : areas_) {
    if (area.kind == AreaKind::kPort && area.polygon.Contains(p) &&
        (best == nullptr || area.id < best->id)) {
      best = &area;
    }
  }
  return best;
}

KnowledgeBase KnowledgeBase::Restricted(
    const std::vector<int32_t>& area_ids) const {
  KnowledgeBase out(close_threshold_m_, spatial_options_);
  out.spatial_ = spatial_;
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
