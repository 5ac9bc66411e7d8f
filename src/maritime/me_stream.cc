#include "maritime/me_stream.h"

#include <algorithm>

namespace maritime::surveillance {

MaritimeSchema MaritimeSchema::Declare(rtec::Engine& engine) {
  MaritimeSchema s;
  s.gap = engine.DeclareEvent("gap");
  s.gap_end = engine.DeclareEvent("gapEnd");
  s.turn = engine.DeclareEvent("turn");
  s.speed_change = engine.DeclareEvent("speedChange");
  s.slow_motion = engine.DeclareEvent("slowMotion");
  s.stop_start = engine.DeclareEvent("stopStart");
  s.stop_end = engine.DeclareEvent("stopEnd");
  s.slow_start = engine.DeclareEvent("slowStart");
  s.slow_end = engine.DeclareEvent("slowEnd");
  s.close_fact = engine.DeclareEvent("close");
  s.stopped = engine.DeclareFluent("stopped");
  s.low_speed = engine.DeclareFluent("lowSpeed");
  s.suspicious = engine.DeclareFluent("suspicious");
  s.illegal_fishing = engine.DeclareFluent("illegalFishing");
  s.illegal_shipping = engine.DeclareEvent("illegalShipping");
  s.dangerous_shipping = engine.DeclareEvent("dangerousShipping");
  s.adrift = engine.DeclareFluent("adrift");
  return s;
}

uint64_t FeedCriticalPoint(rtec::Engine& engine, const MaritimeSchema& schema,
                           const tracker::CriticalPoint& cp) {
  const rtec::Term vessel = VesselTerm(cp.mmsi);
  engine.AssertCoord(vessel, cp.tau, cp.pos);
  uint64_t asserted = 0;
  const auto assert_event = [&](rtec::EventId e) {
    engine.AssertEvent(e, vessel, cp.tau);
    ++asserted;
  };
  if (cp.Has(tracker::kGapStart)) assert_event(schema.gap);
  if (cp.Has(tracker::kGapEnd)) assert_event(schema.gap_end);
  if (cp.Has(tracker::kTurn) || cp.Has(tracker::kSmoothTurn)) {
    assert_event(schema.turn);
  }
  if (cp.Has(tracker::kSpeedChange)) assert_event(schema.speed_change);
  if (cp.Has(tracker::kStopStart)) assert_event(schema.stop_start);
  if (cp.Has(tracker::kStopEnd)) assert_event(schema.stop_end);
  if (cp.Has(tracker::kSlowMotionStart)) {
    assert_event(schema.slow_start);
    // The instantaneous slowMotion ME of rules (4) and (6) fires once per
    // episode, at its detection.
    assert_event(schema.slow_motion);
  }
  if (cp.Has(tracker::kSlowMotionEnd)) assert_event(schema.slow_end);
  return asserted;
}

namespace {

/// Index of the group in force at `t` (the latest at or before it), or -1
/// before the first group.
template <typename G>
ptrdiff_t InForceAt(std::span<G> groups, Timestamp t) {
  const auto pos = std::partition_point(
      groups.begin(), groups.end(), [t](const auto& g) { return g.t <= t; });
  return (pos - groups.begin()) - 1;
}

}  // namespace

void SpatialFactTable::Place(Vessel& v, uint32_t capacity) {
  v.begin = static_cast<uint32_t>(pool_.size());
  v.capacity = capacity;
  pool_.resize(pool_.size() + capacity);
}

void SpatialFactTable::Grow(Vessel& v) {
  if (v.size < v.capacity) return;
  if (2 * pool_abandoned_ > pool_.size()) {
    // Compact: copy every run, in slot order, into a pool without the
    // abandoned ones.
    std::vector<Group> pool;
    pool.reserve(2 * (pool_.size() - pool_abandoned_));
    for (Vessel& run : vessels_) {
      const std::span<const Group> live = GroupsOf(run);
      run.begin = static_cast<uint32_t>(pool.size());
      pool.insert(pool.end(), live.begin(), live.end());
      pool.resize(run.begin + run.capacity);
    }
    pool_ = std::move(pool);
    pool_abandoned_ = 0;
  }
  const Vessel old = v;
  Place(v, std::max<uint32_t>(4, 2 * v.capacity));
  std::copy_n(pool_.begin() + old.begin, old.size, pool_.begin() + v.begin);
  pool_abandoned_ += old.capacity;
}

uint64_t SpatialFactTable::HashIds(std::span<const int32_t> ids) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the ids
  for (const int32_t id : ids) {
    h = (h ^ static_cast<uint32_t>(id)) * 0x100000001b3ull;
  }
  return h ^ (h >> 29);
}

uint32_t SpatialFactTable::Intern(std::span<const int32_t> sorted,
                                  uint32_t hint) {
  if (hint != kNoSet && std::ranges::equal(SetOf(hint), sorted)) return hint;
  if (2 * (sets_.size() + 1) > set_slots_.size()) {
    // Grow and re-probe every set: keeps the table at most half full.
    set_slots_.assign(std::max<size_t>(64, 4 * sets_.size()), kNoSet);
    for (uint32_t set = 0; set < sets_.size(); ++set) {
      size_t i = HashIds(SetOf(set)) & (set_slots_.size() - 1);
      while (set_slots_[i] != kNoSet) i = (i + 1) & (set_slots_.size() - 1);
      set_slots_[i] = set;
    }
  }
  const size_t mask = set_slots_.size() - 1;
  for (size_t i = HashIds(sorted) & mask;; i = (i + 1) & mask) {
    if (set_slots_[i] == kNoSet) {
      set_slots_[i] = static_cast<uint32_t>(sets_.size());
      sets_.push_back(Set{static_cast<uint32_t>(set_ids_.size()),
                          static_cast<uint32_t>(sorted.size())});
      set_ids_.insert(set_ids_.end(), sorted.begin(), sorted.end());
      return set_slots_[i];
    }
    if (std::ranges::equal(SetOf(set_slots_[i]), sorted)) return set_slots_[i];
  }
}

const SpatialFactTable::Vessel* SpatialFactTable::Find(
    stream::Mmsi mmsi) const {
  const auto it = std::lower_bound(
      by_mmsi_.begin(), by_mmsi_.end(), mmsi,
      [](const auto& entry, stream::Mmsi m) { return entry.first < m; });
  if (it == by_mmsi_.end() || it->first != mmsi) return nullptr;
  return &vessels_[it->second];
}

void SpatialFactTable::IndexAdd(uint32_t set, stream::Mmsi mmsi) {
  for (const int32_t area : SetOf(set)) {
    const NearVessel key{area, mmsi, 1};
    const auto pos = std::lower_bound(near_.begin(), near_.end(), key);
    if (pos != near_.end() && pos->area == area && pos->mmsi == mmsi) {
      ++pos->refs;
    } else {
      near_.insert(pos, key);
    }
  }
}

void SpatialFactTable::IndexRemove(uint32_t set, stream::Mmsi mmsi) {
  for (const int32_t area : SetOf(set)) {
    const auto pos =
        std::lower_bound(near_.begin(), near_.end(), NearVessel{area, mmsi, 0});
    if (--pos->refs == 0) near_.erase(pos);
  }
}

void SpatialFactTable::QueuePurge(uint32_t slot) {
  const std::span<const Group> groups = GroupsOf(vessels_[slot]);
  if (groups.size() >= 2) purge_queue_.emplace(groups[1].t, slot);
}

void SpatialFactTable::AddFactGroup(stream::Mmsi mmsi, Timestamp t,
                                    std::span<const int32_t> areas) {
  if (!std::is_sorted(areas.begin(), areas.end())) {
    sort_scratch_.assign(areas.begin(), areas.end());
    std::sort(sort_scratch_.begin(), sort_scratch_.end());
    areas = sort_scratch_;
  }
  auto it = std::lower_bound(
      by_mmsi_.begin(), by_mmsi_.end(), mmsi,
      [](const auto& entry, stream::Mmsi m) { return entry.first < m; });
  if (it == by_mmsi_.end() || it->first != mmsi) {
    it = by_mmsi_.insert(
        it, {mmsi, static_cast<uint32_t>(vessels_.size())});
    vessels_.push_back(Vessel{mmsi});
  }
  const uint32_t slot = it->second;
  Vessel& v = vessels_[slot];
  Grow(v);
  // After every group at or before t: a delayed group lands mid-run.
  ++v.size;
  const std::span<Group> groups = GroupsOf(v);
  const auto pos = static_cast<size_t>(
      InForceAt(groups.first(groups.size() - 1), t) + 1);
  std::copy_backward(groups.begin() + static_cast<ptrdiff_t>(pos),
                     groups.end() - 1, groups.end());
  groups[pos] = Group{t, Intern(areas, pos > 0 ? groups[pos - 1].set : kNoSet)};
  fact_count_ += areas.size();
  IndexAdd(groups[pos].set, mmsi);
  // The second group changed: the vessel's purge time moved.
  if (pos <= 1) QueuePurge(slot);
}

std::span<const int32_t> SpatialFactTable::AreasCloseAt(stream::Mmsi mmsi,
                                                        Timestamp t) const {
  const Vessel* v = Find(mmsi);
  if (v == nullptr) return {};
  const std::span<const Group> groups = GroupsOf(*v);
  const ptrdiff_t g = InForceAt(groups, t);
  if (g < 0) return {};
  return SetOf(groups[static_cast<size_t>(g)].set);
}

bool SpatialFactTable::IsCloseAt(stream::Mmsi mmsi, int32_t area,
                                 Timestamp t) const {
  const std::span<const int32_t> areas = AreasCloseAt(mmsi, t);
  return std::binary_search(areas.begin(), areas.end(), area);
}

bool SpatialFactTable::ConstantCloseOver(stream::Mmsi mmsi, int32_t area,
                                         Timestamp from, Timestamp upto,
                                         bool* close) const {
  // Beyond this many in-force groups, classification costs more than the
  // caller's exact per-time fallback would.
  constexpr int kMaxGroups = 8;
  *close = false;
  const Vessel* v = Find(mmsi);
  if (v == nullptr) return true;
  const std::span<const Group> groups = GroupsOf(*v);
  const ptrdiff_t first = InForceAt(groups, from);
  // No group in force at `from`: IsCloseAt answers false until the first
  // group takes effect.
  bool have = first < 0;
  bool val = false;
  int scanned = 0;
  for (auto g = groups.begin() + std::max<ptrdiff_t>(first, 0);
       g != groups.end() && g->t <= upto; ++g) {
    if (++scanned > kMaxGroups) return false;
    const std::span<const int32_t> areas = SetOf(g->set);
    const bool c = std::binary_search(areas.begin(), areas.end(), area);
    if (!have) {
      have = true;
      val = c;
    } else if (c != val) {
      return false;
    }
  }
  *close = have && val;
  return true;
}

void SpatialFactTable::AreasCoveringFrom(stream::Mmsi mmsi, Timestamp from,
                                         std::vector<int32_t>* out) const {
  out->clear();
  const Vessel* v = Find(mmsi);
  if (v == nullptr) return;
  // The group in force throughout [from, next group) and every later one:
  // the same boundary-inclusive walk as the engine's coord covering.
  const std::span<const Group> groups = GroupsOf(*v);
  const ptrdiff_t first = std::max<ptrdiff_t>(InForceAt(groups, from), 0);
  for (auto g = groups.begin() + first; g != groups.end(); ++g) {
    const std::span<const int32_t> areas = SetOf(g->set);
    out->insert(out->end(), areas.begin(), areas.end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::span<const SpatialFactTable::NearVessel> SpatialFactTable::VesselsNear(
    int32_t area) const {
  const auto [lo, hi] = std::equal_range(
      near_.begin(), near_.end(), NearVessel{area, 0, 0},
      [](const NearVessel& a, const NearVessel& b) { return a.area < b.area; });
  return {lo, hi};
}

void SpatialFactTable::PurgeBefore(Timestamp cutoff) {
  // Retain the latest group at or before the cutoff as the vessel's boundary
  // fact group, mirroring the engine's last-known-position inertia for
  // coords: older groups are shadowed by it for every query at t > cutoff,
  // so purging never changes AreasCloseAt/IsCloseAt answers inside the
  // window (which keeps incremental caches valid across slides). A vessel
  // has a group to drop exactly when its second group is at or before the
  // cutoff, which is what the queue is ordered by.
  while (!purge_queue_.empty() && purge_queue_.top().first <= cutoff) {
    const uint32_t slot = purge_queue_.top().second;
    purge_queue_.pop();
    Vessel& v = vessels_[slot];
    const std::span<Group> groups = GroupsOf(v);
    const ptrdiff_t boundary = InForceAt(groups, cutoff);
    if (boundary < 1) continue;  // stale entry: nothing to drop
    for (const Group& g : groups.first(static_cast<size_t>(boundary))) {
      IndexRemove(g.set, v.mmsi);
      fact_count_ -= sets_[g.set].count;
    }
    std::copy(groups.begin() + boundary, groups.end(), groups.begin());
    v.size -= static_cast<uint32_t>(boundary);
    QueuePurge(slot);
  }
}

void SpatialFactTable::Clear() {
  vessels_.clear();
  pool_.clear();
  pool_abandoned_ = 0;
  by_mmsi_.clear();
  set_ids_.clear();
  sets_.clear();
  set_slots_.clear();
  near_.clear();
  purge_queue_ = {};
  fact_count_ = 0;
}

}  // namespace maritime::surveillance
