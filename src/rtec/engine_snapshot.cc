// Checkpoint serialization of the RTEC engine. The engine's cross-slide
// state is everything AssertEvent/AssertCoord accumulated plus everything a
// previous Recognize left behind for the next one: input stores, coords,
// committed timelines and derived events, the boundary inertia record,
// per-definition evidence caches, dirty maps and right-edge bookkeeping.
// Serializing all of it makes the post-restore execution byte-for-byte
// identical to the uninterrupted process (the bit-identical-recovery
// argument is spelled out in DESIGN.md §9).

#include <algorithm>
#include <map>
#include <variant>
#include <vector>

#include "rtec/engine.h"
#include "rtec/interval.h"
#include "snapshot/codec.h"

namespace maritime::rtec {
namespace {

// v2: timelines are stored from the flat slice-table representation (same
// sectioned value->rows shape as v1, but written in slice order); evidence
// points use the arena-aware PointVec. v1 bytes would misparse, so the
// reader requires version >= 2.
// v3: appends the spans_narrowed / fleet_floor_hits cache counters after the
// hits/misses/evictions trailer. Everything before the trailer is unchanged
// (scoped dirty propagation is per-slide scratch derived from state already
// serialized), so the reader accepts v2 bytes and zeroes the new counters.
constexpr uint8_t kEngineFormatVersion = 3;
constexpr const char* kWhat = "rtec engine";

// Definition kind tags in the schema fingerprint. Tag 1 belonged to the
// former statically-determined fluent kind and stays reserved, so a table
// naming it restores as a definition mismatch.
constexpr uint8_t kKindSimple = 0;
constexpr uint8_t kKindDerived = 2;

void SaveTerm(const Term& t, snapshot::Writer& w) { w.Put(t.kind, t.id); }

bool LoadTerm(snapshot::Reader& r, Term* t) {
  return r.I32(&t->kind) && r.I32(&t->id);
}

void SaveEventInstance(const EventInstance& e, snapshot::Writer& w) {
  w.Put(e.subject.kind, e.subject.id, e.object.kind, e.object.id, e.t);
}

bool LoadEventInstance(snapshot::Reader& r, EventInstance* e) {
  return LoadTerm(r, &e->subject) && LoadTerm(r, &e->object) && r.I64(&e->t);
}

void SavePoints(std::span<const ValuedPoint> pts, snapshot::Writer& w) {
  w.U64(pts.size());
  for (const ValuedPoint& p : pts) w.Put(p.value, p.t);
}

bool LoadPoints(snapshot::Reader& r, PointVec* pts) {
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(int32_t) + sizeof(int64_t))) return false;
  pts->clear();
  pts->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ValuedPoint p;
    if (!r.I32(&p.value) || !r.I64(&p.t)) return false;
    pts->push_back(p);
  }
  return true;
}

bool LoadIntervals(snapshot::Reader& r, IntervalList* list) {
  uint64_t n = 0;
  if (!r.Count(&n, 2 * sizeof(int64_t))) return false;
  list->clear();
  list->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Interval iv;
    if (!r.I64(&iv.since) || !r.I64(&iv.till)) return false;
    list->push_back(iv);
  }
  // The engine's interval algebra assumes the normalized-list invariant;
  // reject input that does not satisfy it instead of importing it.
  return IsNormalized(*list);
}

void SaveTimeline(const FluentTimeline& tl, snapshot::Writer& w) {
  // Three value-keyed sections (intervals, starts, ends), each listing only
  // values with non-empty rows — the same sectioned shape the former
  // map-of-vectors encoding had. Slices are sorted by value, so the bytes
  // are deterministic.
  uint64_t with_ivals = 0, with_starts = 0, with_ends = 0;
  for (const auto& s : tl.slices) {
    if (s.ival_end > s.ival_begin) ++with_ivals;
    if (s.start_end > s.start_begin) ++with_starts;
    if (s.end_end > s.end_begin) ++with_ends;
  }
  w.U64(with_ivals);
  for (const auto& s : tl.slices) {
    const IntervalSpan span = tl.IntervalsAt(s);
    if (span.empty()) continue;
    w.Put(s.value, uint64_t{span.size()});
    for (const Interval& i : span) w.Put(i.since, i.till);
  }
  w.U64(with_starts);
  for (const auto& s : tl.slices) {
    const auto span = tl.StartsAt(s);
    if (span.empty()) continue;
    w.Put(s.value, uint64_t{span.size()});
    for (const Timestamp t : span) w.I64(t);
  }
  w.U64(with_ends);
  for (const auto& s : tl.slices) {
    const auto span = tl.EndsAt(s);
    if (span.empty()) continue;
    w.Put(s.value, uint64_t{span.size()});
    for (const Timestamp t : span) w.I64(t);
  }
  w.Put(uint8_t{tl.open_value.has_value()}, tl.open_value.value_or(0));
}

bool LoadTimeline(snapshot::Reader& r, FluentTimeline* tl) {
  std::map<Value, IntervalList> ivals;
  std::map<Value, std::vector<Timestamp>> starts;
  std::map<Value, std::vector<Timestamp>> ends;
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(int32_t) + sizeof(uint64_t))) return false;
  for (uint64_t i = 0; i < n; ++i) {
    Value value = 0;
    IntervalList list;
    if (!r.I32(&value) || !LoadIntervals(r, &list)) return false;
    ivals[value] = std::move(list);
  }
  for (auto* field : {&starts, &ends}) {
    if (!r.Count(&n, sizeof(int32_t) + sizeof(uint64_t))) return false;
    for (uint64_t i = 0; i < n; ++i) {
      Value value = 0;
      uint64_t m = 0;
      if (!r.I32(&value) || !r.Count(&m, sizeof(int64_t))) return false;
      std::vector<Timestamp>& times = (*field)[value];
      times.reserve(m);
      for (uint64_t j = 0; j < m; ++j) {
        Timestamp t = 0;
        if (!r.I64(&t)) return false;
        times.push_back(t);
      }
    }
  }
  bool has_open = false;
  Value open = 0;
  if (!r.Bool(&has_open) || !r.I32(&open)) return false;
  // Rebuild the slice table in ascending value order (maps iterate sorted).
  *tl = FluentTimeline{};
  std::vector<Value> values;
  for (const auto& [v, x] : ivals) values.push_back(v);
  for (const auto& [v, x] : starts) values.push_back(v);
  for (const auto& [v, x] : ends) values.push_back(v);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  for (const Value v : values) {
    const auto iv = ivals.find(v);
    const auto st = starts.find(v);
    const auto en = ends.find(v);
    tl->AppendValue(
        v,
        iv == ivals.end() ? IntervalSpan() : IntervalSpan(iv->second),
        st == starts.end() ? std::span<const Timestamp>()
                           : std::span<const Timestamp>(st->second),
        en == ends.end() ? std::span<const Timestamp>()
                         : std::span<const Timestamp>(en->second));
  }
  if (has_open) tl->open_value = open;
  return true;
}

void SaveEvidence(const CachedEvidence& ev, snapshot::Writer& w) {
  SavePoints(ev.initiations(), w);
  SavePoints(ev.terminations(), w);
  w.Put(uint8_t{ev.carried_value.has_value()}, ev.carried_value.value_or(0));
}

bool LoadEvidence(snapshot::Reader& r, CachedEvidence* ev) {
  *ev = CachedEvidence{};
  bool has_carried = false;
  Value carried = 0;
  PointVec terminations;
  if (!LoadPoints(r, &ev->points) || !LoadPoints(r, &terminations) ||
      !r.Bool(&has_carried) || !r.I32(&carried)) {
    return false;
  }
  ev->init_count = static_cast<uint32_t>(ev->points.size());
  ev->points.insert(ev->points.end(), terminations.begin(),
                    terminations.end());
  if (has_carried) ev->carried_value = carried;
  ev->IndexPoints();
  return true;
}

void SaveTermVector(const std::vector<Term>& terms, snapshot::Writer& w) {
  w.U64(terms.size());
  for (const Term& t : terms) SaveTerm(t, w);
}

bool LoadTermVector(snapshot::Reader& r, std::vector<Term>* terms) {
  uint64_t n = 0;
  if (!r.Count(&n, 2 * sizeof(int32_t))) return false;
  terms->clear();
  terms->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Term t;
    if (!LoadTerm(r, &t)) return false;
    terms->push_back(t);
  }
  return true;
}

}  // namespace

MARITIME_OUTPUT_PATH void Engine::SaveTo(snapshot::Writer& w) const {
  w.U8(kEngineFormatVersion);

  // --- schema fingerprint --------------------------------------------------
  w.I64(window_.range);
  w.I64(window_.slide);
  w.Bool(options_.incremental);
  w.U64(event_names_.size());
  for (const auto& name : event_names_) w.Str(name);
  w.U64(fluent_names_.size());
  for (const auto& name : fluent_names_) w.Str(name);
  w.U64(definitions_.size());
  for (const auto& def : definitions_) {
    if (const auto* s = std::get_if<SimpleFluentSpec>(&def)) {
      w.U8(kKindSimple);
      w.I32(s->fluent);
      w.Bool(s->output);
      w.Bool(s->deps.has_value());
    } else {
      const auto& d = std::get<DerivedEventSpec>(def);
      w.U8(kKindDerived);
      w.I32(d.event);
      w.Bool(d.output);
      w.Bool(d.deps.has_value());
    }
  }

  // --- input stores --------------------------------------------------------
  for (const EventStore& store : input_events_) {
    w.U64(store.by_time.size());
    for (const EventInstance& e : store.by_time) SaveEventInstance(e, w);
  }
  w.Bool(input_dirty_);
  for (const auto& store : derived_events_) {
    w.U64(store.size());
    for (const EventInstance& e : store) SaveEventInstance(e, w);
  }
  w.U64(coords_.size());
  for (const auto* entry : snapshot::SortedEntries(coords_)) {
    const auto& [vessel, history] = *entry;
    w.Put(vessel.kind, vessel.id, uint64_t{history.fixes.size()});
    for (const auto& [t, pos] : history.fixes) w.Put(t, pos.lon, pos.lat);
  }
  w.Bool(coords_dirty_);

  // --- committed timelines -------------------------------------------------
  for (const auto& map : timelines_) {
    w.U64(map.size());
    for (const auto* entry : snapshot::SortedEntries(map)) {
      SaveTerm(entry->first, w);
      SaveTimeline(entry->second, w);
    }
  }

  // --- incremental dirty + edge state --------------------------------------
  const auto save_dirty = [&w](const DirtyMap& dm_in) {
    // Marks batched since the last Recognize may still be pending (SaveTo is
    // const and runs between slides); flush a copy so the bytes are the
    // canonical key-sorted coalesced form.
    DirtyMap dm = dm_in;
    dm.Flush();
    w.U64(dm.at.size());
    for (const auto& [key, range] : dm.at) {
      w.Put(key.kind, key.id, range.min, range.max);
    }
  };
  for (const auto& dm : dirty_events_) save_dirty(dm);
  save_dirty(dirty_coords_);
  w.Bool(dirty_all_);
  for (const auto& edge : edge_fluents_) {
    std::vector<Term> sorted = edge;
    std::sort(sorted.begin(), sorted.end());
    SaveTermVector(sorted, w);
  }
  for (const char e : edge_derived_) w.U8(static_cast<uint8_t>(e));
  w.I64(prev_query_);

  // --- boundary inertia record ---------------------------------------------
  w.I64(boundary_.at);
  w.U64(boundary_.values.size());
  for (const auto& bvec : boundary_.values) {
    w.U64(bvec.size());
    // Per-fluent boundary vectors are sorted by key at commit time.
    for (const auto& [key, value] : bvec) w.Put(key.kind, key.id, value);
  }

  // --- per-definition caches -----------------------------------------------
  for (const auto& cache : def_caches_) {
    if (const auto* simple = std::get_if<SimpleDefCache>(&cache)) {
      w.U64(simple->evidence.size());
      for (const auto* entry : snapshot::SortedEntries(simple->evidence)) {
        SaveTerm(entry->first, w);
        SaveEvidence(entry->second, w);
      }
      SaveTermVector(simple->keys, w);
    } else {
      w.Bool(std::get<DerivedDefCache>(cache).valid);
    }
  }

  w.U64(cache_stats_.hits);
  w.U64(cache_stats_.misses);
  w.U64(cache_stats_.evictions);
  // v3 trailer.
  w.U64(cache_stats_.spans_narrowed);
  w.U64(cache_stats_.fleet_floor_hits);
}

Status Engine::RestoreFrom(snapshot::Reader& r) {
  uint8_t version = 0;
  if (!r.U8(&version)) return snapshot::CorruptionIn(kWhat);
  if (version != 2 && version != kEngineFormatVersion) {
    return snapshot::VersionError(kWhat);
  }

  // --- schema fingerprint: declarations are code, so they must match -------
  stream::WindowSpec window;
  bool incremental = false;
  if (!r.I64(&window.range) || !r.I64(&window.slide) || !r.Bool(&incremental)) {
    return snapshot::CorruptionIn(kWhat);
  }
  if (window.range != window_.range || window.slide != window_.slide) {
    return Status::InvalidArgument("snapshot: engine window spec mismatch");
  }
  if (incremental != options_.incremental) {
    return Status::InvalidArgument(
        "snapshot: engine evaluation mode mismatch (incremental vs naive)");
  }
  uint64_t n = 0;
  if (!r.Count(&n, 1) || n != event_names_.size()) {
    return Status::InvalidArgument("snapshot: engine event count mismatch");
  }
  for (const auto& name : event_names_) {
    std::string stored;
    if (!r.Str(&stored)) return snapshot::CorruptionIn(kWhat);
    if (stored != name) {
      return Status::InvalidArgument("snapshot: engine event '" + name +
                                     "' mismatch (stored '" + stored + "')");
    }
  }
  if (!r.Count(&n, 1) || n != fluent_names_.size()) {
    return Status::InvalidArgument("snapshot: engine fluent count mismatch");
  }
  for (const auto& name : fluent_names_) {
    std::string stored;
    if (!r.Str(&stored)) return snapshot::CorruptionIn(kWhat);
    if (stored != name) {
      return Status::InvalidArgument("snapshot: engine fluent '" + name +
                                     "' mismatch (stored '" + stored + "')");
    }
  }
  if (!r.Count(&n, 1) || n != definitions_.size()) {
    return Status::InvalidArgument("snapshot: engine definition count mismatch");
  }
  for (const auto& def : definitions_) {
    uint8_t kind = 0;
    int32_t target = -1;
    bool output = false;
    bool has_deps = false;
    if (!r.U8(&kind) || !r.I32(&target) || !r.Bool(&output) ||
        !r.Bool(&has_deps)) {
      return snapshot::CorruptionIn(kWhat);
    }
    uint8_t want_kind = 0;
    int32_t want_target = -1;
    bool want_output = false;
    bool want_deps = false;
    if (const auto* s = std::get_if<SimpleFluentSpec>(&def)) {
      want_kind = kKindSimple;
      want_target = s->fluent;
      want_output = s->output;
      want_deps = s->deps.has_value();
    } else {
      const auto& d = std::get<DerivedEventSpec>(def);
      want_kind = kKindDerived;
      want_target = d.event;
      want_output = d.output;
      want_deps = d.deps.has_value();
    }
    if (kind != want_kind || target != want_target || output != want_output ||
        has_deps != want_deps) {
      return Status::InvalidArgument("snapshot: engine definition mismatch");
    }
  }

  // --- input stores --------------------------------------------------------
  // The ordering bookkeeping and the subject index are derived, not stored:
  // the sorted prefix is whatever prefix of the stored order is sorted (a
  // snapshot taken with input pending keeps its unsorted tail), and the next
  // Recognize sorts the rest and builds the index.
  for (EventStore& store : input_events_) {
    if (!r.Count(&n, 2 * 2 * sizeof(int32_t) + sizeof(int64_t))) {
      return snapshot::CorruptionIn(kWhat);
    }
    auto& events = store.by_time;
    events.clear();
    events.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      EventInstance e;
      if (!LoadEventInstance(r, &e)) return snapshot::CorruptionIn(kWhat);
      events.push_back(e);
    }
    DeriveInputOrder(&store);
  }
  if (!r.Bool(&input_dirty_)) return snapshot::CorruptionIn(kWhat);
  for (auto& store : derived_events_) {
    if (!r.Count(&n, 2 * 2 * sizeof(int32_t) + sizeof(int64_t))) {
      return snapshot::CorruptionIn(kWhat);
    }
    store.clear();
    store.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      EventInstance e;
      if (!LoadEventInstance(r, &e)) return snapshot::CorruptionIn(kWhat);
      store.push_back(e);
    }
  }
  coords_.clear();
  coords_unsorted_.clear();
  coord_purge_.clear();
  if (!r.Count(&n, 2 * sizeof(int32_t) + sizeof(uint64_t))) {
    return snapshot::CorruptionIn(kWhat);
  }
  for (uint64_t i = 0; i < n; ++i) {
    Term vessel;
    uint64_t m = 0;
    if (!LoadTerm(r, &vessel) ||
        !r.Count(&m, sizeof(int64_t) + 2 * sizeof(double))) {
      return snapshot::CorruptionIn(kWhat);
    }
    CoordHistory& h = coords_[vessel];
    auto& vec = h.fixes;
    vec.reserve(m);
    for (uint64_t j = 0; j < m; ++j) {
      Timestamp t = 0;
      geo::GeoPoint pos;
      if (!r.I64(&t) || !r.F64(&pos.lon) || !r.F64(&pos.lat)) {
        return snapshot::CorruptionIn(kWhat);
      }
      vec.emplace_back(t, pos);
      coord_purge_.emplace_back(t, vessel);
    }
    // As for events: the sorted prefix is derived; an unsorted tail is
    // inserted into place at the next Recognize.
    h.sorted = static_cast<size_t>(
        std::is_sorted_until(vec.begin(), vec.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }) -
        vec.begin());
    if (h.sorted < vec.size()) coords_unsorted_.push_back(vessel);
  }
  if (!r.Bool(&coords_dirty_)) return snapshot::CorruptionIn(kWhat);
  RebuildCoordPurge();

  // --- committed timelines -------------------------------------------------
  for (size_t fidx = 0; fidx < timelines_.size(); ++fidx) {
    auto& map = timelines_[fidx];
    map.clear();
    if (!r.Count(&n, 2 * sizeof(int32_t) + 1)) {
      return snapshot::CorruptionIn(kWhat);
    }
    for (uint64_t i = 0; i < n; ++i) {
      Term key;
      FluentTimeline tl;
      if (!LoadTerm(r, &key) || !LoadTimeline(r, &tl)) {
        return snapshot::CorruptionIn(kWhat);
      }
      map[key] = std::move(tl);
    }
    RebuildKeyMemo(fidx);
  }

  // --- incremental dirty + edge state --------------------------------------
  const auto load_dirty = [&r](DirtyMap* dm) {
    dm->Clear();
    uint64_t count = 0;
    if (!r.Count(&count, 2 * sizeof(int32_t) + 2 * sizeof(int64_t))) {
      return false;
    }
    for (uint64_t i = 0; i < count; ++i) {
      Term key;
      DirtyMap::MarkRange range{};
      if (!LoadTerm(r, &key) || !r.I64(&range.min) || !r.I64(&range.max) ||
          range.min > range.max) {
        return false;
      }
      // Replayed as batched marks; Flush sorts and coalesces below, so even
      // malformed (out-of-order) input cannot break the sorted invariant.
      dm->Mark(key, range.min);
      dm->Mark(key, range.max);
    }
    dm->Flush();
    return true;
  };
  for (auto& dm : dirty_events_) {
    if (!load_dirty(&dm)) return snapshot::CorruptionIn(kWhat);
  }
  if (!load_dirty(&dirty_coords_)) return snapshot::CorruptionIn(kWhat);
  if (!r.Bool(&dirty_all_)) return snapshot::CorruptionIn(kWhat);
  for (auto& edge : edge_fluents_) {
    if (!LoadTermVector(r, &edge)) return snapshot::CorruptionIn(kWhat);
  }
  for (auto& e : edge_derived_) {
    uint8_t b = 0;
    if (!r.U8(&b)) return snapshot::CorruptionIn(kWhat);
    e = static_cast<char>(b != 0);
  }
  if (!r.I64(&prev_query_)) return snapshot::CorruptionIn(kWhat);

  // --- boundary inertia record ---------------------------------------------
  if (!r.I64(&boundary_.at)) return snapshot::CorruptionIn(kWhat);
  if (!r.Count(&n, sizeof(uint64_t))) return snapshot::CorruptionIn(kWhat);
  if (n != 0 && n != fluent_names_.size()) {
    return snapshot::CorruptionIn(kWhat);
  }
  boundary_.values.assign(n, {});
  for (auto& bvec : boundary_.values) {
    uint64_t m = 0;
    if (!r.Count(&m, 3 * sizeof(int32_t))) return snapshot::CorruptionIn(kWhat);
    bvec.reserve(m);
    for (uint64_t i = 0; i < m; ++i) {
      Term key;
      Value value = 0;
      if (!LoadTerm(r, &key) || !r.I32(&value)) {
        return snapshot::CorruptionIn(kWhat);
      }
      bvec.emplace_back(key, value);
    }
    // Saved sorted; sort defensively so CarriedValue's binary search stays
    // correct even for hand-crafted snapshot bytes (last write wins is not
    // needed — duplicate keys cannot be produced by SaveTo).
    std::sort(bvec.begin(), bvec.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  // --- per-definition caches -----------------------------------------------
  for (auto& cache : def_caches_) {
    if (auto* simple = std::get_if<SimpleDefCache>(&cache)) {
      simple->evidence.clear();
      if (!r.Count(&n, 2 * sizeof(int32_t) + 1)) {
        return snapshot::CorruptionIn(kWhat);
      }
      for (uint64_t i = 0; i < n; ++i) {
        Term key;
        CachedEvidence ev;
        if (!LoadTerm(r, &key) || !LoadEvidence(r, &ev)) {
          return snapshot::CorruptionIn(kWhat);
        }
        simple->evidence[key] = std::move(ev);
      }
      if (!LoadTermVector(r, &simple->keys)) {
        return snapshot::CorruptionIn(kWhat);
      }
    } else {
      bool valid = false;
      if (!r.Bool(&valid)) return snapshot::CorruptionIn(kWhat);
      std::get<DerivedDefCache>(cache).valid = valid;
    }
  }

  uint64_t hits = 0, misses = 0, evictions = 0;
  if (!r.U64(&hits) || !r.U64(&misses) || !r.U64(&evictions)) {
    return snapshot::CorruptionIn(kWhat);
  }
  cache_stats_.hits = static_cast<size_t>(hits);
  cache_stats_.misses = static_cast<size_t>(misses);
  cache_stats_.evictions = static_cast<size_t>(evictions);
  uint64_t spans_narrowed = 0, fleet_floor_hits = 0;
  if (version >= 3 &&
      (!r.U64(&spans_narrowed) || !r.U64(&fleet_floor_hits))) {
    return snapshot::CorruptionIn(kWhat);
  }
  cache_stats_.spans_narrowed = static_cast<size_t>(spans_narrowed);
  cache_stats_.fleet_floor_hits = static_cast<size_t>(fleet_floor_hits);

  // Derived per-cache pointers into the maps just rebuilt.
  for (size_t di = 0; di < definitions_.size(); ++di) {
    if (const auto* spec = std::get_if<SimpleFluentSpec>(&definitions_[di])) {
      RelinkSimpleCache(static_cast<size_t>(spec->fluent),
                        &std::get<SimpleDefCache>(def_caches_[di]));
    }
  }

  // Per-slide scratch state is reset, exactly as a finished Recognize leaves
  // it (changed_* are recomputed from the edge records at the next step).
  for (auto& dm : changed_fluents_) dm.Clear();
  std::fill(changed_derived_.begin(), changed_derived_.end(), kTimestampNever);
  return Status::OK();
}

}  // namespace maritime::rtec
