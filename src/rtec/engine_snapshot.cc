// Checkpoint serialization of the RTEC engine. The engine's cross-slide
// state is everything AssertEvent/AssertCoord accumulated plus everything a
// previous Recognize left behind for the next one: input stores, coords,
// committed timelines and derived events, the boundary inertia record,
// per-definition evidence caches, dirty maps and right-edge bookkeeping.
// Serializing all of it makes the post-restore execution byte-for-byte
// identical to the uninterrupted process (the bit-identical-recovery
// argument is spelled out in DESIGN.md §9).

#include <algorithm>
#include <array>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "common/check.h"
#include "rtec/engine.h"
#include "rtec/interval.h"
#include "snapshot/codec.h"

namespace maritime::rtec {
namespace {

// v3: timelines in slice order, evidence points as PointVecs, and the
// spans_narrowed / fleet_floor_hits counters after the hits/misses/evictions
// trailer. The reader reads v3 only (DESIGN.md §9).
constexpr uint8_t kEngineFormatVersion = 3;
constexpr const char* kWhat = "rtec engine";

// Definition kind tags in the schema fingerprint. Tag 1 belonged to the
// former statically-determined fluent kind and stays reserved, so a table
// naming it restores as a definition mismatch.
constexpr uint8_t kKindSimple = 0;
constexpr uint8_t kKindDerived = 2;

// Encoded sizes, for validating a count before anything is sized by it.
constexpr size_t kTermBytes = 2 * sizeof(int32_t);
constexpr size_t kEventBytes = 2 * kTermBytes + sizeof(int64_t);
constexpr size_t kPointBytes = sizeof(int32_t) + sizeof(int64_t);
constexpr size_t kIntervalBytes = 2 * sizeof(int64_t);
constexpr size_t kFixBytes = sizeof(int64_t) + 2 * sizeof(double);
constexpr size_t kRowHeaderBytes = sizeof(int32_t) + sizeof(uint64_t);
constexpr size_t kOptionalValueBytes = sizeof(uint8_t) + sizeof(int32_t);
constexpr size_t kTimelineBytes = 3 * sizeof(uint64_t) + kOptionalValueBytes;
constexpr size_t kEvidenceBytes = 2 * sizeof(uint64_t) + kOptionalValueBytes;

void SaveTerm(const Term& t, snapshot::Writer& w) { w.Put(t.kind, t.id); }

bool LoadTerm(snapshot::Reader& r, Term* t) { return r.Get(&t->kind, &t->id); }

void SaveEventInstance(const EventInstance& e, snapshot::Writer& w) {
  w.Put(e.subject.kind, e.subject.id, e.object.kind, e.object.id, e.t);
}

bool LoadEventInstance(snapshot::Reader& r, EventInstance* e) {
  return r.Get(&e->subject.kind, &e->subject.id, &e->object.kind,
               &e->object.id, &e->t);
}

// The events of one store, into `events` reserved to their count.
bool LoadEvents(snapshot::Reader& r, std::vector<EventInstance>* events) {
  uint64_t n = 0;
  if (!r.Count(&n, kEventBytes)) return false;
  events->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!LoadEventInstance(r, &events->emplace_back())) return false;
  }
  return true;
}

void SavePoints(std::span<const ValuedPoint> pts, snapshot::Writer& w) {
  w.U64(pts.size());
  for (const ValuedPoint& p : pts) w.Put(p.value, p.t);
}

// `n` points onto the end of `pts`.
bool AppendPoints(snapshot::Reader& r, uint64_t n, PointVec* pts) {
  for (uint64_t i = 0; i < n; ++i) {
    ValuedPoint p;
    if (!r.Get(&p.value, &p.t)) return false;
    pts->push_back(p);
  }
  return true;
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
    const IntervalView ivals = tl.IntervalsAt(s);
    if (ivals.empty()) continue;
    w.Put(s.value, uint64_t{ivals.size()});
    for (const Interval& i : ivals) w.Put(i.since, i.till);
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

void SaveEvidence(const CachedEvidence& ev, snapshot::Writer& w) {
  SavePoints(ev.initiations(), w);
  SavePoints(ev.terminations(), w);
  w.Put(uint8_t{ev.carried_value.has_value()}, ev.carried_value.value_or(0));
}

// An optional value as the savers write it: a 0/1 flag, then the value,
// which is 0 when the flag is clear. Into `out`, which is empty.
bool LoadOptionalValue(snapshot::Reader& r, uint8_t has, Value value,
                       std::optional<Value>* out) {
  bool present = false;
  if (!r.Flag(has, &present) || (!present && value != 0)) return false;
  if (present) *out = value;
  return true;
}

// Reads the initiations and then the terminations straight into
// `ev->points`, a freshly emplaced slot. The buffer is reserved once for
// both lists: the terminations' count is read ahead, past the initiations.
bool LoadEvidence(snapshot::Reader& r, CachedEvidence* ev) {
  uint64_t n_init = 0, n_term = 0;
  if (!r.Count(&n_init, kPointBytes)) return false;
  snapshot::Reader ahead = r;
  if (ahead.Skip(n_init * kPointBytes) && ahead.Count(&n_term, kPointBytes)) {
    ev->points.reserve(n_init + n_term);
  }
  uint8_t has_carried = 0;
  Value carried = 0;
  if (!AppendPoints(r, n_init, &ev->points) ||
      !r.Count(&n_term, kPointBytes) ||
      !AppendPoints(r, n_term, &ev->points) ||
      !r.Get(&has_carried, &carried) ||
      !LoadOptionalValue(r, has_carried, carried, &ev->carried_value)) {
    return false;
  }
  ev->init_count = static_cast<uint32_t>(n_init);
  ev->IndexPoints();
  return true;
}

void SaveTermVector(const std::vector<Term>& terms, snapshot::Writer& w) {
  w.U64(terms.size());
  for (const Term& t : terms) SaveTerm(t, w);
}

// A term vector SaveTo writes sorted: each term no less than the one
// before it.
bool LoadSortedTermVector(snapshot::Reader& r, std::vector<Term>* terms) {
  uint64_t n = 0;
  if (!r.Count(&n, kTermBytes)) return false;
  terms->clear();
  terms->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Term t;
    if (!LoadTerm(r, &t) || (!terms->empty() && t < terms->back())) {
      return false;
    }
    terms->push_back(t);
  }
  return true;
}

// One section of a timeline record (its intervals, starts or ends), read
// row by row through a reader of its own: `head` is the current row's value
// and `length` its element count. A section lists its values ascending, so
// three cursors over the same bytes walk the union of the values in step
// and a timeline is laid out without staging its rows anywhere.
struct RowCursor {
  explicit RowCursor(size_t bytes) : element_bytes(bytes) {}

  /// Opens the section that starts at `at`: reads its row count.
  bool Open(const snapshot::Reader& at) {
    r = at;
    has_head = false;
    return r.Count(&rows, kRowHeaderBytes + element_bytes);
  }
  /// Reads the next row's header. Rows SaveTo never writes are rejected:
  /// an empty row, or a value not above the previous row's.
  bool Next() {
    const bool had_head = has_head;
    has_head = rows > 0;
    if (!has_head) return true;
    --rows;
    Value value = 0;
    if (!r.Get(&value, &length) || length == 0 ||
        !r.Fits(length, element_bytes) || (had_head && value <= head)) {
      return false;
    }
    head = value;
    return true;
  }
  bool SkipRow() { return r.Skip(length * element_bytes); }

  snapshot::Reader r{std::string_view()};
  size_t element_bytes;
  uint64_t rows = 0;
  bool has_head = false;
  Value head = 0;
  uint64_t length = 0;
};

// Calls row(v, at) for every value named by any of the three sections,
// ascending, where at[k] is section k's cursor when its current row names v
// and nullptr otherwise. `row` consumes the bodies of those rows.
template <typename Fn>
bool ForEachValue(std::array<RowCursor, 3>& sections, Fn row) {
  for (RowCursor& c : sections) {
    if (!c.Next()) return false;
  }
  while (true) {
    const RowCursor* lowest = nullptr;
    for (const RowCursor& c : sections) {
      if (c.has_head && (lowest == nullptr || c.head < lowest->head)) {
        lowest = &c;
      }
    }
    if (lowest == nullptr) return true;
    const Value v = lowest->head;
    std::array<RowCursor*, 3> at{};
    for (size_t k = 0; k < 3; ++k) {
      if (sections[k].has_head && sections[k].head == v) at[k] = &sections[k];
    }
    if (!row(v, at)) return false;
    for (RowCursor* c : at) {
      if (c != nullptr && !c->Next()) return false;
    }
  }
}

// Reads one timeline (the layout SaveTimeline writes) into `tl`, a freshly
// emplaced map slot, with each store reserved to its final size. A first
// walk over the row headers finds the three sections and sizes the stores;
// the second reads every row straight into place, value by value, as
// AppendValue lays a timeline out.
bool LoadTimeline(snapshot::Reader& r, FluentTimeline* tl) {
  std::array<RowCursor, 3> sections = {RowCursor(kIntervalBytes),
                                       RowCursor(sizeof(int64_t)),
                                       RowCursor(sizeof(int64_t))};
  // Each section begins where the previous one's rows end.
  size_t elements[3] = {};
  snapshot::Reader at = r;
  for (size_t k = 0; k < 3; ++k) {
    if (!sections[k].Open(at)) return false;
    RowCursor scan = sections[k];
    if (!scan.Next()) return false;
    while (scan.has_head) {
      elements[k] += scan.length;
      if (!scan.SkipRow() || !scan.Next()) return false;
    }
    at = scan.r;
  }
  uint8_t has_open = 0;
  Value open = 0;
  if (!at.Get(&has_open, &open)) return false;

  size_t values = 0;
  std::array<RowCursor, 3> count = sections;
  if (!ForEachValue(count, [&values](Value, std::array<RowCursor*, 3>& rows) {
        ++values;
        for (RowCursor* c : rows) {
          if (c != nullptr && !c->SkipRow()) return false;
        }
        return true;
      })) {
    return false;
  }
  tl->slices.reserve(values);
  tl->interval_store.reserve(elements[0]);
  tl->time_store.reserve(elements[1] + elements[2]);
  const auto append_times = [tl](RowCursor* c) {
    for (uint64_t j = 0; c != nullptr && j < c->length; ++j) {
      if (!c->r.Get(&tl->time_store.emplace_back())) return false;
    }
    return true;
  };
  const bool ok = ForEachValue(
      sections, [&](Value v, std::array<RowCursor*, 3>& rows) {
        FluentTimeline::ValueSlice s;
        s.value = v;
        s.ival_begin = static_cast<uint32_t>(tl->interval_store.size());
        for (uint64_t j = 0; rows[0] != nullptr && j < rows[0]->length; ++j) {
          Interval& iv = tl->interval_store.emplace_back();
          if (!rows[0]->r.Get(&iv.since, &iv.till)) return false;
        }
        s.ival_end = static_cast<uint32_t>(tl->interval_store.size());
        s.start_begin = static_cast<uint32_t>(tl->time_store.size());
        if (!append_times(rows[1])) return false;
        s.start_end = s.end_begin =
            static_cast<uint32_t>(tl->time_store.size());
        if (!append_times(rows[2])) return false;
        s.end_end = static_cast<uint32_t>(tl->time_store.size());
        tl->slices.push_back(s);
        // The engine's interval algebra assumes the normalized-list
        // invariant; reject input that does not satisfy it instead of
        // importing it.
        return IsNormalized(IntervalSpan(tl->interval_store)
                                .subspan(s.ival_begin,
                                         s.ival_end - s.ival_begin));
      });
  if (!ok || !LoadOptionalValue(at, has_open, open, &tl->open_value)) {
    return false;
  }
  r = at;
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
  // The key memo is each map's keys in ascending order with their slots.
  for (size_t fidx = 0; fidx < timelines_.size(); ++fidx) {
    const std::vector<Term>& keys = fluent_keys_[fidx];
    const auto& tls = fluent_timelines_[fidx];
    MARITIME_DCHECK_MSG(
        keys.size() == timelines_[fidx].size() && tls.size() == keys.size(),
        "key memo does not cover the committed timeline map");
    w.U64(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      SaveTerm(keys[i], w);
      SaveTimeline(*tls[i], w);
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
      // The evaluated key set is sorted and holds every cached key, with
      // its entry alongside (naive mode caches nothing: both are empty).
      w.U64(simple->evidence.size());
      size_t walked = 0;
      for (size_t i = 0; i < simple->keys.size(); ++i) {
        if (simple->entries[i] == nullptr) continue;
        SaveTerm(simple->keys[i], w);
        SaveEvidence(*simple->entries[i], w);
        ++walked;
      }
      MARITIME_DCHECK_MSG(walked == simple->evidence.size(),
                          "evaluated key set does not cover the evidence map");
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
  if (const Status s = snapshot::ReadVersion(r, kEngineFormatVersion, kWhat);
      !s.ok()) {
    return s;
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

  // --- cross-slide state ---------------------------------------------------
  // Everything below is built in place, behind one bounds check per
  // record; a failure part-way clears it all again.
  ClearState();
  const auto fail = [this] {
    ClearState();
    return snapshot::CorruptionIn(kWhat);
  };

  // --- input stores --------------------------------------------------------
  // The ordering bookkeeping and the subject index are derived, not stored:
  // the sorted prefix is whatever prefix of the stored order is sorted (a
  // snapshot taken with input pending keeps its unsorted tail), and the next
  // Recognize sorts the rest and builds the index.
  for (EventStore& store : input_events_) {
    if (!LoadEvents(r, &store.by_time)) return fail();
    DeriveInputOrder(&store);
  }
  if (!r.Bool(&input_dirty_)) return fail();
  for (auto& store : derived_events_) {
    if (!LoadEvents(r, &store)) return fail();
  }
  if (!r.Count(&n, kTermBytes + sizeof(uint64_t))) return fail();
  coords_.reserve(n);
  Term prev_vessel;
  for (uint64_t i = 0; i < n; ++i) {
    Term vessel;
    uint64_t m = 0;
    // SaveTo writes each vessel once, ascending.
    if (!r.Get(&vessel.kind, &vessel.id, &m) || !r.Fits(m, kFixBytes) ||
        (i > 0 && !(prev_vessel < vessel))) {
      return fail();
    }
    prev_vessel = vessel;
    CoordHistory& h = coords_.try_emplace(vessel).first->second;
    auto& vec = h.fixes;
    vec.reserve(m);
    for (uint64_t j = 0; j < m; ++j) {
      Timestamp t = 0;
      geo::GeoPoint pos;
      if (!r.Get(&t, &pos.lon, &pos.lat)) return fail();
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
  if (!r.Bool(&coords_dirty_)) return fail();
  RebuildCoordPurge();

  // --- committed timelines -------------------------------------------------
  // Keys arrive ascending, so the key memo is built as they are read.
  for (size_t fidx = 0; fidx < timelines_.size(); ++fidx) {
    auto& map = timelines_[fidx];
    auto& keys = fluent_keys_[fidx];
    auto& tls = fluent_timelines_[fidx];
    if (!r.Count(&n, kTermBytes + kTimelineBytes)) return fail();
    map.reserve(n);
    keys.reserve(n);
    tls.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Term key;
      if (!LoadTerm(r, &key) || (!keys.empty() && !(keys.back() < key))) {
        return fail();
      }
      FluentTimeline& tl = map.try_emplace(key).first->second;
      if (!LoadTimeline(r, &tl)) return fail();
      if (options_.incremental) tl.window = &read_window_;
      keys.push_back(key);
      tls.push_back(&tl);
    }
  }

  // --- incremental dirty + edge state --------------------------------------
  // SaveTo writes a flushed map: keys ascending, each once, with its
  // coalesced range.
  const auto load_dirty = [&r](DirtyMap* dm) {
    uint64_t count = 0;
    if (!r.Count(&count, kTermBytes + 2 * sizeof(int64_t))) return false;
    dm->at.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Term key;
      DirtyMap::MarkRange range{};
      if (!r.Get(&key.kind, &key.id, &range.min, &range.max) ||
          range.min > range.max ||
          (!dm->at.empty() && !(dm->at.back().first < key))) {
        return false;
      }
      dm->at.push_back({key, range});
      dm->any = std::min(dm->any, range.min);
    }
    return true;
  };
  for (auto& dm : dirty_events_) {
    if (!load_dirty(&dm)) return fail();
  }
  if (!load_dirty(&dirty_coords_)) return fail();
  if (!r.Bool(&dirty_all_)) return fail();
  for (auto& edge : edge_fluents_) {
    if (!LoadSortedTermVector(r, &edge)) return fail();
  }
  for (auto& e : edge_derived_) {
    bool b = false;
    if (!r.Bool(&b)) return fail();
    e = static_cast<char>(b);
  }
  if (!r.I64(&prev_query_)) return fail();
  // SaveTo wrote each timeline as read in the saved engine's last window.
  // Its symbolic bounds are marked again below, as the cache entries link
  // their slots; without a previous step (or with a window start that would
  // underflow) none are, and every timeline reads as stored.
  const bool windowed = options_.incremental &&
                        prev_query_ >= kInvalidTimestamp + window_.range;
  if (windowed) read_window_ = {prev_query_ - window_.range, prev_query_};

  // --- boundary inertia record ---------------------------------------------
  if (!r.I64(&boundary_.at)) return fail();
  if (!r.Count(&n, sizeof(uint64_t))) return fail();
  if (n != 0 && n != fluent_names_.size()) return fail();
  boundary_.values.assign(n, {});
  for (auto& bvec : boundary_.values) {
    uint64_t m = 0;
    if (!r.Count(&m, kTermBytes + sizeof(int32_t))) return fail();
    bvec.reserve(m);
    // Sorted by key at commit, each key once: CarriedValue binary-searches
    // it.
    for (uint64_t i = 0; i < m; ++i) {
      Term key;
      Value value = 0;
      if (!r.Get(&key.kind, &key.id, &value) ||
          (!bvec.empty() && !(bvec.back().first < key))) {
        return fail();
      }
      bvec.emplace_back(key, value);
    }
  }

  // --- per-definition caches -----------------------------------------------
  // A simple fluent's evidence arrives ascending by key, and its evaluated
  // key set is exactly those keys (every evaluated key has a cache entry;
  // naive mode keeps neither), so the key walk's parallel entry and slot
  // pointers are built as the entries are read. So is the clean-key
  // bypass's derived state (DESIGN.md §7): each entry is queued under its
  // earliest point, or listed as due when that point is at or before the
  // restored boundary (as the end of a step pops it), and also listed when
  // the restored bytes do not vouch for its clean fast-forward (a cached
  // point at or after the last query time, or a cached carried value other
  // than the boundary record's). The uninterrupted engine visits the same
  // keys or fewer, and a visited key fast-forwards exactly when the full
  // triage says so, so the output does not change.
  const bool have_boundary = boundary_.values.size() == fluent_names_.size();
  const std::vector<std::pair<Term, Value>> no_carried;
  for (size_t di = 0; di < definitions_.size(); ++di) {
    auto* simple = std::get_if<SimpleDefCache>(&def_caches_[di]);
    if (simple == nullptr) {
      if (!r.Bool(&std::get<DerivedDefCache>(def_caches_[di]).valid)) {
        return fail();
      }
      continue;
    }
    const size_t fidx = static_cast<size_t>(
        std::get<SimpleFluentSpec>(definitions_[di]).fluent);
    FluentKeyMap& tl_map = timelines_[fidx];
    const auto& carried = have_boundary ? boundary_.values[fidx] : no_carried;
    auto c = carried.begin();
    std::vector<Term>& keys = simple->keys;
    if (!r.Count(&n, kTermBytes + kEvidenceBytes)) return fail();
    simple->evidence.reserve(n);
    keys.reserve(n);
    simple->entries.reserve(n);
    simple->timelines.reserve(n);
    simple->due_queue.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Term key;
      if (!LoadTerm(r, &key) || (!keys.empty() && !(keys.back() < key))) {
        return fail();
      }
      CachedEvidence& ev = simple->evidence.try_emplace(key).first->second;
      if (!LoadEvidence(r, &ev)) return fail();
      keys.push_back(key);
      simple->entries.push_back(&ev);
      const auto tl_it = tl_map.find(key);
      FluentTimeline* tl = tl_it == tl_map.end() ? nullptr : &tl_it->second;
      simple->timelines.push_back(tl);
      if (tl != nullptr && windowed) MarkWindowBounds(tl);
      while (c != carried.end() && c->first < key) ++c;
      const bool carried_matches = c != carried.end() && c->first == key
                                       ? ev.carried_value == c->second
                                       : !ev.carried_value.has_value();
      const bool due = ev.min_t <= boundary_.at;
      ev.queued = due ? kTimestampNever : ev.min_t;
      if (!due && ev.min_t != kTimestampNever) {
        simple->due_queue.emplace_back(ev.min_t, key);
      }
      if (due || ev.max_t >= prev_query_ ||
          (have_boundary && !carried_matches)) {
        simple->due.push_back(key);
      }
    }
    std::make_heap(simple->due_queue.begin(), simple->due_queue.end(),
                   DueLater);
    uint64_t m = 0;
    if (!r.Count(&m, kTermBytes) || m != n) return fail();
    for (const Term& key : keys) {
      Term stored;
      if (!LoadTerm(r, &stored) || !(stored == key)) return fail();
    }
  }

  uint64_t hits = 0, misses = 0, evictions = 0;
  uint64_t spans_narrowed = 0, fleet_floor_hits = 0;
  if (!r.Get(&hits, &misses, &evictions, &spans_narrowed, &fleet_floor_hits)) {
    return fail();
  }
  cache_stats_.hits = static_cast<size_t>(hits);
  cache_stats_.misses = static_cast<size_t>(misses);
  cache_stats_.evictions = static_cast<size_t>(evictions);
  cache_stats_.spans_narrowed = static_cast<size_t>(spans_narrowed);
  cache_stats_.fleet_floor_hits = static_cast<size_t>(fleet_floor_hits);
  return Status::OK();
}

void Engine::ClearState() {
  for (EventStore& store : input_events_) {
    store.by_time.clear();
    store.sorted = 0;
    store.indexed = 0;
    store.by_subject.clear();
    store.subjects.clear();
  }
  input_dirty_ = false;
  for (auto& store : derived_events_) store.clear();
  coords_.clear();
  coords_unsorted_.clear();
  coord_purge_.clear();
  coords_dirty_ = false;
  for (size_t fidx = 0; fidx < timelines_.size(); ++fidx) {
    timelines_[fidx].clear();
    fluent_keys_[fidx].clear();
    fluent_timelines_[fidx].clear();
  }
  for (auto& dm : dirty_events_) dm.Clear();
  dirty_coords_.Clear();
  dirty_all_ = true;
  for (auto& dm : changed_fluents_) dm.Clear();
  std::fill(changed_derived_.begin(), changed_derived_.end(), kTimestampNever);
  for (auto& edge : edge_fluents_) edge.clear();
  for (auto& edge : prev_edge_fluents_) edge.clear();
  std::fill(edge_derived_.begin(), edge_derived_.end(), 0);
  prev_query_ = kInvalidTimestamp;
  read_window_ = TimelineWindow{};
  boundary_ = BoundaryRecord{};
  for (auto& cache : def_caches_) {
    if (auto* simple = std::get_if<SimpleDefCache>(&cache)) {
      simple->evidence.clear();
      simple->keys.clear();
      simple->entries.clear();
      simple->timelines.clear();
      simple->due_queue.clear();
      simple->due.clear();
      simple->visited.clear();
      simple->swept = true;
    } else {
      std::get<DerivedDefCache>(cache).valid = false;
    }
  }
  cache_stats_ = EngineCacheStats{};
}

}  // namespace maritime::rtec
