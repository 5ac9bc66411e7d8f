#include "rtec/engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/check.h"

namespace maritime::rtec {
namespace {

bool EventOrder(const EventInstance& a, const EventInstance& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.subject != b.subject) return a.subject < b.subject;
  return a.object < b.object;
}

/// Min-heap order of the coord purge schedule (earliest time on top).
bool PurgeLater(const std::pair<Timestamp, Term>& a,
                const std::pair<Timestamp, Term>& b) {
  if (a.first != b.first) return a.first > b.first;
  return b.second < a.second;
}

/// Order of the subject index: by subject, then as EventOrder.
bool SubjectOrder(const EventInstance& a, const EventInstance& b) {
  if (a.subject != b.subject) return a.subject < b.subject;
  if (a.t != b.t) return a.t < b.t;
  return a.object < b.object;
}

/// Merges the sorted run `run` (which must not alias `v`) into `v`, whose
/// first `prefix` elements are sorted, leaving v == sorted(v[0, prefix) +
/// run). Backward merge: only the prefix elements later than the run's
/// first one move, so a run that lands at the end costs O(run). Each run
/// element finds its place by binary search and the prefix elements after
/// it move up in one block, so a short run spread over a long prefix costs
/// block moves, not a comparison per prefix element. Stable: prefix
/// elements precede equal run elements.
template <typename T, typename Less>
void MergeSortedRun(std::vector<T>* v, size_t prefix, std::span<const T> run,
                    Less less) {
  v->resize(prefix + run.size());
  const auto first = v->begin();
  size_t i = prefix;
  size_t out = v->size();
  for (size_t j = run.size(); j > 0; --j) {
    const T& x = run[j - 1];
    const size_t at = static_cast<size_t>(
        std::upper_bound(first, first + static_cast<ptrdiff_t>(i), x, less) -
        first);
    std::move_backward(first + static_cast<ptrdiff_t>(at),
                       first + static_cast<ptrdiff_t>(i),
                       first + static_cast<ptrdiff_t>(out));
    out -= i - at;
    i = at;
    (*v)[--out] = x;
  }
}

/// The distinct subjects of a SubjectOrder-sorted list, ascending.
void DistinctSubjects(const std::vector<EventInstance>& by_subject,
                      std::vector<Term>* subjects) {
  subjects->clear();
  for (const EventInstance& e : by_subject) {
    if (subjects->empty() || subjects->back() != e.subject) {
      subjects->push_back(e.subject);
    }
  }
}

/// Copies the in-window suffix of `src` into `out` (arena-backed during
/// evaluation): the cache-hit path's prune-while-copying.
void CopyInWindowPoints(std::span<const ValuedPoint> src,
                        Timestamp window_start, PointVec* out) {
  out->reserve(src.size());
  for (const ValuedPoint& p : src) {
    if (p.t > window_start) out->push_back(p);
  }
}

/// True iff the sorted point list contains a point at exactly `t`; used to
/// detect evidence touching the window's leading edge (see edge_fluents_).
bool HasPointAtTime(std::span<const ValuedPoint> pts, Timestamp t) {
  for (auto it = pts.rbegin(); it != pts.rend() && it->t >= t; ++it) {
    if (it->t == t) return true;
  }
  return false;
}

/// Serial triage record of one visited simple-fluent key: its cache entry,
/// its regeneration region, and whether it takes the clean fast-forward
/// (then it never enters the evaluation phase). Region telemetry rides
/// along to the commit loop.
struct KeyTriage {
  uint32_t index = 0;  ///< Position in the evaluated key set.
  CachedEvidence* entry = nullptr;
  // Escape is sound: points into the heap-backed committed timeline map.
  MARITIME_ARENA_ESCAPE_OK FluentTimeline* timeline = nullptr;
  std::optional<Value> carried;  ///< Boundary value carried into the window.
  Timestamp region_from = kTimestampNever;  ///< kTimestampNever = clean.
  bool fast = false;
  bool narrowed = false;
  bool fleet_floor = false;
};

/// Per-key result of one simple-fluent evaluation; kept aside so the commit
/// — cache writes, result rows, dirty marks — happens in key order after the
/// whole layer is evaluated. All containers bump the slide arena; the commit
/// copies survivors out to the heap.
struct MARITIME_ARENA_SCOPED SimpleOutcome {
  FluentEvidence evidence;
  FluentTimeline timeline;
  bool hit = false;
  std::optional<Timestamp> change_at;

  explicit SimpleOutcome(common::Arena* arena)
      : evidence(arena), timeline(arena) {}
};

}  // namespace

// --- EvalContext -----------------------------------------------------------

const std::vector<EventInstance>& EvalContext::Events(EventId e) const {
  return engine_->EventsOf(e);
}

const std::vector<Term>& EvalContext::Subjects(EventId e) const {
  return engine_->SubjectsOf(e);
}

std::span<const EventInstance> EvalContext::EventsOf(EventId e,
                                                     Term subject) const {
  return engine_->EventsOf(e, subject);
}

const std::vector<Term>& EvalContext::FluentKeys(FluentId f) const {
  return engine_->fluent_keys_[static_cast<size_t>(f)];
}

const std::vector<const FluentTimeline*>& EvalContext::FluentTimelines(
    FluentId f) const {
  return engine_->fluent_timelines_[static_cast<size_t>(f)];
}

const FluentTimeline& EvalContext::Timeline(FluentId f, Term key) const {
  return engine_->TimelineOf(f, key);
}

std::optional<geo::GeoPoint> EvalContext::CoordAt(Term vessel,
                                                  Timestamp t) const {
  return engine_->CoordOf(vessel, t);
}

void EvalContext::ForEachCoordCovering(
    Term vessel, Timestamp from,
    const std::function<void(Timestamp, const geo::GeoPoint&)>& fn) const {
  engine_->ForEachCoordCovering(vessel, from, fn);
}

// --- Engine ------------------------------------------------------------------

Engine::Engine(stream::WindowSpec window, EngineOptions options)
    : window_(window), options_(options) {
  assert(window_.Validate().ok());
}

// Room for this many events (fluents) is made at the first declaration: a
// schema declares about a dozen, and each declaration grows six or seven
// parallel vectors, so growing them one doubling at a time would cost a
// pipeline build (and with it every restore) some 50 allocations.
constexpr size_t kInitialDeclarations = 16;

EventId Engine::DeclareEvent(std::string name) {
  if (event_names_.empty()) {
    event_names_.reserve(kInitialDeclarations);
    input_events_.reserve(kInitialDeclarations);
    derived_events_.reserve(kInitialDeclarations);
    dirty_events_.reserve(kInitialDeclarations);
    changed_derived_.reserve(kInitialDeclarations);
    edge_derived_.reserve(kInitialDeclarations);
  }
  const EventId id = static_cast<EventId>(event_names_.size());
  event_names_.push_back(std::move(name));
  input_events_.emplace_back();
  derived_events_.emplace_back();
  dirty_events_.emplace_back();
  changed_derived_.push_back(kTimestampNever);
  edge_derived_.push_back(0);
  return id;
}

FluentId Engine::DeclareFluent(std::string name) {
  if (fluent_names_.empty()) {
    fluent_names_.reserve(kInitialDeclarations);
    timelines_.reserve(kInitialDeclarations);
    fluent_keys_.reserve(kInitialDeclarations);
    fluent_timelines_.reserve(kInitialDeclarations);
    changed_fluents_.reserve(kInitialDeclarations);
    edge_fluents_.reserve(kInitialDeclarations);
    prev_edge_fluents_.reserve(kInitialDeclarations);
  }
  const FluentId id = static_cast<FluentId>(fluent_names_.size());
  fluent_names_.push_back(std::move(name));
  timelines_.emplace_back();
  fluent_keys_.emplace_back();
  fluent_timelines_.emplace_back();
  changed_fluents_.emplace_back();
  edge_fluents_.emplace_back();
  prev_edge_fluents_.emplace_back();
  return id;
}

void Engine::AddSimpleFluent(SimpleFluentSpec spec) {
  assert(spec.fluent >= 0 &&
         static_cast<size_t>(spec.fluent) < fluent_names_.size());
  assert(spec.domain && spec.rules);
  definitions_.emplace_back(std::move(spec));
  def_caches_.emplace_back(SimpleDefCache{});
  def_regen_stats_.emplace_back();
}

void Engine::AddDerivedEvent(DerivedEventSpec spec) {
  assert(spec.event >= 0 &&
         static_cast<size_t>(spec.event) < event_names_.size());
  assert(spec.compute);
  definitions_.emplace_back(std::move(spec));
  def_caches_.emplace_back(DerivedDefCache{});
  def_regen_stats_.emplace_back();
}

void Engine::AssertEvent(EventId e, Term subject, Timestamp t, Term object) {
  assert(e >= 0 && static_cast<size_t>(e) < event_names_.size());
  EventStore& store = input_events_[static_cast<size_t>(e)];
  const EventInstance inst{subject, object, t};
  const bool in_order =
      store.sorted == store.by_time.size() &&
      (store.by_time.empty() || !EventOrder(inst, store.by_time.back()));
  store.by_time.push_back(inst);
  if (in_order) store.sorted = store.by_time.size();
  input_dirty_ = true;
  if (options_.incremental) {
    dirty_events_[static_cast<size_t>(e)].Mark(subject, t);
  }
}

void Engine::AssertCoord(Term vessel, Timestamp t, geo::GeoPoint pos) {
  CoordHistory& h = coords_[vessel];
  // A vessel's first fix sizes its history for kInitialFixCapacity fixes,
  // sparing the doubling chain every newly seen vessel would otherwise
  // allocate through (the spatial-facts feed path is otherwise
  // allocation-free per point).
  if (h.fixes.capacity() == 0) h.fixes.reserve(kInitialFixCapacity);
  const bool was_sorted = h.sorted == h.fixes.size();
  const bool in_order =
      was_sorted && (h.fixes.empty() || t >= h.fixes.back().first);
  if (was_sorted && !in_order) coords_unsorted_.push_back(vessel);
  h.fixes.emplace_back(t, pos);
  if (in_order) h.sorted = h.fixes.size();
  coord_purge_.emplace_back(t, vessel);
  std::push_heap(coord_purge_.begin(), coord_purge_.end(), PurgeLater);
  coords_dirty_ = true;
  if (options_.incremental) {
    dirty_coords_.Mark(vessel, t);
  }
}

void Engine::PurgeBefore(Timestamp inclusive_cutoff) {
  // Stores are sorted (Recognize sorts pending input first), so the purged
  // occurrences are a prefix of `by_time` and, per subject, a prefix of that
  // subject's run in the index.
  for (EventStore& store : input_events_) {
    MARITIME_DCHECK_MSG(store.indexed == store.by_time.size(),
                        "input store purged before its pending run merged");
    const auto keep_from = std::partition_point(
        store.by_time.begin(), store.by_time.end(),
        [&](const EventInstance& i) { return i.t <= inclusive_cutoff; });
    const size_t purged =
        static_cast<size_t>(keep_from - store.by_time.begin());
    if (purged == 0) continue;
    // In the index, the purged occurrences of a subject lead its run. Drop
    // those run prefixes, moving what lies between them in blocks, and the
    // subjects left without an occurrence.
    subject_scratch_.clear();
    for (auto it = store.by_time.begin(); it != keep_from; ++it) {
      subject_scratch_.push_back(it->subject);
    }
    std::sort(subject_scratch_.begin(), subject_scratch_.end());
    subject_scratch_.erase(
        std::unique(subject_scratch_.begin(), subject_scratch_.end()),
        subject_scratch_.end());
    auto& index = store.by_subject;
    auto read = index.begin();
    auto out = index.begin();
    size_t emptied = 0;
    for (const Term& subject : subject_scratch_) {
      const auto run = std::partition_point(
          read, index.end(),
          [&](const EventInstance& i) { return i.subject < subject; });
      const auto kept = std::partition_point(
          run, index.end(), [&](const EventInstance& i) {
            return i.subject == subject && i.t <= inclusive_cutoff;
          });
      out = std::move(read, run, out);
      read = kept;
      if (kept == index.end() || kept->subject != subject) {
        subject_scratch_[emptied++] = subject;
      }
    }
    index.erase(std::move(read, index.end(), out), index.end());
    if (emptied > 0) {
      auto gone = subject_scratch_.begin();
      const auto gone_end = gone + static_cast<ptrdiff_t>(emptied);
      store.subjects.erase(
          std::remove_if(store.subjects.begin(), store.subjects.end(),
                         [&](const Term& t) {
                           while (gone != gone_end && *gone < t) ++gone;
                           return gone != gone_end && *gone == t;
                         }),
          store.subjects.end());
    }
    store.by_time.erase(store.by_time.begin(), keep_from);
    store.sorted -= purged;
    store.indexed -= purged;
  }
}

void Engine::PurgeCoordsBefore(Timestamp inclusive_cutoff) {
  // Last-known-position inertia: retain the latest fix at or before the
  // cutoff as the vessel's boundary position (the coordinate analogue of the
  // fluent boundary values). For every in-window time t >= cutoff, CoordOf(t)
  // then answers identically before and after the purge — older fixes are
  // shadowed by the boundary fix anyway — so purging never invalidates
  // cached incremental evaluations, and a moored vessel that emits no
  // critical point for longer than the window keeps a position (which is how
  // the maritime surveillance rules expect `close` to behave). Memory cost:
  // one retained fix per vessel ever seen. Requires sorted histories
  // (Recognize sorts pending input before evaluating). Only vessels with a fix
  // at or before the cutoff that was not yet past an earlier cutoff can hold
  // more than one fix there; the schedule yields exactly those.
  while (!coord_purge_.empty() &&
         coord_purge_.front().first <= inclusive_cutoff) {
    const Term vessel = coord_purge_.front().second;
    std::pop_heap(coord_purge_.begin(), coord_purge_.end(), PurgeLater);
    coord_purge_.pop_back();
    CoordHistory& h = coords_.find(vessel)->second;
    auto& vec = h.fixes;
    const auto keep_from = std::partition_point(
        vec.begin(), vec.end(),
        [&](const auto& p) { return p.first <= inclusive_cutoff; });
    if (keep_from - vec.begin() > 1) {
      const size_t erased = static_cast<size_t>(keep_from - vec.begin()) - 1;
      vec.erase(vec.begin(), keep_from - 1);
      h.sorted -= erased;
    }
  }
}

void Engine::DeriveInputOrder(EventStore* store) {
  auto& events = store->by_time;
  store->sorted = static_cast<size_t>(
      std::is_sorted_until(events.begin(), events.end(), EventOrder) -
      events.begin());
  store->indexed = 0;
  store->by_subject.clear();
  store->subjects.clear();
}

void Engine::RebuildCoordPurge() {
  std::make_heap(coord_purge_.begin(), coord_purge_.end(), PurgeLater);
}

void Engine::SortPendingInput() {
  for (EventStore& store : input_events_) {
    if (store.indexed == store.by_time.size()) continue;
    // The pending run: everything asserted since the last merge. Sort a
    // copy, merge it back behind the sorted prefix, then into the index.
    const size_t prefix = store.indexed;
    merge_scratch_.assign(
        store.by_time.begin() + static_cast<ptrdiff_t>(prefix),
        store.by_time.end());
    if (store.sorted < store.by_time.size()) {
      std::sort(merge_scratch_.begin(), merge_scratch_.end(), EventOrder);
      MergeSortedRun(&store.by_time, prefix,
                     std::span<const EventInstance>(merge_scratch_),
                     EventOrder);
    }
    std::sort(merge_scratch_.begin(), merge_scratch_.end(), SubjectOrder);
    MergeSortedRun(&store.by_subject, store.by_subject.size(),
                   std::span<const EventInstance>(merge_scratch_),
                   SubjectOrder);
    // The run's subjects merged into the subject list.
    DistinctSubjects(merge_scratch_, &subject_scratch_);
    MergeSortedRun(&store.subjects, store.subjects.size(),
                   std::span<const Term>(subject_scratch_),
                   [](const Term& a, const Term& b) { return a < b; });
    store.subjects.erase(
        std::unique(store.subjects.begin(), store.subjects.end()),
        store.subjects.end());
    store.sorted = store.indexed = store.by_time.size();
  }
  input_dirty_ = false;
  // Out-of-order coords: insert each tail fix after every fix of equal or
  // earlier time (upper_bound), in arrival order — a stable insertion sort
  // of the tail into the prefix, touching only these vessels.
  for (const Term& vessel : coords_unsorted_) {
    CoordHistory& h = coords_.find(vessel)->second;
    auto& vec = h.fixes;
    for (size_t i = h.sorted; i < vec.size(); ++i) {
      const auto fix = vec[i];
      const auto end = vec.begin() + static_cast<ptrdiff_t>(i);
      const auto at = std::upper_bound(
          vec.begin(), end, fix.first,
          [](Timestamp t, const auto& p) { return t < p.first; });
      std::move_backward(at, end, end + 1);
      *at = fix;
    }
    h.sorted = vec.size();
  }
  coords_unsorted_.clear();
  coords_dirty_ = false;
}

size_t Engine::buffered_events() const {
  size_t n = 0;
  for (const EventStore& store : input_events_) n += store.by_time.size();
  return n;
}

size_t Engine::cache_entry_count() const {
  size_t n = 0;
  for (const auto& cache : def_caches_) {
    if (const auto* simple = std::get_if<SimpleDefCache>(&cache)) {
      n += simple->evidence.size();
    } else if (std::get<DerivedDefCache>(cache).valid) {
      n += 1;
    }
  }
  return n;
}

const std::vector<EventInstance>& Engine::EventsOf(EventId e) const {
  assert(e >= 0 && static_cast<size_t>(e) < event_names_.size());
  // Derived events shadow-extend the input store; during recognition the
  // derived store holds this step's occurrences (input events and derived
  // events never share an id in practice: inputs are asserted, deriveds are
  // computed).
  const auto& derived = derived_events_[static_cast<size_t>(e)];
  if (!derived.empty()) return derived;
  return input_events_[static_cast<size_t>(e)].by_time;
}

const std::vector<Term>& Engine::SubjectsOf(EventId e) const {
  assert(e >= 0 && static_cast<size_t>(e) < event_names_.size());
  return input_events_[static_cast<size_t>(e)].subjects;
}

std::span<const EventInstance> Engine::EventsOf(EventId e,
                                                Term subject) const {
  assert(e >= 0 && static_cast<size_t>(e) < event_names_.size());
  const auto& index = input_events_[static_cast<size_t>(e)].by_subject;
  const auto [lo, hi] = std::equal_range(
      index.begin(), index.end(), EventInstance{subject, Term::None(), 0},
      [](const EventInstance& a, const EventInstance& b) {
        return a.subject < b.subject;
      });
  return std::span<const EventInstance>(index).subspan(
      static_cast<size_t>(lo - index.begin()),
      static_cast<size_t>(hi - lo));
}

const FluentTimeline& Engine::TimelineOf(FluentId f, Term key) const {
  const auto& map = timelines_[static_cast<size_t>(f)];
  const auto it = map.find(key);
  return it == map.end() ? empty_timeline_ : it->second;
}

std::vector<Term> Engine::KeysOf(FluentId f) const {
  return fluent_keys_[static_cast<size_t>(f)];
}

std::optional<geo::GeoPoint> Engine::CoordOf(Term vessel, Timestamp t) const {
  const auto it = coords_.find(vessel);
  if (it == coords_.end()) return std::nullopt;
  const auto& vec = it->second.fixes;
  // Last entry with time <= t (of equal-time fixes, the one asserted last).
  auto pos = std::partition_point(
      vec.begin(), vec.end(), [t](const auto& p) { return p.first <= t; });
  if (pos == vec.begin()) return std::nullopt;
  return (pos - 1)->second;
}

void Engine::ForEachCoordCovering(
    Term vessel, Timestamp from,
    const std::function<void(Timestamp, const geo::GeoPoint&)>& fn) const {
  const auto it = coords_.find(vessel);
  if (it == coords_.end()) return;
  const auto& vec = it->second.fixes;
  // First entry with time > `from`, then step back once so the fix CoordAt
  // would return throughout [from, next fix) is included. Requires `vec`
  // sorted by time (Recognize sorts pending input before evaluation starts).
  auto pos = std::partition_point(
      vec.begin(), vec.end(), [from](const auto& p) { return p.first <= from; });
  if (pos != vec.begin()) --pos;
  for (; pos != vec.end(); ++pos) fn(pos->first, pos->second);
}

FluentTimeline& Engine::TimelineSlot(size_t fidx, Term key) {
  FluentKeyMap& map = timelines_[fidx];
  const auto it = map.find(key);
  if (it != map.end()) return it->second;
  FluentTimeline* slot = nullptr;
  if (!timeline_pool_.empty()) {
    FluentKeyMap::node_type nh = std::move(timeline_pool_.back());
    timeline_pool_.pop_back();
    nh.key() = key;
    slot = &map.insert(std::move(nh)).position->second;
  } else {
    slot = &map[key];
  }
  // Committed incremental timelines keep their window bounds symbolic; a
  // naive engine rewrites every timeline each step and reads them as stored.
  slot->window = options_.incremental ? &read_window_ : nullptr;
  return *slot;
}

Engine::FluentKeyMap::iterator Engine::RecycleTimeline(
    FluentKeyMap& map, FluentKeyMap::iterator it) {
  const auto next = std::next(it);
  timeline_pool_.push_back(map.extract(it));
  return next;
}

MARITIME_COMMIT_BOUNDARY void Engine::SpliceKeyMemo(
    size_t fidx, std::span<const std::pair<Term, const FluentTimeline*>> added,
    std::span<const Term> removed) {
  if (added.empty() && removed.empty()) return;
  auto& memo = fluent_keys_[fidx];
  auto& tls = fluent_timelines_[fidx];
  // One merge pass into the scratch pair, then a copy back, so each vector
  // keeps its own capacity.
  key_scratch_.clear();
  memo_scratch_.clear();
  key_scratch_.reserve(memo.size() + added.size());
  memo_scratch_.reserve(memo.size() + added.size());
  size_t a = 0;
  size_t r = 0;
  for (size_t i = 0; i < memo.size(); ++i) {
    while (a < added.size() && added[a].first < memo[i]) {
      key_scratch_.push_back(added[a].first);
      memo_scratch_.push_back(added[a++].second);
    }
    while (r < removed.size() && removed[r] < memo[i]) ++r;
    if (r < removed.size() && removed[r] == memo[i]) continue;
    key_scratch_.push_back(memo[i]);
    memo_scratch_.push_back(tls[i]);
  }
  for (; a < added.size(); ++a) {
    key_scratch_.push_back(added[a].first);
    memo_scratch_.push_back(added[a].second);
  }
  memo.assign(key_scratch_.begin(), key_scratch_.end());
  tls.assign(memo_scratch_.begin(), memo_scratch_.end());
}

std::optional<Value> Engine::BoundaryValue(const FluentTimeline* tl,
                                           Timestamp next_wstart,
                                           Timestamp q) {
  if (tl == nullptr) return std::nullopt;
  return next_wstart >= q ? tl->open_value : tl->ValueRightOf(next_wstart);
}

bool Engine::DueLater(const std::pair<Timestamp, Term>& a,
                      const std::pair<Timestamp, Term>& b) {
  return a.first > b.first;
}

void Engine::PopDue(SimpleDefCache& cache, Timestamp until) {
  auto& heap = cache.due_queue;
  while (!heap.empty() && heap.front().first <= until) {
    const auto [t, key] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), DueLater);
    heap.pop_back();
    const auto it = cache.evidence.find(key);
    if (it == cache.evidence.end() || it->second.queued != t) continue;
    it->second.queued = kTimestampNever;
    cache.due.push_back(key);
  }
  std::sort(cache.due.begin(), cache.due.end());
}

void Engine::MarkWindowBounds(FluentTimeline* tl) const {
  for (const FluentTimeline::ValueSlice& s : tl->slices) {
    if (s.ival_begin == s.ival_end) continue;
    if (tl->carried_at == FluentTimeline::kNoInterval &&
        tl->interval_store[s.ival_begin].since == read_window_.start) {
      tl->carried_at = s.ival_begin;
    }
    if (tl->open_value == s.value &&
        tl->interval_store[s.ival_end - 1].till == read_window_.query) {
      tl->open_at = s.ival_end - 1;
    }
  }
}

std::vector<Term> Engine::EvalKeys(const SimpleFluentSpec& spec,
                                   const EvalContext& ctx,
                                   bool have_boundary) {
  std::vector<Term> keys = spec.domain(ctx);
  // Domains built from sorted sources (the subject index, an area list
  // sorted at registration) arrive sorted and unique; only the others pay
  // the sort.
  const bool sorted_unique =
      std::adjacent_find(keys.begin(), keys.end(),
                         [](const Term& a, const Term& b) {
                           return !(a < b);
                         }) == keys.end();
  if (!sorted_unique) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  const FluentId fluent = spec.fluent;
  if (!have_boundary || fluent < 0) return keys;
  // Inertia: keys whose value persists from before this window must be
  // evaluated even without fresh evidence. The carried record is sorted by
  // key, so merge it in (a set union) instead of appending and re-sorting.
  const auto& carried = boundary_.values[static_cast<size_t>(fluent)];
  if (carried.empty()) return keys;
  // Both sides are sorted and unique: a key in both is taken once.
  std::vector<Term> merged;
  merged.reserve(keys.size() + carried.size());
  auto k = keys.begin();
  auto c = carried.begin();
  while (k != keys.end() && c != carried.end()) {
    if (*k < c->first) {
      merged.push_back(*k++);
    } else {
      if (*k == c->first) ++k;
      merged.push_back((c++)->first);
    }
  }
  merged.insert(merged.end(), k, keys.end());
  for (; c != carried.end(); ++c) merged.push_back(c->first);
  return merged;
}

/// Builds the dependency-scoped dirty view of one cross-key definition
/// (DESIGN.md §14): every dirty *input* key across the declared channels is
/// projected to the output keys it can reach, each marked at that input's
/// earliest dirty time. Runs before the evaluation phase; the scratch it
/// commits into is read-only during evaluation.
/// Iteration is over flat key-sorted mark vectors, so the committed marks
/// are deterministic regardless of projector hash orders.
MARITIME_COMMIT_BOUNDARY const Engine::ScopedDirty* Engine::ComputeScopedDirty(
    const DependencySpec& deps, bool cross_key, const EvalContext& ctx) {
  const bool cross = cross_key || deps.cross_key;
  if (!cross || !deps.project) return nullptr;
  ScopedDirty& s = scoped_scratch_;
  s.Reset();
  s.active = true;
  // The memo lives for this one definition: the same input key is often
  // dirty on several channels (an event, an upstream fluent, its coords)
  // and a projection from an earlier time subsumes later ones.
  ++projection_gen_;
  const auto add_mark = [&](Term in_key, Timestamp from) {
    auto [it, inserted] = projection_memo_.try_emplace(in_key);
    Projection& p = it->second;
    if (inserted || p.gen != projection_gen_ || from < p.from) {
      p.gen = projection_gen_;
      p.from = from;
      p.keys.clear();
      p.ok = deps.project(ctx, in_key, from, &p.keys);
    }
    if (!p.ok) {
      // Input key outside the projector's key space: sound fallback is to
      // treat the mark as reaching every output key.
      s.unscoped = std::min(s.unscoped, from);
      return;
    }
    // p.keys may have been projected from an earlier time than `from` (memo
    // reuse); that is a superset of the keys reachable from `from`, and each
    // is marked at this channel's own time — conservative both ways.
    for (const Term& out_key : p.keys) s.by_key.Mark(out_key, from);
  };
  for (const EventId e : deps.events) {
    for (const auto& [k, range] : dirty_events_[static_cast<size_t>(e)].at) {
      add_mark(k, range.min);
    }
    // Changes to a derived event carry no key: unscoped by construction.
    s.unscoped = std::min(s.unscoped, changed_derived_[static_cast<size_t>(e)]);
  }
  for (const FluentId f : deps.fluents) {
    for (const auto& [k, range] : changed_fluents_[static_cast<size_t>(f)].at) {
      add_mark(k, range.min);
    }
  }
  if (deps.coords) {
    for (const auto& [k, range] : dirty_coords_.at) add_mark(k, range.min);
  }
  s.by_key.Flush();
  return &s;
}

Engine::RegenRegion Engine::DirtyRegionFor(const DependencySpec& deps,
                                           Term key, bool cross_key,
                                           Timestamp wstart,
                                           const ScopedDirty* scoped,
                                           RegionStats* stats) const {
  const bool cross = cross_key || deps.cross_key;
  Timestamp from = kTimestampNever;
  for (const EventId e : deps.events) {
    const auto& dm = dirty_events_[static_cast<size_t>(e)];
    from = std::min(from, cross ? dm.any : dm.For(key));
    from = std::min(from, changed_derived_[static_cast<size_t>(e)]);
  }
  for (const FluentId f : deps.fluents) {
    const auto& dm = changed_fluents_[static_cast<size_t>(f)];
    from = std::min(from, cross ? dm.any : dm.For(key));
  }
  if (deps.coords) {
    from = std::min(from, cross ? dirty_coords_.any : dirty_coords_.For(key));
  }
  if (cross && scoped != nullptr && scoped->active) {
    // Dependency-scoped narrowing: this output key regenerates from the
    // earliest change among *its* projected dependencies (plus anything that
    // could not be attributed to an output key), instead of the fleet-wide
    // floor `from` computed above. ScopedDirty folded every channel of the
    // spec in, so the scoped time replaces — never merely caps — the floor.
    // The keyless (derived-event) case narrows in time only: the min over
    // all projected marks.
    const Timestamp scoped_from = std::min(
        key == Term::None() ? scoped->by_key.any : scoped->by_key.For(key),
        scoped->unscoped);
    if (stats != nullptr && scoped_from > from) stats->narrowed = true;
    from = scoped_from;
  } else if (cross && stats != nullptr && from != kTimestampNever) {
    stats->fleet_floor = true;
  }
  if (from <= wstart) {
    return RegenRegion{wstart};  // Canonical full recomputation.
  }
  return RegenRegion{from};
}

// --- simple fluents ----------------------------------------------------------

void Engine::EvaluateSimple(const SimpleFluentSpec& spec, SimpleDefCache& cache,
                            const EvalContext& ctx, bool have_boundary,
                            RecognitionResult* result) {
  const size_t fidx = static_cast<size_t>(spec.fluent);
  const Timestamp wstart = ctx.window_start();
  const Timestamp q = ctx.query_time();
  // Naive mode is the whole-window region without a cache: every key
  // regenerates from the window start, and the commit writes no cache
  // entry, change mark or edge mark.
  const bool incremental = options_.incremental;
  const bool whole_window = !incremental || dirty_all_;
  const std::vector<Term> keys = EvalKeys(spec, ctx, have_boundary);

  // Dependency-scoped dirty view (cross-key definitions with a projector
  // only): computed once per definition, before the evaluation phase.
  const ScopedDirty* scoped =
      (!whole_window && spec.deps.has_value())
          ? ComputeScopedDirty(*spec.deps, /*cross_key=*/false, ctx)
          : nullptr;

  // Key-set change. The previous key set is the cache's (incremental) or
  // the key memo (naive mode keeps no key set of its own); both are sorted,
  // as is `keys`, so one merge walk finds the keys that enter and leave.
  // Incremental mode re-aligns the cache's per-key entry and slot arrays
  // with the new key set on the way (an entering key has no cache entry,
  // and a timeline slot only if a restored snapshot holds one).
  common::Arena* const arena = &arena_;
  const std::vector<Term>& old_keys =
      incremental ? cache.keys : fluent_keys_[fidx];
  const bool same_keys = keys == old_keys;
  common::ArenaVector<uint32_t> entering{
      common::ArenaAllocator<uint32_t>(arena)};
  common::ArenaVector<Term> leaving{common::ArenaAllocator<Term>(arena)};
  if (!same_keys) {
    entry_scratch_.clear();
    slot_scratch_.clear();
    size_t j = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      while (j < old_keys.size() && old_keys[j] < keys[i]) {
        leaving.push_back(old_keys[j++]);
      }
      const bool kept = j < old_keys.size() && old_keys[j] == keys[i];
      if (!kept) entering.push_back(static_cast<uint32_t>(i));
      if (incremental && kept) {
        entry_scratch_.push_back(cache.entries[j]);
        slot_scratch_.push_back(cache.timelines[j]);
      } else if (incremental) {
        const auto tl_it = timelines_[fidx].find(keys[i]);
        entry_scratch_.push_back(nullptr);
        slot_scratch_.push_back(
            tl_it == timelines_[fidx].end() ? nullptr : &tl_it->second);
      }
      if (kept) ++j;
    }
    leaving.insert(leaving.end(), old_keys.begin() + static_cast<ptrdiff_t>(j),
                   old_keys.end());
    if (incremental) {
      cache.entries.assign(entry_scratch_.begin(), entry_scratch_.end());
      cache.timelines.assign(slot_scratch_.begin(), slot_scratch_.end());
      cache.keys = keys;
    }
  }

  // Which keys this step visits. A step is sparse when no dirty time
  // applies to every key alike (a keyless derived-event change, the
  // fleet-wide floor of a cross-key definition without a projector, an
  // unattributed projection) and the clean fast-forward is possible at all.
  // It then visits only (DESIGN.md §7 "Clean-key bypass"):
  //  - keys marked on a declared channel, found by walking the key-sorted
  //    mark vectors;
  //  - keys due: their earliest cached point reached the window start (the
  //    due queue popped them at the end of the previous step);
  //  - keys with a cached point at the previous query time (last step's
  //    edge marks of this fluent);
  //  - keys entering the key set.
  // Every other key passes the fast-forward test unseen: no mark, no point
  // at or before the window start or at the previous query time, and a
  // carried value that cannot have changed (its boundary value moves only
  // when the window start passes one of its points). Its cached evidence
  // and committed timeline stand; the symbolic window bounds slide it.
  const bool can_fast = have_boundary && prev_query_ != kInvalidTimestamp &&
                        prev_query_ <= q;
  Timestamp uniform = kTimestampNever;
  Timestamp fleet_floor = kTimestampNever;
  if (spec.deps.has_value()) {
    const DependencySpec& deps = *spec.deps;
    for (const EventId e : deps.events) {
      const Timestamp derived = changed_derived_[static_cast<size_t>(e)];
      uniform = std::min(uniform, derived);
      fleet_floor = std::min(
          {fleet_floor, dirty_events_[static_cast<size_t>(e)].any, derived});
    }
    for (const FluentId f : deps.fluents) {
      fleet_floor =
          std::min(fleet_floor, changed_fluents_[static_cast<size_t>(f)].any);
    }
    if (deps.coords) fleet_floor = std::min(fleet_floor, dirty_coords_.any);
    if (deps.cross_key) {
      uniform = scoped != nullptr ? scoped->unscoped : fleet_floor;
    }
  }
  const bool sparse = incremental && !whole_window && spec.deps.has_value() &&
                      can_fast && uniform == kTimestampNever;
  common::ArenaVector<uint32_t> visit{common::ArenaAllocator<uint32_t>(arena)};
  if (sparse) {
    const DependencySpec& deps = *spec.deps;
    // Each source is sorted by key, so its lookups resume where the
    // previous one stopped.
    const auto visit_sorted = [&](const auto& sorted, const auto& key_of) {
      auto from = keys.begin();
      for (const auto& item : sorted) {
        from = std::lower_bound(from, keys.end(), key_of(item));
        if (from == keys.end()) return;
        if (*from == key_of(item)) {
          visit.push_back(static_cast<uint32_t>(from - keys.begin()));
        }
      }
    };
    const auto mark_key = [](const auto& mark) { return mark.first; };
    const auto same_key = [](const Term& k) { return k; };
    if (deps.cross_key) {
      if (scoped != nullptr) visit_sorted(scoped->by_key.at, mark_key);
    } else {
      for (const EventId e : deps.events) {
        visit_sorted(dirty_events_[static_cast<size_t>(e)].at, mark_key);
      }
      for (const FluentId f : deps.fluents) {
        visit_sorted(changed_fluents_[static_cast<size_t>(f)].at, mark_key);
      }
      if (deps.coords) visit_sorted(dirty_coords_.at, mark_key);
    }
    visit_sorted(cache.due, same_key);
    visit_sorted(prev_edge_fluents_[fidx], same_key);
    visit.insert(visit.end(), entering.begin(), entering.end());
    std::sort(visit.begin(), visit.end());
    visit.erase(std::unique(visit.begin(), visit.end()), visit.end());
  } else {
    visit.resize(keys.size());
    std::iota(visit.begin(), visit.end(), uint32_t{0});
  }
  cache.due.clear();

  // Triage phase, serial: each visited key's cache entry and regeneration
  // region. A clean key takes the fast-forward when its carried value is
  // unchanged, no cached point fell out at the left window edge, and no
  // cached point sits exactly on the previous query time (the one case
  // where sliding the right edge materializes a new interval): a rebuild
  // would then reproduce the committed evidence and timeline verbatim up to
  // the two window bounds the timeline keeps symbolic. Every cached point
  // lies at or before the query time that committed it (fresh points beyond
  // q are dropped below, reused ones are older still), so with query times
  // advancing, "no point at prev_query_" is exactly max_t < prev_query_ and
  // the test is O(1) (DESIGN.md §7). Only the other keys are evaluated.
  common::ArenaVector<KeyTriage> triage{
      common::ArenaAllocator<KeyTriage>(arena)};
  triage.resize(visit.size());
  common::ArenaVector<uint32_t> slow{
      common::ArenaAllocator<uint32_t>(arena)};
  slow.reserve(visit.size());
  const std::vector<std::pair<Term, Value>> no_carried;
  const auto& carried = have_boundary ? boundary_.values[fidx] : no_carried;
  auto carried_from = carried.begin();
  for (size_t j = 0; j < visit.size(); ++j) {
    KeyTriage& t = triage[j];
    t.index = visit[j];
    const Term key = keys[t.index];
    if (incremental) {
      t.entry = cache.entries[t.index];
      t.timeline = cache.timelines[t.index];
    } else {
      const auto tl_it = timelines_[fidx].find(key);
      t.timeline = tl_it == timelines_[fidx].end() ? nullptr : &tl_it->second;
    }
    carried_from = std::lower_bound(
        carried_from, carried.end(), key,
        [](const auto& e, const Term& k) { return e.first < k; });
    if (carried_from != carried.end() && carried_from->first == key) {
      t.carried = carried_from->second;
    }
    t.region_from = wstart;
    if (t.entry != nullptr && !whole_window && spec.deps.has_value()) {
      RegionStats rstats;
      t.region_from = DirtyRegionFor(*spec.deps, key, /*cross_key=*/false,
                                     wstart, scoped, &rstats)
                          .from;
      t.narrowed = rstats.narrowed;
      t.fleet_floor = rstats.fleet_floor;
    }
    t.fast = can_fast && t.entry != nullptr &&
             t.region_from == kTimestampNever && t.entry->min_t > wstart &&
             t.entry->max_t < prev_query_ &&
             t.entry->carried_value == t.carried;
    if (!t.fast) slow.push_back(static_cast<uint32_t>(j));
  }
#if MARITIME_DCHECKS_ENABLED
  // The keys a sparse step skips pass the full triage's fast-forward test.
  if (sparse) {
    size_t j = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (j < visit.size() && visit[j] == i) {
        ++j;
        continue;
      }
      const CachedEvidence* entry = cache.entries[i];
      MARITIME_DCHECK_MSG(
          entry != nullptr &&
              DirtyRegionFor(*spec.deps, keys[i], /*cross_key=*/false, wstart,
                             scoped)
                  .clean() &&
              entry->min_t > wstart && entry->max_t < prev_query_ &&
              entry->carried_value == boundary_.CarriedValue(fidx, keys[i]),
          "a key the sparse step skips fails the fast-forward test");
    }
  }
#endif

  // Evaluation phase: engine state is read-only, each index writes only its
  // own outcome slot. Every temporary (evidence points, timelines, sweep
  // scratch) bumps the slide arena; optional slots let each outcome be
  // constructed in place with the arena (assignment would keep the slot's
  // default heap allocator).
  common::ArenaVector<std::optional<SimpleOutcome>> outcomes{
      common::ArenaAllocator<std::optional<SimpleOutcome>>(arena)};
  outcomes.resize(slow.size());
  for (size_t j = 0; j < slow.size(); ++j) {
    const KeyTriage& t = triage[slow[j]];
    const Term key = keys[t.index];
    SimpleOutcome& out = outcomes[j].emplace(arena);
    const CachedEvidence* entry = t.entry;
    if (!incremental) {
      // Nothing cached to merge with or diff against: the rules' output is
      // the evidence (the sweep ignores points outside the window).
      spec.rules(ctx, key, &out.evidence.initiations,
                 &out.evidence.terminations);
    } else if (entry != nullptr && t.region_from == kTimestampNever) {
      out.hit = true;
      CopyInWindowPoints(entry->initiations(), wstart,
                         &out.evidence.initiations);
      CopyInWindowPoints(entry->terminations(), wstart,
                         &out.evidence.terminations);
    } else {
      const EvalContext rctx = ctx.WithRegenRegion(t.region_from);
      PointVec fresh_init{common::ArenaAllocator<ValuedPoint>(arena)};
      PointVec fresh_term{common::ArenaAllocator<ValuedPoint>(arena)};
      spec.rules(rctx, key, &fresh_init, &fresh_term);
      const std::span<const ValuedPoint> old_init =
          entry != nullptr ? entry->initiations()
                           : std::span<const ValuedPoint>();
      const std::span<const ValuedPoint> old_term =
          entry != nullptr ? entry->terminations()
                           : std::span<const ValuedPoint>();
      // Cached evidence must stop at the query time: a point generated from
      // input asserted ahead of q is invisible to this window's timeline,
      // and caching it would make it diff as "unchanged" when it slides
      // into view. The input's own dirty mark (kept by RetainAfter, which
      // preserves marks at or after q) re-generates it then, and the diff
      // below turns into a change mark for downstream readers.
      const auto beyond_q = [q](const ValuedPoint& p) { return p.t > q; };
      fresh_init.erase(
          std::remove_if(fresh_init.begin(), fresh_init.end(), beyond_q),
          fresh_init.end());
      fresh_term.erase(
          std::remove_if(fresh_term.begin(), fresh_term.end(), beyond_q),
          fresh_term.end());
      MergeCachedPointsInto(old_init, fresh_init, wstart, t.region_from,
                            &out.evidence.initiations);
      MergeCachedPointsInto(old_term, fresh_term, wstart, t.region_from,
                            &out.evidence.terminations);
      const auto init_diff =
          EarliestPointDiff(old_init, out.evidence.initiations, wstart, arena);
      const auto term_diff =
          EarliestPointDiff(old_term, out.evidence.terminations, wstart, arena);
      if (init_diff.has_value() && term_diff.has_value()) {
        out.change_at = std::min(*init_diff, *term_diff);
      } else if (init_diff.has_value()) {
        out.change_at = init_diff;
      } else {
        out.change_at = term_diff;
      }
    }
    out.evidence.carried_value = t.carried;
    ComputeSimpleFluentInto(out.evidence.initiations, out.evidence.terminations,
                            out.evidence.carried_value, wstart, q, arena,
                            &out.timeline);
  }

  // Commit phase, in key order.
  // One rehash to the final bucket count instead of a doubling chain as the
  // maps fill on the first slide.
  timelines_[fidx].reserve(keys.size());
  if (incremental) cache.evidence.reserve(keys.size());
  // Cache/timeline writes are non-propagating copy-assigns: the heap-backed
  // destination keeps its allocator and reuses capacity, which is the
  // arena/heap boundary (DESIGN.md §10) — nothing arena-backed survives the
  // slide.
  DefRegenStats& dstats = def_regen_stats_[cur_def_];
  const auto emit_rows = [&](Term key, const FluentTimeline& tl) {
    for (const auto& slice : tl.slices) {
      const IntervalView view = tl.IntervalsAt(slice);
      if (!view.empty()) {
        result->fluents.push_back(
            RecognizedFluent{spec.fluent, key, slice.value, ToList(view)});
      }
    }
  };
  // Output rows of the keys a sparse step skips come from their committed
  // slots, interleaved in key order with the visited keys' rows.
  size_t rows_from = 0;
  const auto emit_skipped_rows = [&](size_t until) {
    if (!spec.output) return;
    for (; rows_from < until; ++rows_from) {
      if (cache.timelines[rows_from] != nullptr) {
        emit_rows(keys[rows_from], *cache.timelines[rows_from]);
      }
    }
  };
  common::ArenaVector<std::pair<Term, const FluentTimeline*>> added{
      common::ArenaAllocator<std::pair<Term, const FluentTimeline*>>(arena)};
  size_t next_slow = 0;
  cache.visited.clear();
  for (const KeyTriage& t : triage) {
    const size_t i = t.index;
    const Term key = keys[i];
    if (sparse) {
      emit_skipped_rows(i);
      rows_from = i + 1;
    }
    if (sparse) cache.visited.push_back(key);
    if (incremental) {
      ++dstats.evals;
      if (t.region_from != kTimestampNever) {
        dstats.regen_span_sum += static_cast<uint64_t>(q - t.region_from);
      }
      if (t.narrowed) {
        ++dstats.spans_narrowed;
        ++cache_stats_.spans_narrowed;
      }
      if (t.fleet_floor) {
        ++dstats.fleet_floor_hits;
        ++cache_stats_.fleet_floor_hits;
      }
    }
    if (t.fast) {
      // Clean fast-forward: the cached evidence is byte-identical to what a
      // rebuild would produce, and the committed timeline differs only in
      // the two window bounds it keeps symbolic — emit output rows from the
      // slot and leave the cache entry untouched. No change mark, no edge
      // mark (the gates exclude evidence on the query edge).
      ++cache_stats_.hits;
      ++dstats.fast_forwards;
      if (t.timeline != nullptr && spec.output) emit_rows(key, *t.timeline);
      continue;
    }
    SimpleOutcome& out = *outcomes[next_slow++];
    if (spec.output) emit_rows(key, out.timeline);
    // A key with no content this window gets no slot: most keys of a sparse
    // fluent (e.g. vessels that never stop) would otherwise pay a map node
    // for an empty timeline. An existing slot is still overwritten so a key
    // whose content disappeared reads as empty downstream.
    FluentTimeline* tl = t.timeline;
    const bool has_content =
        !out.timeline.slices.empty() || out.timeline.open_value.has_value();
    if (tl == nullptr && has_content) {
      tl = &TimelineSlot(fidx, key);
      added.emplace_back(key, tl);
    }
    if (tl != nullptr) tl->CopyFrom(out.timeline);
    if (!incremental) continue;

    cache.timelines[i] = tl;
    if (out.hit) {
      ++cache_stats_.hits;
    } else {
      ++cache_stats_.misses;
    }
    if (out.change_at.has_value()) {
      changed_fluents_[fidx].Mark(key, *out.change_at);
    }
    if (HasPointAtTime(out.evidence.initiations, q) ||
        HasPointAtTime(out.evidence.terminations, q)) {
      edge_fluents_[fidx].push_back(key);
    }
    if (t.entry == nullptr) {
      SimpleDefCache::EvidenceMap::iterator ev_it;
      if (!evidence_pool_.empty()) {
        // Recycle an evicted node together with its point-buffer capacity.
        SimpleDefCache::EvidenceMap::node_type nh =
            std::move(evidence_pool_.back());
        evidence_pool_.pop_back();
        nh.key() = key;
        ev_it = cache.evidence.insert(std::move(nh)).position;
      } else {
        ev_it = cache.evidence.try_emplace(key).first;
      }
      ev_it->second.queued = kTimestampNever;
      cache.entries[i] = &ev_it->second;
    }
    CachedEvidence& slot = *cache.entries[i];
    slot.points.clear();
    const size_t need =
        out.evidence.initiations.size() + out.evidence.terminations.size();
    if (slot.points.capacity() < need) {
      // Geometric growth: evidence lengthens slide by slide while the window
      // fills, and exact-fit reserves would reallocate every one of them.
      slot.points.reserve(std::max(need, 2 * slot.points.capacity()));
    }
    slot.points.insert(slot.points.end(), out.evidence.initiations.begin(),
                       out.evidence.initiations.end());
    slot.points.insert(slot.points.end(), out.evidence.terminations.begin(),
                       out.evidence.terminations.end());
    slot.init_count = static_cast<uint32_t>(out.evidence.initiations.size());
    slot.carried_value = out.evidence.carried_value;
    slot.IndexPoints();
    if (slot.min_t != kTimestampNever && slot.min_t != slot.queued) {
      cache.due_queue.emplace_back(slot.min_t, key);
      std::push_heap(cache.due_queue.begin(), cache.due_queue.end(), DueLater);
      slot.queued = slot.min_t;
    }
  }
  MARITIME_DCHECK(next_slow == outcomes.size());
  if (sparse) {
    emit_skipped_rows(keys.size());
    // The skipped keys took the fast-forward: count them as it does.
    const uint64_t skipped = keys.size() - visit.size();
    dstats.evals += skipped;
    dstats.fast_forwards += skipped;
    cache_stats_.hits += skipped;
    // Each is a region computation whose scoped start (clean) beat a dirty
    // fleet-wide floor.
    if (scoped != nullptr && fleet_floor != kTimestampNever) {
      dstats.spans_narrowed += skipped;
      cache_stats_.spans_narrowed += skipped;
    }
  }
  cache.swept = !sparse;

  // Keys that left the evaluated set: under the dependency contract their
  // timelines were already empty, so dropping them cannot affect downstream
  // definitions — no dirty mark needed. Nodes go to the recycling pools.
  common::ArenaVector<Term> removed{common::ArenaAllocator<Term>(arena)};
  for (const Term& old_key : leaving) {
    const auto evict_it = cache.evidence.find(old_key);
    if (evict_it != cache.evidence.end()) {
      evidence_pool_.push_back(cache.evidence.extract(evict_it));
    }
    auto& tl_map = timelines_[fidx];
    const auto tl_it = tl_map.find(old_key);
    if (tl_it != tl_map.end()) {
      RecycleTimeline(tl_map, tl_it);
      removed.push_back(old_key);
    }
    if (incremental) ++cache_stats_.evictions;
  }
  MARITIME_DCHECK_MSG(!incremental || cache.evidence.size() == keys.size(),
                      "simple-fluent cache out of sync with evaluated keys");
  // Later definitions read this fluent's change marks by key.
  changed_fluents_[fidx].Flush();
  SpliceKeyMemo(fidx, added, removed);
}

// --- derived events ----------------------------------------------------------

void Engine::EvaluateDerived(const DerivedEventSpec& spec,
                             DerivedDefCache& cache, const EvalContext& ctx,
                             RecognitionResult* result) {
  const size_t eidx = static_cast<size_t>(spec.event);
  const Timestamp wstart = ctx.window_start();
  const Timestamp q = ctx.query_time();
  // As for simple fluents, naive mode derives the whole window and commits
  // no cache state, change time or edge mark.
  const bool incremental = options_.incremental;
  auto& store = derived_events_[eidx];

  // The previous slide's store is the cache (EventOrder-sorted, unique);
  // restrict it to the new window. Swapping with the member scratch (instead
  // of moving through locals) keeps both buffers alive across slides, so the
  // steady state allocates nothing here.
  std::vector<EventInstance>& old = derived_old_;
  std::swap(store, old);
  store.clear();
  old.erase(std::remove_if(old.begin(), old.end(),
                           [&](const EventInstance& i) {
                             return i.t <= wstart;
                           }),
            old.end());

  RegenRegion region{wstart};
  DefRegenStats& dstats = def_regen_stats_[cur_def_];
  if (incremental && cache.valid && !dirty_all_ && spec.deps.has_value()) {
    // Derived events carry no key: any change to a declared input re-derives
    // (cross-key forced). A projector still narrows in *time* — the earliest
    // projected mark — and, more importantly, an idle fleet projects to
    // nothing, leaving the region clean.
    const ScopedDirty* scoped =
        ComputeScopedDirty(*spec.deps, /*cross_key=*/true, ctx);
    RegionStats rstats;
    region = DirtyRegionFor(*spec.deps, Term::None(), /*cross_key=*/true,
                            wstart, scoped, &rstats);
    if (rstats.narrowed) {
      ++dstats.spans_narrowed;
      ++cache_stats_.spans_narrowed;
    }
    if (rstats.fleet_floor) {
      ++dstats.fleet_floor_hits;
      ++cache_stats_.fleet_floor_hits;
    }
  }
  if (incremental) {
    ++dstats.evals;
    if (!region.clean()) {
      dstats.regen_span_sum += static_cast<uint64_t>(q - region.from);
    }
  }
  if (cache.valid && region.clean()) {
    ++cache_stats_.hits;
    store.assign(old.begin(), old.end());
  } else {
    if (incremental) ++cache_stats_.misses;
    derived_fresh_.clear();
    spec.compute(ctx.WithRegenRegion(region.from), &derived_fresh_);
    const auto needs_eval = [&](Timestamp t) { return t >= region.from; };
    store.reserve(old.size() + derived_fresh_.size());
    for (const EventInstance& i : old) {
      if (!needs_eval(i.t)) store.push_back(i);
    }
    for (const EventInstance& i : derived_fresh_) {
      if (i.t > wstart && i.t <= q && needs_eval(i.t)) store.push_back(i);
    }
    std::sort(store.begin(), store.end(), EventOrder);
    store.erase(std::unique(store.begin(), store.end()), store.end());
    if (incremental) {
      // Downstream readers of this derived event re-evaluate from the first
      // in-window occurrence difference.
      Timestamp change_at = kTimestampNever;
      const size_t n = std::min(old.size(), store.size());
      size_t i = 0;
      while (i < n && old[i] == store[i]) ++i;
      if (i < old.size() && i < store.size()) {
        change_at = std::min(old[i].t, store[i].t);
      } else if (i < old.size()) {
        change_at = old[i].t;
      } else if (i < store.size()) {
        change_at = store[i].t;
      }
      changed_derived_[eidx] = std::min(changed_derived_[eidx], change_at);
    }
  }
  if (incremental) {
    cache.valid = true;
    if (!store.empty() && store.back().t == q) edge_derived_[eidx] = 1;
  }
  if (spec.output) {
    for (const EventInstance& i : store) {
      result->events.push_back(RecognizedEvent{spec.event, i});
    }
  }
}

// --- recognition -------------------------------------------------------------

MARITIME_COMMIT_BOUNDARY RecognitionResult Engine::Recognize(Timestamp q) {
  const Timestamp wstart = q - window_.range;
  // Sort before purging: coord purging keeps the latest boundary fix per
  // vessel and needs time-sorted vectors to find it.
  SortPendingInput();
  PurgeBefore(wstart);
  if (options_.incremental) {
    // Merge the marks batched by AssertEvent/AssertCoord since the previous
    // step: one sort + linear merge per map, instead of a shifting sorted
    // insert per mark.
    for (auto& m : dirty_events_) m.Flush();
    dirty_coords_.Flush();
    for (auto& m : changed_fluents_) m.Clear();
    std::fill(changed_derived_.begin(), changed_derived_.end(),
              kTimestampNever);
    // Right-edge re-evaluation: output committed last slide with a feature
    // at exactly prev_query_ was produced before its continuation past the
    // window edge was visible (HoldsRightOf at the edge is false for an
    // ongoing interval), so readers re-evaluate from there this slide. The
    // matching rule for *input* at exactly prev_query_ is RetainAfter's.
    if (prev_query_ != kInvalidTimestamp && !dirty_all_) {
      for (size_t f = 0; f < edge_fluents_.size(); ++f) {
        for (const Term& k : edge_fluents_[f]) {
          changed_fluents_[f].Mark(k, prev_query_);
        }
      }
      for (size_t e = 0; e < edge_derived_.size(); ++e) {
        if (edge_derived_[e]) {
          changed_derived_[e] = std::min(changed_derived_[e], prev_query_);
        }
      }
    }
    // The fluent's own definition visits its edge keys (see EvaluateSimple).
    for (size_t f = 0; f < edge_fluents_.size(); ++f) {
      std::swap(prev_edge_fluents_[f], edge_fluents_[f]);
      edge_fluents_[f].clear();
    }
    std::fill(edge_derived_.begin(), edge_derived_.end(), 0);
    // Edge marks batched above become readable before any definition runs.
    for (auto& m : changed_fluents_) m.Flush();
  }
  // Timelines and derived stores are not cleared wholesale: each evaluator
  // overwrites its keys in place (reusing the heap slots' capacity) and
  // drops keys that left the domain. Under the registration-order hierarchy
  // a rule only reads definitions registered earlier, which have already
  // been rewritten this slide.

  RecognitionResult result;
  result.query_time = q;
  result.window_start = wstart;
  result.input_events_in_window = buffered_events();
  // Row counts are stable slide to slide; sizing from the previous step
  // replaces a geometric-growth chain of reallocations with (usually) one.
  result.fluents.reserve(prev_fluent_rows_);
  result.events.reserve(prev_event_rows_);

  const EvalContext ctx(this, wstart, q);
  // Committed timelines are read in this step's window from here on.
  read_window_ = TimelineWindow{wstart, q};

  const bool have_boundary = boundary_.at == wstart &&
                             boundary_.values.size() == fluent_names_.size();

  for (size_t di = 0; di < definitions_.size(); ++di) {
    cur_def_ = di;
    const auto& def = definitions_[di];
    if (const auto* simple = std::get_if<SimpleFluentSpec>(&def)) {
      EvaluateSimple(*simple, std::get<SimpleDefCache>(def_caches_[di]), ctx,
                     have_boundary, &result);
    } else {
      EvaluateDerived(std::get<DerivedEventSpec>(def),
                      std::get<DerivedDefCache>(def_caches_[di]), ctx,
                      &result);
    }
  }

  // Record the fluent values holding at the next window's start so inertia
  // survives the slide even after the supporting events are discarded.
  const Timestamp next_wstart = q - window_.range + window_.slide;
  boundary_.at = next_wstart;
  // Updated in place: resize keeps the inner vectors (and their capacity)
  // alive across slides, so refilling is allocation-free in steady state.
  boundary_.values.resize(fluent_names_.size());
  for (size_t di = 0; di < definitions_.size(); ++di) {
    const auto* simple = std::get_if<SimpleFluentSpec>(&definitions_[di]);
    if (simple == nullptr) continue;
    const size_t fidx = static_cast<size_t>(simple->fluent);
    auto& vec = boundary_.values[fidx];
    auto& cache = std::get<SimpleDefCache>(def_caches_[di]);
    // The keys the next step must visit because their earliest point
    // reaches its window start: their boundary value may change now.
    if (options_.incremental) PopDue(cache, next_wstart);
    if (cache.swept) {
      // The key memo is current after the definition's commit and sorted
      // by key, the order CarriedValue and the snapshot writer need.
      vec.clear();
      const auto& keys = fluent_keys_[fidx];
      const auto& tls = fluent_timelines_[fidx];
      for (size_t i = 0; i < keys.size(); ++i) {
        const std::optional<Value> v = BoundaryValue(tls[i], next_wstart, q);
        if (v.has_value()) vec.emplace_back(keys[i], *v);
      }
      continue;
    }
    // A sparse step: a key it did not visit and that is not due next keeps
    // its carried value, since no point of it lies at or before the next
    // window start. The visited and the due keys are updated in place (a
    // key in both gets the same value twice).
    const auto update = [&](Term key) {
      const auto at = std::lower_bound(cache.keys.begin(), cache.keys.end(),
                                       key);
      const std::optional<Value> v = BoundaryValue(
          cache.timelines[static_cast<size_t>(at - cache.keys.begin())],
          next_wstart, q);
      const auto it = std::lower_bound(
          vec.begin(), vec.end(), key,
          [](const auto& e, const Term& k) { return e.first < k; });
      const bool present = it != vec.end() && it->first == key;
      if (v.has_value() && present) {
        it->second = *v;
      } else if (v.has_value()) {
        vec.insert(it, {key, *v});
      } else if (present) {
        vec.erase(it);
      }
    };
    for (const Term& key : cache.visited) update(key);
    for (const Term& key : cache.due) update(key);
  }

  PurgeCoordsBefore(wstart);

  if (options_.incremental) {
    // Marks at or before q took effect this step; marks after q belong to
    // input asserted ahead of the query time and must survive the slide.
    for (auto& m : dirty_events_) m.RetainAfter(q);
    dirty_coords_.RetainAfter(q);
    dirty_all_ = false;
    prev_query_ = q;
#if MARITIME_DCHECKS_ENABLED
    // Purge/evict accounting: every cache entry must belong to a key
    // evaluated this step, or the cache would grow with vessel churn. (A
    // key's timeline slot may legitimately be absent — empty timelines are
    // not materialized — so liveness is checked against the evaluated key
    // set, not the timeline map.)
    for (size_t di = 0; di < definitions_.size(); ++di) {
      if (std::holds_alternative<SimpleFluentSpec>(definitions_[di])) {
        const auto& cache = std::get<SimpleDefCache>(def_caches_[di]);
        // DCHECK-only sweep: asserts per-element membership, so no
        // order-dependent state escapes this loop.
        // maritime-lint: allow-next-line(determinism): assert-only loop
        for (const auto& [k, ev] : cache.evidence) {
          MARITIME_DCHECK_MSG(
              std::binary_search(cache.keys.begin(), cache.keys.end(), k),
              "cached simple-fluent key not live");
        }
        const auto& tl_map = timelines_[static_cast<size_t>(
            std::get<SimpleFluentSpec>(definitions_[di]).fluent)];
        for (size_t i = 0; i < cache.keys.size(); ++i) {
          const auto ev_it = cache.evidence.find(cache.keys[i]);
          const auto tl_it = tl_map.find(cache.keys[i]);
          MARITIME_DCHECK_MSG(
              cache.entries[i] == (ev_it == cache.evidence.end()
                                       ? nullptr
                                       : &ev_it->second) &&
                  cache.timelines[i] ==
                      (tl_it == tl_map.end() ? nullptr : &tl_it->second),
              "simple-fluent cache pointers out of sync with its maps");
        }
      }
    }
#endif
  }

#if MARITIME_DCHECKS_ENABLED
  // The spliced key memo is the timeline map's key set in order.
  for (size_t fidx = 0; fidx < timelines_.size(); ++fidx) {
    const auto& keys = fluent_keys_[fidx];
    MARITIME_DCHECK(keys.size() == timelines_[fidx].size() &&
                    fluent_timelines_[fidx].size() == keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto it = timelines_[fidx].find(keys[i]);
      MARITIME_DCHECK_MSG((i == 0 || keys[i - 1] < keys[i]) &&
                              it != timelines_[fidx].end() &&
                              fluent_timelines_[fidx][i] == &it->second,
                          "key memo out of sync with the timeline map");
    }
  }
#endif

  // Harvest per-slide allocation telemetry, then rewind the arena. Nothing
  // arena-backed outlives this point: all commits above copied into
  // heap-backed slots.
  const common::Arena::Stats arena_stats = arena_.stats();
  arena_.Reset();
  ++alloc_stats_.slides;
  alloc_stats_.arena_bytes += arena_stats.bytes_used;
  alloc_stats_.arena_chunks = arena_stats.chunks;
  alloc_stats_.fallback_allocs = arena_stats.fallback_allocs;
  prev_fluent_rows_ = result.fluents.size();
  prev_event_rows_ = result.events.size();
  return result;
}

}  // namespace maritime::rtec
