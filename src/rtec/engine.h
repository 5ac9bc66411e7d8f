#ifndef MARITIME_RTEC_ENGINE_H_
#define MARITIME_RTEC_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "geo/geo_point.h"
#include "rtec/terms.h"
#include "rtec/timeline.h"
#include "stream/sliding_window.h"

namespace maritime::snapshot {
class Reader;
class Writer;
}  // namespace maritime::snapshot

namespace maritime::rtec {

class Engine;

/// Read-only view rules evaluate against: the events in the current window,
/// the timelines of fluents already computed at this query time (definitions
/// are evaluated in registration order, so a rule may only reference fluents
/// and derived events registered before it — the usual Event Calculus
/// definition hierarchy), per-vessel coordinates, and the window bounds.
class EvalContext {
 public:
  /// All occurrences of `e` in the window, sorted by time.
  const std::vector<EventInstance>& Events(EventId e) const;

  /// Distinct subjects of the input event `e` in the window, sorted
  /// ascending (the subject index; derived events are not indexed).
  const std::vector<Term>& Subjects(EventId e) const;

  /// Occurrences of the input event `e` with subject `subject` in the
  /// window, sorted by time: exactly the elements of Events(e) with that
  /// subject, in the same order, without scanning the other subjects'.
  std::span<const EventInstance> EventsOf(EventId e, Term subject) const;

  /// Keys (ground terms) for which `f` was evaluated at this query time,
  /// sorted ascending. The reference stays valid for the duration of the
  /// rule invocation.
  const std::vector<Term>& FluentKeys(FluentId f) const;

  /// Committed timelines of `f`, parallel to FluentKeys(f) (same length and
  /// order): rules sweeping every key of a fluent read them without a map
  /// lookup per key. Valid for the duration of the rule invocation.
  // Escape is sound: the pointers alias the engine's committed heap-backed
  // timeline map, not slide-arena scratch.
  MARITIME_ARENA_ESCAPE_OK const std::vector<const FluentTimeline*>&
  FluentTimelines(FluentId f) const;

  /// Timeline of `f` on `key`; empty timeline when not evaluated.
  // Escape is sound: the reference aliases the engine's committed heap-backed
  // timeline map, not slide-arena scratch.
  MARITIME_ARENA_ESCAPE_OK const FluentTimeline& Timeline(FluentId f,
                                                          Term key) const;

  /// holdsAt at the right limit of t (counts episodes starting exactly at t).
  bool HoldsRightOf(FluentId f, Term key, Value v, Timestamp t) const {
    return Timeline(f, key).HoldsRight(v, t);
  }

  /// The coord fluent: the vessel's most recent position at or before `t`
  /// within the window (each critical ME carries the vessel coordinates,
  /// paper Section 4.1).
  std::optional<geo::GeoPoint> CoordAt(Term vessel, Timestamp t) const;

  /// Calls `fn(t, pos)` for every coord fix of `vessel` in force at some
  /// time >= `from`: the latest fix at or before `from` (the one CoordAt
  /// would return throughout [from, next fix)) plus every later fix. This is
  /// the position history a DependencySpec::KeyProjector must consider when
  /// bounding which output keys a dirty suffix starting at `from` can reach.
  void ForEachCoordCovering(
      Term vessel, Timestamp from,
      const std::function<void(Timestamp, const geo::GeoPoint&)>& fn) const;

  /// Window bounds: events in (window_start, query_time] are visible.
  Timestamp window_start() const { return window_start_; }
  Timestamp query_time() const { return query_time_; }

  /// Incremental-evaluation hint: when the engine re-runs a rule for a key
  /// whose cached evidence is partially reusable, only points at times `t`
  /// with NeedsEval(t) true have to be regenerated — the rest will be taken
  /// from the cache. Rules may use this to skip expensive per-point
  /// conditions; ignoring the hint is equally correct (points generated
  /// outside the region are discarded), it is purely an optimization.
  /// Under full (non-incremental) evaluation NeedsEval is true everywhere
  /// in the window.
  bool NeedsEval(Timestamp t) const { return t >= regen_from_; }

  /// The suffix of a time-sorted occurrence list whose times satisfy
  /// NeedsEval: rules that scan a whole event stream visit only the
  /// occurrences they may have to regenerate.
  std::span<const EventInstance> NeedsEvalSuffix(
      std::span<const EventInstance> events) const {
    const auto from = std::partition_point(
        events.begin(), events.end(),
        [this](const EventInstance& e) { return !NeedsEval(e.t); });
    return events.subspan(static_cast<size_t>(from - events.begin()));
  }
  /// The same for a sorted list of time-points (a timeline's starts/ends).
  std::span<const Timestamp> NeedsEvalSuffix(
      std::span<const Timestamp> times) const {
    const auto from = std::partition_point(
        times.begin(), times.end(),
        [this](Timestamp t) { return !NeedsEval(t); });
    return times.subspan(static_cast<size_t>(from - times.begin()));
  }

 private:
  friend class Engine;
  EvalContext(const Engine* engine, Timestamp window_start,
              Timestamp query_time)
      : engine_(engine),
        window_start_(window_start),
        query_time_(query_time),
        regen_from_(window_start) {}

  EvalContext WithRegenRegion(Timestamp from) const {
    EvalContext ctx = *this;
    ctx.regen_from_ = from;
    return ctx;
  }

  const Engine* engine_;
  Timestamp window_start_;
  Timestamp query_time_;
  /// Regeneration region: points at t >= regen_from_ must be (re)generated.
  /// The default (window_start) regenerates the whole window. No prefix side
  /// exists: window-front information loss is confined to falling-off points
  /// (coords keep last-known-position inertia across purges, see
  /// Engine::PurgeBefore), so surviving cached points never go stale from
  /// the front.
  Timestamp regen_from_;
};

/// Declared inputs of a definition, enabling the incremental engine to skip
/// re-evaluating keys whose inputs did not change since the previous slide
/// (and, for partially changed keys, to reuse the unaffected slice of the
/// cached evidence).
///
/// Declaring dependencies is a *contract* the rules must honor; the engine
/// cannot check it. A definition with declared deps must satisfy:
///  - Rules read nothing beyond the declared events/fluents/coords (plus
///    immutable state such as static application knowledge).
///  - Every generated point's time equals the time of some declared
///    in-window input (an event occurrence, an upstream start/end, a coord
///    time) — no time arithmetic. This makes the output restricted to any
///    subrange of the window a function of the inputs in that subrange.
///  - Conditions evaluated at a generated point's time `t` look only
///    backwards in time (Holds/HoldsRight at t, CoordAt at or before t),
///    which holds automatically for Event Calculus rules.
///  - A rule never reads its own fluent (registration-order hierarchy).
///  - The domain contains every key whose rules would produce in-window
///    points and every key carried across the boundary by inertia, so a key
///    leaving the domain necessarily has an empty timeline (its cache entry
///    is then evicted without dirtying downstream definitions).
/// Definitions without deps (the default) are always fully re-evaluated —
/// arbitrary closures remain exactly as correct as under the naive engine.
struct DependencySpec {
  /// Event ids (input or derived) the rules read.
  std::vector<EventId> events;
  /// Previously registered fluents the rules read.
  std::vector<FluentId> fluents;
  /// True when the rules call EvalContext::CoordAt — or consult external
  /// per-vessel state that is updated and purged in lockstep with the coord
  /// store (e.g. the maritime spatial-fact table, which receives a fact
  /// group exactly when the engine receives the vessel's coord).
  bool coords = false;
  /// False (default): the rules for key K touch only K's slice of the
  /// declared inputs (events with subject K, fluent timelines of key K, K's
  /// coords). True: the rules may read any key's slice (e.g. an area-keyed
  /// CE scanning every vessel). Without a `project` function below, any
  /// change then invalidates every key from the fleet-wide earliest dirty
  /// time; with one, only the output keys the changed input keys project to.
  bool cross_key = false;

  /// Optional dependency projector for cross-key definitions: maps one dirty
  /// *input* key (e.g. a vessel) and the earliest time `from` its inputs
  /// changed to the *output* keys (e.g. areas) whose evidence could differ
  /// anywhere in [from, q]. Appends those keys to `out` and returns true;
  /// returns false when the input key is outside the key space the projector
  /// understands (the engine then treats the mark as unscoped, dirtying every
  /// output key from `from` — always sound).
  ///
  /// Contract: the appended set must be a conservative superset — every
  /// output key whose rules could read the changed slice of this input key at
  /// any time >= `from` must be included (an empty set asserts the change is
  /// invisible to every output key). Projection runs serially at the
  /// definition's evaluation time and must only read engine state (via the
  /// EvalContext) and immutable application knowledge.
  using KeyProjector = std::function<bool(
      const EvalContext&, Term input_key, Timestamp from,
      std::vector<Term>* out)>;
  KeyProjector project;
};

/// Definition of a simple fluent: domain + initiatedAt/terminatedAt rules.
/// The engine computes maximal intervals from the generated points under the
/// law of inertia (rules (1)–(2) of the paper).
struct SimpleFluentSpec {
  FluentId fluent = -1;
  /// Ground terms to evaluate at each query time (may depend on the window
  /// contents, e.g. "all vessels with MEs in the window").
  std::function<std::vector<Term>(const EvalContext&)> domain;
  /// Appends initiation and termination points for `key`. Points outside the
  /// window are ignored. The vectors are slide-scoped arena storage during
  /// evaluation (heap-backed in tests calling rules directly) — rules only
  /// append and never keep references past the call.
  std::function<void(const EvalContext&, Term key, PointVec* initiated,
                     PointVec* terminated)>
      rules;
  /// Include this fluent's intervals in RecognitionResult.
  bool output = false;
  /// Declared inputs (see DependencySpec); nullopt = always re-evaluate.
  std::optional<DependencySpec> deps;
};

/// Definition of a derived (output) event: happensAt rules producing event
/// occurrences from the window contents, e.g. illegalShipping (rule (5)).
struct DerivedEventSpec {
  EventId event = -1;
  std::function<void(const EvalContext&, std::vector<EventInstance>* out)>
      compute;
  bool output = false;
  /// Declared inputs; derived events have no key, so `cross_key` is
  /// implied — any change to a declared input re-derives the event.
  std::optional<DependencySpec> deps;
};

/// One recognized durative CE: fluent=value over maximal intervals.
struct RecognizedFluent {
  FluentId fluent = -1;
  Term key;
  Value value = kTrue;
  IntervalList intervals;

  friend bool operator==(const RecognizedFluent& a, const RecognizedFluent& b) {
    return a.fluent == b.fluent && a.key == b.key && a.value == b.value &&
           a.intervals == b.intervals;
  }
};

/// One recognized instantaneous CE occurrence.
struct RecognizedEvent {
  EventId event = -1;
  EventInstance instance;

  friend bool operator==(const RecognizedEvent& a, const RecognizedEvent& b) {
    return a.event == b.event && a.instance == b.instance;
  }
};

/// Result of one recognition step at query time Q.
struct RecognitionResult {
  Timestamp query_time = 0;
  Timestamp window_start = 0;
  std::vector<RecognizedFluent> fluents;   ///< Output fluents, with non-empty
                                           ///< interval lists only.
  std::vector<RecognizedEvent> events;     ///< Output event occurrences.
  size_t input_events_in_window = 0;       ///< MEs (and SFs) considered.

  /// Convenience: total number of distinct CE interval/instance items.
  size_t RecognizedCount() const {
    size_t n = events.size();
    for (const auto& f : fluents) n += f.intervals.size();
    return n;
  }

  friend bool operator==(const RecognitionResult& a,
                         const RecognitionResult& b) {
    return a.query_time == b.query_time && a.window_start == b.window_start &&
           a.fluents == b.fluents && a.events == b.events &&
           a.input_events_in_window == b.input_events_in_window;
  }
};

/// Evaluation-mode knobs of the engine. The default is the naive engine:
/// every definition regenerates its whole window at every query time, with
/// no evidence cache.
struct EngineOptions {
  /// Cache evidence across slides and re-evaluate only dirty keys (and only
  /// the dirty region of the window for partially dirty keys). Results are
  /// bit-identical to the naive engine for definitions honoring their
  /// DependencySpec contract; definitions without deps are always fully
  /// re-evaluated.
  bool incremental = false;
};

/// Cumulative cache counters of the incremental engine (all zero under the
/// naive engine). A "hit" is a (definition, key) whose cached evidence was
/// reused without running its rules; a partially reusable key counts as a
/// miss. Derived-event definitions count one hit or miss per slide.
struct EngineCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;  ///< Cache entries dropped with their key.
  /// Cross-key region computations where the dependency-scoped start was
  /// strictly later than the fleet-wide floor would have been (the scoped
  /// machinery saved work on that key).
  size_t spans_narrowed = 0;
  /// Cross-key region computations that fell back to the fleet-wide
  /// `DirtyMap::any` floor while it was dirty (no projector declared).
  size_t fleet_floor_hits = 0;

  double HitRate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Cumulative per-slide allocation telemetry: every Recognize() evaluates
/// into the slide-scoped arena and resets it at the end of the step; these
/// counters aggregate the arena traffic across steps.
struct EngineAllocStats {
  uint64_t slides = 0;           ///< Recognize() calls accounted.
  uint64_t arena_bytes = 0;      ///< Sum of arena bytes bumped per slide.
  uint64_t arena_chunks = 0;     ///< Arena chunks currently reserved.
  uint64_t fallback_allocs = 0;  ///< Large-object heap fallbacks, ever.

  double BytesPerSlide() const {
    return slides == 0 ? 0.0 : static_cast<double>(arena_bytes) /
                                   static_cast<double>(slides);
  }
};

/// Per-definition regeneration telemetry of the incremental engine (session
/// counters: never serialized, never read by evaluation). One record per registered definition, in registration order.
struct DefRegenStats {
  uint64_t evals = 0;            ///< Region computations (key evaluations).
  uint64_t regen_span_sum = 0;   ///< Sum of regenerated span widths (q-from).
  uint64_t spans_narrowed = 0;   ///< Scoped start beat the fleet floor.
  uint64_t fleet_floor_hits = 0; ///< Fell back to the fleet-wide floor.
  /// Clean keys that took the fast-forward (simple fluents only): cache hits
  /// whose committed timeline stands as it is, without entering the
  /// evaluation phase. Keys a sparse step never visits count here in bulk.
  uint64_t fast_forwards = 0;

  /// Average width of the regenerated window suffix per key evaluation
  /// (clean keys count as width 0).
  double AvgRegenSpan() const {
    return evals == 0 ? 0.0 : static_cast<double>(regen_span_sum) /
                                  static_cast<double>(evals);
  }
};

/// Heap-backed evidence-cache slot of the incremental engine: both point
/// lists of one (definition, key) share a single buffer — initiations in
/// [0, init_count), terminations after — so a cache entry costs one buffer
/// allocation instead of two. Readers take the spans below; writers rebuild
/// the buffer whole at commit (it is never appended to in place).
struct CachedEvidence {
  PointVec points;          ///< Initiations, then terminations.
  uint32_t init_count = 0;  ///< Boundary between the two lists.
  std::optional<Value> carried_value;
  /// Earliest and latest point time (kTimestampNever / kInvalidTimestamp
  /// when there are no points). Derived from `points` by IndexPoints at
  /// every commit and restore, never serialized; they make the clean
  /// fast-forward test O(1) instead of a scan over the points.
  Timestamp min_t = kTimestampNever;
  Timestamp max_t = kInvalidTimestamp;
  /// The time this entry is queued under in its definition's due queue
  /// (kTimestampNever: not queued). Derived, like min_t.
  Timestamp queued = kTimestampNever;

  void IndexPoints() {
    min_t = kTimestampNever;
    max_t = kInvalidTimestamp;
    for (const ValuedPoint& p : points) {
      min_t = std::min(min_t, p.t);
      max_t = std::max(max_t, p.t);
    }
  }

  std::span<const ValuedPoint> initiations() const {
    return std::span<const ValuedPoint>(points).first(init_count);
  }
  std::span<const ValuedPoint> terminations() const {
    return std::span<const ValuedPoint>(points).subspan(init_count);
  }
};

/// The Event Calculus for Run-Time reasoning (RTEC) engine, re-implemented
/// as a C++ library (the paper's implementation is YAP Prolog). It performs
/// CE recognition at query times Q1, Q2, ... over a sliding window ("working
/// memory") of range ω: at each Qi only events in (Qi−ω, Qi] are considered
/// and everything older is discarded, so recognition cost depends on ω and
/// not on the full history (paper Section 4.2, Figure 5). Delayed events —
/// occurring before Qi−1 but arriving after it — are incorporated at Qi as
/// long as they are still inside the window.
///
/// Usage:
///   Engine eng(WindowSpec{...});
///   EventId turn = eng.DeclareEvent("turn");
///   FluentId stopped = eng.DeclareFluent("stopped");
///   eng.AddSimpleFluent({...});        // definitions, in dependency order
///   eng.AssertEvent(turn, vessel, t);  // stream input (may be delayed)
///   RecognitionResult r = eng.Recognize(q);
/// Dirty marks per key: the earliest marked time drives regeneration (a
/// regen region starting there covers every later mark), the latest marked
/// time decides what survives a window slide. `any` is the min over all
/// keys (for cross-key definitions) and is maintained eagerly, so it is
/// readable even with marks still pending. Storage is a flat vector sorted
/// by key plus an unsorted pending batch: Mark() is a plain append and
/// Flush() merges the batch with one sort + linear merge, instead of the
/// O(n) element shift a sorted insert per new key costs. Clear() keeps
/// both capacities, so steady-state marking allocates nothing per slide.
/// Namespace-scoped (not nested in Engine) so micro_rtec can bench the
/// batch path against a sorted-insert reference.
struct DirtyMap {
struct MarkRange {
    Timestamp min;
    Timestamp max;
  };
  std::vector<std::pair<Term, MarkRange>> at;  ///< Sorted by key.
  std::vector<std::pair<Term, Timestamp>> pending;  ///< Unmerged marks.
  Timestamp any = kTimestampNever;

  void Mark(Term k, Timestamp t) {
    pending.emplace_back(k, t);
    if (t < any) any = t;
  }
  /// Merges the pending batch into `at`. Every keyed reader requires a
  /// flushed map; `any` is exact at all times.
  void Flush() {
    if (pending.empty()) return;
    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) {
                if (!(a.first == b.first)) return a.first < b.first;
                return a.second < b.second;
              });
    const size_t old_size = at.size();
    at.reserve(old_size + pending.size());
    for (const auto& [k, t] : pending) {
      if (at.size() > old_size && at.back().first == k) {
        auto& range = at.back().second;
        if (t < range.min) range.min = t;
        if (t > range.max) range.max = t;
      } else {
        at.push_back({k, MarkRange{t, t}});
      }
    }
    pending.clear();
    std::inplace_merge(
        at.begin(), at.begin() + static_cast<ptrdiff_t>(old_size), at.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    // The merge can leave one old and one new entry per key adjacent;
    // coalesce them in place.
    auto out = at.begin();
    for (auto it = at.begin(); it != at.end(); ++it) {
      if (out != at.begin() && std::prev(out)->first == it->first) {
        auto& range = std::prev(out)->second;
        range.min = std::min(range.min, it->second.min);
        range.max = std::max(range.max, it->second.max);
      } else {
        if (out != it) *out = *it;
        ++out;
      }
    }
    at.erase(out, at.end());
  }
  Timestamp For(Term k) const {
    assert(pending.empty() && "DirtyMap read before Flush()");
    const auto it = std::lower_bound(
        at.begin(), at.end(), k,
        [](const auto& e, const Term& key) { return e.first < key; });
    return it == at.end() || !(it->first == k) ? kTimestampNever
                                               : it->second.min;
  }
  void Clear() {
    at.clear();
    pending.clear();
    any = kTimestampNever;
  }
  /// Slides the map past a recognition at query time `q`. Marks wholly
  /// before `q` took effect and are dropped. A key with a mark at or after
  /// `q` stays dirty: later marks are input asserted ahead of the query
  /// time (it enters the window only at a later slide), and a mark at
  /// exactly `q` is input at the window's leading edge — right-limit
  /// conditions (HoldsRightOf and friends) at t == q cannot see an
  /// interval's continuation past the edge, so points generated at q must
  /// be re-evaluated once more next slide, when q has become interior. The
  /// retained earliest time is clamped up to `q` (everything below is
  /// absorbed; the exact distribution of marks in [q, max] is not kept, so
  /// q is the sound lower bound).
  void RetainAfter(Timestamp q) {
    assert(pending.empty() && "DirtyMap slid before Flush()");
    auto out = at.begin();
    any = kTimestampNever;
    for (auto& e : at) {
      if (e.second.max < q) continue;
      if (e.second.min < q) e.second.min = q;
      if (e.second.min < any) any = e.second.min;
      *out++ = e;
    }
    at.erase(out, at.end());
  }
};

class Engine {
 public:
  explicit Engine(stream::WindowSpec window, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- schema ------------------------------------------------------------
  EventId DeclareEvent(std::string name);
  FluentId DeclareFluent(std::string name);
  const std::string& EventName(EventId e) const { return event_names_.at(e); }
  const std::string& FluentName(FluentId f) const {
    return fluent_names_.at(static_cast<size_t>(f));
  }

  // --- definitions (evaluated in registration order) ----------------------
  void AddSimpleFluent(SimpleFluentSpec spec);
  void AddDerivedEvent(DerivedEventSpec spec);

  // --- stream input --------------------------------------------------------
  /// Asserts happensAt(e(subject[, object]), t). Events may arrive delayed
  /// and out of order; those at or before the current window start are
  /// dropped (information loss by design, paper Section 4.2).
  void AssertEvent(EventId e, Term subject, Timestamp t,
                   Term object = Term::None());

  /// Asserts the vessel coordinates accompanying a critical ME.
  void AssertCoord(Term vessel, Timestamp t, geo::GeoPoint pos);

  // --- recognition -----------------------------------------------------------
  /// Performs CE recognition at query time `q`. Query times should advance
  /// by the window slide; the engine purges events at or before q − ω.
  RecognitionResult Recognize(Timestamp q);

  /// Number of input event instances currently buffered.
  size_t buffered_events() const;

  // --- introspection (valid during and after a Recognize call) --------------
  const std::vector<EventInstance>& EventsOf(EventId e) const;
  /// Subject index of the input event `e` (see EvalContext::Subjects); like
  /// the rest of this section, current once a Recognize call has started.
  const std::vector<Term>& SubjectsOf(EventId e) const;
  std::span<const EventInstance> EventsOf(EventId e, Term subject) const;
  // Escape is sound: aliases the committed heap-backed timeline map.
  MARITIME_ARENA_ESCAPE_OK const FluentTimeline& TimelineOf(FluentId f,
                                                            Term key) const;
  std::vector<Term> KeysOf(FluentId f) const;
  std::optional<geo::GeoPoint> CoordOf(Term vessel, Timestamp t) const;

  const EngineOptions& options() const { return options_; }
  /// Cumulative cache counters (zeros under the naive engine).
  const EngineCacheStats& cache_stats() const { return cache_stats_; }
  /// Per-definition regeneration telemetry, in registration order (session
  /// counters; all zero under the naive engine).
  const std::vector<DefRegenStats>& def_regen_stats() const {
    return def_regen_stats_;
  }
  /// Cumulative slide-arena allocation counters (naive and incremental).
  const EngineAllocStats& alloc_stats() const { return alloc_stats_; }
  /// Number of per-key cache entries currently held across all definitions.
  /// Bounded by the live key sets: eviction removes an entry as soon as its
  /// key leaves the definition's evaluated set (vessel churn cannot grow the
  /// cache without bound).
  size_t cache_entry_count() const;

  // --- checkpointing -------------------------------------------------------
  /// Serializes the engine's complete cross-slide state (format v1): a
  /// schema fingerprint, the buffered input events and coords, the committed
  /// timelines and derived events, the boundary inertia record, and — under
  /// the incremental engine — the per-definition evidence caches, dirty
  /// marks and edge bookkeeping. All hash maps are written in sorted key
  /// order, so identical state yields identical bytes. Call between
  /// Recognize steps (the per-slide scratch state is empty then).
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into an engine constructed with the same window, the same
  /// incremental flag, and the same declarations in the same order (the
  /// rules themselves are code, not data). The fingerprint guards against
  /// mismatches (InvalidArgument); malformed bytes, and bytes SaveTo never
  /// writes (keys out of order, a repeated value), yield Corruption and
  /// leave the engine as freshly declared; snapshots from a newer format
  /// yield Unimplemented. After a successful restore, subsequent Recognize
  /// calls produce bit-identical results to the engine that was saved.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  friend class EvalContext;
  using FluentKeyMap =
      std::unordered_map<Term, FluentTimeline, TermHash>;


  /// The region of the window a (definition, key) must regenerate:
  /// t >= from (suffix invalidated by new/delayed input). Canonical forms:
  /// clean = {kTimestampNever}, full = {window_start}. There is no prefix
  /// side: purging never changes in-window answers (events falling off the
  /// front only remove points that fall off with them, and coords retain a
  /// boundary fix, see PurgeBefore).
  struct RegenRegion {
    Timestamp from;
    bool clean() const { return from == kTimestampNever; }
  };

  /// Per-definition evidence caches (incremental engine only).
  struct SimpleDefCache {
    using EvidenceMap = std::unordered_map<Term, CachedEvidence, TermHash>;
    EvidenceMap evidence;
    std::vector<Term> keys;  ///< Sorted key set of the previous evaluation.
    /// Parallel to `keys`: each key's cache entry and committed timeline
    /// slot (nullptr when the key has no slot). Derived — rewritten at every
    /// commit, rebuilt on restore, never serialized — so the per-slide key
    /// walk needs no map lookups. Map nodes are stable, so the pointers stay
    /// valid until their key is evicted.
    std::vector<CachedEvidence*> entries;
    // Escape is sound: points into the heap-backed committed timeline map.
    MARITIME_ARENA_ESCAPE_OK std::vector<FluentTimeline*> timelines;
    /// Due queue: a min-heap of (earliest cached point time, key), one live
    /// record per entry (CachedEvidence::queued names it; records whose
    /// time no longer matches are stale and dropped when popped). A key is
    /// due once the window start reaches its earliest point. Derived,
    /// rebuilt on restore, never serialized.
    std::vector<std::pair<Timestamp, Term>> due_queue;
    /// Keys popped from the due queue at the end of the previous step (their
    /// earliest point is at or before this step's window start), plus, after
    /// a restore, every key whose clean fast-forward the restored state does
    /// not guarantee. Sorted; the next step visits them.
    std::vector<Term> due;
    /// Keys the latest step visited (sorted) and whether it visited every
    /// key: the boundary record is updated for these only.
    std::vector<Term> visited;
    bool swept = true;
  };
  struct DerivedDefCache {
    /// The derived store itself persists across slides under the incremental
    /// engine and is the cache; this flag marks it populated at least once.
    bool valid = false;
  };
  using AnyCache = std::variant<SimpleDefCache, DerivedDefCache>;

  /// Dependency-scoped dirty view of one cross-key definition, computed at
  /// that definition's evaluation time by projecting each dirty *input* key
  /// through the definition's KeyProjector (DESIGN.md §14). `by_key.For(A)`
  /// is then the earliest time any dependency of output key A changed;
  /// `unscoped` collects contributions that cannot be attributed to an
  /// output key (keyless derived-event changes, unprojectable input keys)
  /// and lower-bounds every output key. Computed serially on the caller
  /// thread, read-only during key evaluation.
  struct ScopedDirty {
    DirtyMap by_key;
    Timestamp unscoped = kTimestampNever;
    bool active = false;

    void Reset() {
      by_key.Clear();
      unscoped = kTimestampNever;
      active = false;
    }
  };

  /// Region telemetry filled by DirtyRegionFor; the commit loop counts it.
  struct RegionStats {
    bool narrowed = false;     ///< Scoped start strictly beat the floor.
    bool fleet_floor = false;  ///< Used a dirty fleet-wide floor.
  };

  /// Drops input events at or before the cutoff (before evaluation).
  void PurgeBefore(Timestamp inclusive_cutoff);
  /// Drops coord fixes shadowed by each vessel's latest fix at or before the
  /// cutoff. Runs after evaluation: a delayed fix that shadows a vessel's
  /// boundary fix leaves the shadowed position visible to the dependency
  /// projectors of the step that learns of it (the position the vessel was
  /// at before the change, see KeyProjector).
  void PurgeCoordsBefore(Timestamp inclusive_cutoff);
  /// Brings every input store into order: sorts the events asserted since
  /// the last call and merges them into the sorted prefix (and the subject
  /// index), and re-sorts only the vessels whose coord history went out of
  /// order.
  void SortPendingInput();
  struct EventStore;
  /// Derives a restored store's ordering bookkeeping: the sorted prefix is
  /// the longest sorted prefix of the stored order, and the whole store is
  /// the pending run, so the next Recognize sorts and indexes it with the
  /// same merge that takes in new input.
  static void DeriveInputOrder(EventStore* store);
  /// Heap-orders coord_purge_ after RestoreFrom refilled it.
  void RebuildCoordPurge();

  RegenRegion DirtyRegionFor(const DependencySpec& deps, Term key,
                             bool cross_key, Timestamp wstart,
                             const ScopedDirty* scoped = nullptr,
                             RegionStats* stats = nullptr) const;

  /// Builds scoped_scratch_ for a cross-key definition with a projector;
  /// returns nullptr (fleet-floor behaviour) when the definition is not
  /// cross-key or declares no projector.
  const ScopedDirty* ComputeScopedDirty(const DependencySpec& deps,
                                        bool cross_key, const EvalContext& ctx);

  /// Implementation of EvalContext::ForEachCoordCovering.
  void ForEachCoordCovering(
      Term vessel, Timestamp from,
      const std::function<void(Timestamp, const geo::GeoPoint&)>& fn) const;

  /// The sorted key set of a simple fluent at this step: its domain plus
  /// the keys carrying a boundary value.
  std::vector<Term> EvalKeys(const SimpleFluentSpec& spec,
                             const EvalContext& ctx, bool have_boundary);

  /// One evaluator per definition kind. The regeneration region decides
  /// the work: naive mode (and the incremental engine's first slide)
  /// regenerate every key over the whole window; naive mode also
  /// commits nothing to the evidence caches.
  void EvaluateSimple(const SimpleFluentSpec& spec, SimpleDefCache& cache,
                      const EvalContext& ctx, bool have_boundary,
                      RecognitionResult* result);
  void EvaluateDerived(const DerivedEventSpec& spec, DerivedDefCache& cache,
                       const EvalContext& ctx, RecognitionResult* result);

  /// Empties every piece of cross-slide state, leaving the engine as its
  /// declarations built it: RestoreFrom starts from here, and returns here
  /// when it fails part-way, so a failed restore leaves no partial state.
  void ClearState();

  /// Splices a definition commit's new timeline slots (`added`) and
  /// recycled ones (`removed`), both sorted by key, into fluent_keys_[fidx]
  /// and fluent_timelines_[fidx].
  void SpliceKeyMemo(
      size_t fidx,
      std::span<const std::pair<Term, const FluentTimeline*>> added,
      std::span<const Term> removed);

  /// The boundary value of a committed timeline at `next_wstart`, the next
  /// window start, recognized at query time `q`.
  static std::optional<Value> BoundaryValue(const FluentTimeline* tl,
                                            Timestamp next_wstart,
                                            Timestamp q);

  /// Min-heap order of a due queue (earliest time on top).
  static bool DueLater(const std::pair<Timestamp, Term>& a,
                       const std::pair<Timestamp, Term>& b);
  /// Pops the keys of `cache` whose earliest cached point is at or before
  /// `until` into cache.due.
  static void PopDue(SimpleDefCache& cache, Timestamp until);

  /// Marks the two symbolic bounds of a restored timeline, saved as read in
  /// read_window_: the interval opening at its start and the open value's
  /// interval closing at its query time.
  void MarkWindowBounds(FluentTimeline* tl) const;

  /// Committed-timeline slot for (fidx, key), recycling a pooled node (with
  /// its container capacity) when the key is new to the map. Paired with
  /// RecycleTimeline below: a vessel that leaves a domain and re-enters a few
  /// slides later then costs no heap allocation at all.
  // Escape is sound: the slot lives in timelines_, whose FluentTimeline
  // values are default-constructed (heap-backed); commit copies into it.
  MARITIME_ARENA_ESCAPE_OK FluentTimeline& TimelineSlot(size_t fidx, Term key);
  /// Extracts `it` from `map` into the timeline node pool; returns the next
  /// iterator (erase-loop idiom).
  // Escape is sound: iterator into the committed heap-backed timeline map.
  MARITIME_ARENA_ESCAPE_OK FluentKeyMap::iterator RecycleTimeline(
      FluentKeyMap& map, FluentKeyMap::iterator it);

  stream::WindowSpec window_;
  EngineOptions options_;

  std::vector<std::string> event_names_;
  std::vector<std::string> fluent_names_;

  using AnySpec = std::variant<SimpleFluentSpec, DerivedEventSpec>;
  std::vector<AnySpec> definitions_;

  // Input event store of one event id. `by_time` is sorted by EventOrder
  // (time, subject, object) up to `sorted`; AssertEvent appends, extending
  // the sorted prefix while occurrences arrive in order. `by_time[indexed,
  // end)` is the input asserted since the last SortPendingInput, which
  // sorts only that run and merges it into the prefix and into the subject
  // index. The subject index — `by_subject` (the same occurrences sorted by
  // subject, then time) and `subjects` — is derived state: maintained at
  // merge and purge, never serialized, rebuilt by the first Recognize after
  // RestoreFrom (which leaves the whole store pending).
  // Invariant between slides: indexed <= sorted <= by_time.size().
  struct EventStore {
    std::vector<EventInstance> by_time;
    size_t sorted = 0;
    size_t indexed = 0;
    std::vector<EventInstance> by_subject;
    std::vector<Term> subjects;  ///< Distinct subjects, ascending.
  };
  std::vector<EventStore> input_events_;
  // Input asserted since the last Recognize. Ordering work is tracked per
  // store above; this flag is kept (and serialized) for the snapshot format.
  bool input_dirty_ = false;
  // Merge scratch of SortPendingInput; member lifetime keeps the capacity.
  std::vector<EventInstance> merge_scratch_;
  std::vector<Term> subject_scratch_;

  // Derived event instances of the current recognition step (incremental:
  // kept across steps and refreshed at each derived definition's commit).
  std::vector<std::vector<EventInstance>> derived_events_;

  // coord fluent: per vessel, (t, pos) sorted by t, fixes of equal t in
  // arrival order (CoordOf returns the one asserted last). `fixes[0,
  // sorted)` is in that order; a fix earlier than the last one lists the
  // vessel in coords_unsorted_, and SortPendingInput inserts the vessel's
  // tail into place (a stable insertion, so equal-t order is arrival order
  // however the fixes were batched).
  struct CoordHistory {
    std::vector<std::pair<Timestamp, geo::GeoPoint>> fixes;
    size_t sorted = 0;
  };
  static constexpr size_t kInitialFixCapacity = 16;
  std::unordered_map<Term, CoordHistory, TermHash> coords_;
  std::vector<Term> coords_unsorted_;
  // Purge schedule: a min-heap of (time, vessel), one entry per fix not yet
  // past a purge cutoff. PurgeBefore pops the entries at or before the
  // cutoff and trims only those vessels — the ones with a fix leaving the
  // window — instead of visiting every vessel ever seen. Derived state,
  // rebuilt by RestoreFrom.
  std::vector<std::pair<Timestamp, Term>> coord_purge_;
  // Coords asserted since the last Recognize (serialized, as input_dirty_).
  bool coords_dirty_ = false;

  // Computed timelines of the current recognition step.
  // Escape is sound: map values are default-constructed FluentTimelines
  // (heap-backed); the commit phase copies arena scratch into them by value.
  MARITIME_ARENA_ESCAPE_OK std::vector<FluentKeyMap> timelines_;
  // Sorted key set per fluent, mirroring timelines_, and the timeline of
  // each key in the same order; rebuilt when a commit changes the map's key
  // set so FluentKeys()/FluentTimelines() are O(1) instead of a sort per
  // call. Map nodes are stable, so the pointers live as long as the memo.
  std::vector<std::vector<Term>> fluent_keys_;
  // Escape is sound: points into the heap-backed committed timeline map.
  MARITIME_ARENA_ESCAPE_OK
  std::vector<std::vector<const FluentTimeline*>> fluent_timelines_;
  // Splice scratch of SpliceKeyMemo and of the per-key cache arrays;
  // member lifetime keeps the capacities.
  std::vector<Term> key_scratch_;
  MARITIME_ARENA_ESCAPE_OK std::vector<const FluentTimeline*> memo_scratch_;
  std::vector<CachedEvidence*> entry_scratch_;
  MARITIME_ARENA_ESCAPE_OK std::vector<FluentTimeline*> slot_scratch_;
  // The window every committed timeline of the incremental engine is read
  // in (FluentTimeline::window): this step's window start and query time.
  TimelineWindow read_window_;

  // --- incremental-engine dirty state --------------------------------------
  // Accumulated between Recognize calls by AssertEvent/AssertCoord; cleared
  // at the end of each Recognize.
  std::vector<DirtyMap> dirty_events_;  ///< Per event id, by subject.
  DirtyMap dirty_coords_;               ///< By vessel.
  bool dirty_all_ = true;               ///< Until the first recognition.
  // Per-slide change propagation, reset at each Recognize: earliest
  // in-window change per (fluent, key) committed this step, and per derived
  // event id.
  std::vector<DirtyMap> changed_fluents_;
  std::vector<Timestamp> changed_derived_;
  // Right-edge instability bookkeeping: fluent keys whose committed evidence
  // or interval endpoints touched the query time exactly, and derived events
  // with an instance at exactly the query time. Such output was produced
  // before its continuation past the window edge was visible (HoldsRightOf
  // at t == q is false for an ongoing interval clipped at q), so readers
  // must re-evaluate from there at the next slide. Recorded at each commit,
  // injected into changed_fluents_/changed_derived_ at the start of the next
  // incremental Recognize, then cleared.
  std::vector<std::vector<Term>> edge_fluents_;  ///< Per fluent id.
  std::vector<char> edge_derived_;               ///< Per event id.
  // edge_fluents_ of the previous step, per fluent id: the keys with a
  // cached point at prev_query_, which their own definition must visit.
  std::vector<std::vector<Term>> prev_edge_fluents_;
  // Query time of the previous Recognize call (kInvalidTimestamp before the
  // first): the window's leading edge (prev_query_, q] is new territory
  // that the clean fast-forward must treat specially.
  Timestamp prev_query_ = kInvalidTimestamp;
  // Per-definition caches, parallel to definitions_.
  std::vector<AnyCache> def_caches_;

  EngineCacheStats cache_stats_;
  EngineAllocStats alloc_stats_;
  /// Per-definition regen telemetry, parallel to definitions_. Session
  /// counters only (never serialized).
  std::vector<DefRegenStats> def_regen_stats_;
  /// Index of the definition currently being evaluated (set by Recognize's
  /// dispatch loop so the evaluators can attribute telemetry).
  size_t cur_def_ = 0;

  // Scoped-dirty scratch, rebuilt per (cross-key, projected) definition at
  // its evaluation time; member lifetime keeps the capacities across slides.
  ScopedDirty scoped_scratch_;
  // Projection memo for the current definition: input key -> projected
  // output keys from `from`. A projection from an earlier time is a superset
  // of one from a later time, so an entry with from <= requested is
  // reusable. Invalidated per definition (projectors may differ across defs)
  // by bumping the generation stamp rather than clearing the map: stale
  // entries are recomputed in place, so map nodes and per-entry key vectors
  // keep their capacity and the steady state allocates nothing here.
  struct Projection {
    uint64_t gen = 0;
    Timestamp from = kTimestampNever;
    std::vector<Term> keys;
    bool ok = false;
  };
  std::unordered_map<Term, Projection, TermHash> projection_memo_;
  uint64_t projection_gen_ = 0;

  // Serial scratch for the derived-event evaluators (one definition at a
  // time): previous-slide store contents and fresh rule output. Member
  // lifetime keeps the buffer capacity across slides, so steady-state
  // derivation allocates nothing.
  std::vector<EventInstance> derived_old_;
  std::vector<EventInstance> derived_fresh_;

  // Recycled map nodes — each still owning its containers' capacity — for
  // keys that left an evaluated set (stale-key erase, cache eviction). A key
  // re-entering later reuses a pooled node instead of allocating the node
  // plus every inner buffer afresh; bounded by the historical peak key count.
  // Escape is sound: pooled nodes are extracted from the heap-backed
  // committed maps above; their inner buffers never reference an arena.
  MARITIME_ARENA_ESCAPE_OK std::vector<FluentKeyMap::node_type> timeline_pool_;
  MARITIME_ARENA_ESCAPE_OK
  std::vector<SimpleDefCache::EvidenceMap::node_type> evidence_pool_;

  // Output row counts of the previous slide, used to pre-size the next
  // result's vectors (row counts are stable slide to slide).
  size_t prev_fluent_rows_ = 0;
  size_t prev_event_rows_ = 0;

  /// The slide-scoped arena. All per-slide scratch — rule output points,
  /// episode buffers, flat timelines under construction, outcome rows —
  /// bumps it; Recognize() harvests its stats and resets it before
  /// returning. Committed state never references arena memory (copy-out at
  /// commit, DESIGN.md §10).
  // Escape is sound: this member IS the arena ownership (outlives every
  // slide), not a value allocated from one.
  MARITIME_ARENA_ESCAPE_OK common::Arena arena_;

  // Inertia across window slides: for each fluent key, the value holding at
  // the *next* window start, recorded at the end of each recognition step.
  // Per-fluent flat vectors sorted by key. A step that visits every key of
  // a fluent rebuilds its vector in place (clear + refill reuses capacity);
  // a sparse step updates only the keys it visited and the keys due next
  // (DESIGN.md §7 "Clean-key bypass").
  struct BoundaryRecord {
    Timestamp at = kInvalidTimestamp;
    std::vector<std::vector<std::pair<Term, Value>>> values;

    /// Carried value of `key` under fluent index `fidx`, if any.
    std::optional<Value> CarriedValue(size_t fidx, Term key) const {
      const auto& vec = values[fidx];
      const auto it = std::lower_bound(
          vec.begin(), vec.end(), key,
          [](const auto& e, const Term& k) { return e.first < k; });
      if (it == vec.end() || !(it->first == key)) return std::nullopt;
      return it->second;
    }
  };
  BoundaryRecord boundary_;

  // Escape is sound: default-constructed, heap-backed, always empty.
  MARITIME_ARENA_ESCAPE_OK FluentTimeline empty_timeline_;
  std::vector<EventInstance> empty_events_;
  std::vector<Term> empty_keys_;
};

}  // namespace maritime::rtec

#endif  // MARITIME_RTEC_ENGINE_H_
