#ifndef MARITIME_RTEC_TIMELINE_H_
#define MARITIME_RTEC_TIMELINE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/arena.h"
#include "rtec/interval.h"
#include "rtec/terms.h"

namespace maritime::rtec {

/// Evidence-point storage whose backing (heap or slide-scoped arena) is
/// chosen at construction. Rules append into these; the engine hands rules an
/// arena-backed vector during evaluation and copies surviving points out to
/// heap-backed cache slots at commit (DESIGN.md §10).
using PointVec = common::ArenaVector<ValuedPoint>;
using TimeVec = common::ArenaVector<Timestamp>;

/// One value's maximal intervals as readers see them. A committed timeline
/// of the incremental engine keeps two bounds symbolic (DESIGN.md §10): the
/// interval carried in by inertia opens at the window start, and the
/// interval still open at the query time closes there, both read from the
/// engine's current window. A clean key's timeline then needs no edit when
/// the window slides; the view applies both clamps on access. For any other
/// timeline it reads the stored intervals as they are.
class IntervalView {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Random-access iterator yielding clamped intervals by value.
  class Iterator;
  using iterator = Iterator;
  using const_iterator = Iterator;
  using value_type = Interval;

  IntervalView() = default;
  /// The stored intervals, unclamped.
  explicit IntervalView(IntervalSpan stored) : stored_(stored) {}
  /// `stored` with element `carried` opening at `window_start` and element
  /// `open` closing at `query_time` (kNone: no such element).
  IntervalView(IntervalSpan stored, size_t carried, Timestamp window_start,
               size_t open, Timestamp query_time)
      : stored_(stored),
        carried_(carried),
        open_(open),
        window_start_(window_start),
        query_time_(query_time) {}

  size_t size() const { return stored_.size(); }
  bool empty() const { return stored_.empty(); }
  Interval operator[](size_t i) const {
    Interval iv = stored_[i];
    if (i == carried_) iv.since = window_start_;
    if (i == open_) iv.till = query_time_;
    return iv;
  }
  Interval back() const { return (*this)[size() - 1]; }
  Iterator begin() const;
  Iterator end() const;

  friend bool operator==(const IntervalView& a, IntervalSpan b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < b.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  friend bool operator==(const IntervalView& a, const IntervalView& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  IntervalSpan stored_;
  size_t carried_ = kNone;
  size_t open_ = kNone;
  Timestamp window_start_ = 0;
  Timestamp query_time_ = 0;
};

class IntervalView::Iterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Interval;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Interval;

  Iterator() = default;
  Iterator(const IntervalView& view, size_t i) : view_(view), i_(i) {}
  Interval operator*() const { return view_[i_]; }
  Interval operator[](difference_type n) const {
    return view_[static_cast<size_t>(static_cast<difference_type>(i_) + n)];
  }
  Iterator& operator++() { ++i_; return *this; }
  Iterator operator++(int) { Iterator old = *this; ++i_; return old; }
  Iterator& operator--() { --i_; return *this; }
  Iterator operator--(int) { Iterator old = *this; --i_; return old; }
  Iterator& operator+=(difference_type n) {
    i_ = static_cast<size_t>(static_cast<difference_type>(i_) + n);
    return *this;
  }
  Iterator& operator-=(difference_type n) { return *this += -n; }
  friend Iterator operator+(Iterator it, difference_type n) { return it += n; }
  friend Iterator operator+(difference_type n, Iterator it) { return it += n; }
  friend Iterator operator-(Iterator it, difference_type n) { return it -= n; }
  friend difference_type operator-(const Iterator& a, const Iterator& b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(const Iterator& a, const Iterator& b) {
    return a.i_ == b.i_;
  }
  friend bool operator<(const Iterator& a, const Iterator& b) {
    return a.i_ < b.i_;
  }
  friend bool operator>(const Iterator& a, const Iterator& b) { return b < a; }
  friend bool operator<=(const Iterator& a, const Iterator& b) {
    return !(b < a);
  }
  friend bool operator>=(const Iterator& a, const Iterator& b) {
    return !(a < b);
  }

 private:
  IntervalView view_;
  size_t i_ = 0;
};

inline IntervalView::Iterator IntervalView::begin() const {
  return Iterator(*this, 0);
}
inline IntervalView::Iterator IntervalView::end() const {
  return Iterator(*this, size());
}

/// HoldsAt / HoldsRightOf (interval.h) over a view's clamped intervals.
bool HoldsAt(const IntervalView& list, Timestamp t);
bool HoldsRightOf(const IntervalView& list, Timestamp t);

/// Materializes a view as an owning IntervalList (result rows, tests).
IntervalList ToList(const IntervalView& view);

/// The window a committed timeline is read in: the window start and query
/// time of its engine's latest recognition step. One per engine, shared by
/// all of its committed timelines, so advancing it slides them all.
struct TimelineWindow {
  Timestamp start = 0;
  Timestamp query = 0;
};

/// Computed history of one fluent key (F applied to one ground term) within
/// the current window: per value, the maximal intervals plus the derived
/// built-in start/end event time-points.
///
/// start(F=V) fires at the initiation boundary (`since`) of each maximal
/// interval whose initiation was observed inside the window; an interval
/// carried across the window boundary by inertia has no start event. end(F=V)
/// fires at `till` of each interval that is actually broken; an interval
/// still open at the query time has no end event yet (paper Section 4.1).
///
/// Storage is struct-of-arrays: one contiguous Interval store plus one shared
/// Timestamp store (each slice's start points followed by its end points),
/// with a per-value offset table (`slices`, sorted by value ascending) instead
/// of a map of per-value heap vectors. Interval algebra and amalgamation then
/// sweep contiguous spans, and a whole timeline is three bump allocations when
/// arena-backed.
///
/// Interval readers go through IntervalView, which applies the two symbolic
/// window bounds of a committed timeline (`window`, `carried_at`,
/// `open_at`). Start and end points need no clamp: a carried start and an
/// open end are never materialized as events.
struct MARITIME_ARENA_SCOPED FluentTimeline {
  struct ValueSlice {
    Value value = 0;
    uint32_t ival_begin = 0, ival_end = 0;    ///< Range in interval_store.
    uint32_t start_begin = 0, start_end = 0;  ///< Range in time_store.
    uint32_t end_begin = 0, end_end = 0;      ///< Range in time_store.
  };

  static constexpr uint32_t kNoInterval = static_cast<uint32_t>(-1);

  common::ArenaVector<ValueSlice> slices;  ///< Sorted by value ascending.
  IntervalVec interval_store;
  TimeVec time_store;  ///< Start then end points, slice by slice.

  /// The value still open (unbroken) at the query time, if any; its interval
  /// is reported clipped at the query time. Used by the engine to carry
  /// inertia across window slides.
  std::optional<Value> open_value;

  /// Index in interval_store of the interval carried in by inertia (it opens
  /// at the window start) and of the interval still open at the query time
  /// (it closes there); kNoInterval when there is none. Set by
  /// ComputeSimpleFluentInto, copied by CopyFrom.
  uint32_t carried_at = kNoInterval;
  uint32_t open_at = kNoInterval;
  /// Null unless the timeline is committed in an incremental engine. Then
  /// the carried interval's `since` reads as window->start and the open
  /// interval's `till` as window->query, whatever is stored: a timeline
  /// whose evidence did not change stays exact as the window slides.
  const TimelineWindow* window = nullptr;

  FluentTimeline() = default;
  /// Arena-backed construction: all three stores bump `arena`.
  explicit FluentTimeline(common::Arena* arena)
      : slices(common::ArenaAllocator<ValueSlice>(arena)),
        interval_store(common::ArenaAllocator<Interval>(arena)),
        time_store(common::ArenaAllocator<Timestamp>(arena)) {}

  bool Empty() const { return slices.empty(); }

  /// Appends one value's rows. Values MUST be appended in ascending order —
  /// the slice table is the sorted index over the stores.
  void AppendValue(Value v, IntervalSpan intervals,
                   std::span<const Timestamp> starts,
                   std::span<const Timestamp> ends);

  /// Content copy that keeps the destination's backing (capacity-reusing
  /// copy-out at commit: arena-built source, heap-backed destination) and
  /// its `window`.
  void CopyFrom(const FluentTimeline& src);

  IntervalView IntervalsFor(Value v) const;
  std::span<const Timestamp> StartsFor(Value v) const;
  std::span<const Timestamp> EndsFor(Value v) const;

  /// View of one slice, for callers iterating `slices` directly.
  IntervalView IntervalsAt(const ValueSlice& s) const {
    const IntervalSpan stored = IntervalSpan(interval_store)
                                    .subspan(s.ival_begin,
                                             s.ival_end - s.ival_begin);
    if (window == nullptr) return IntervalView(stored);
    const auto in_slice = [&s](uint32_t at) {
      return at >= s.ival_begin && at < s.ival_end
                 ? static_cast<size_t>(at - s.ival_begin)
                 : IntervalView::kNone;
    };
    return IntervalView(stored, in_slice(carried_at), window->start,
                        in_slice(open_at), window->query);
  }
  std::span<const Timestamp> StartsAt(const ValueSlice& s) const {
    return std::span<const Timestamp>(time_store)
        .subspan(s.start_begin, s.start_end - s.start_begin);
  }
  std::span<const Timestamp> EndsAt(const ValueSlice& s) const {
    return std::span<const Timestamp>(time_store)
        .subspan(s.end_begin, s.end_end - s.end_begin);
  }

  /// holdsAt(F=v, t).
  bool Holds(Value v, Timestamp t) const;

  /// F=v holds immediately after t (covers episodes starting exactly at t).
  bool HoldsRight(Value v, Timestamp t) const;

  /// The value holding at `t`, if any (a fluent need not have a value at
  /// every time-point).
  std::optional<Value> ValueAt(Timestamp t) const;

  /// The value holding immediately after `t`, if any.
  std::optional<Value> ValueRightOf(Timestamp t) const;

  /// Logical content equality as readers see it (canonical representation:
  /// ascending values, stores in slice order, clamped intervals).
  friend bool operator==(const FluentTimeline& a, const FluentTimeline& b);

 private:
  const ValueSlice* FindSlice(Value v) const;
};

/// Inputs to the maximal-interval computation for one fluent key.
struct MARITIME_ARENA_SCOPED FluentEvidence {
  /// Domain-specific initiation points: initiatedAt(F=value, t).
  PointVec initiations;
  /// Domain-specific termination points: terminatedAt(F=value, t).
  PointVec terminations;
  /// Value carried across the window boundary by inertia (the value the
  /// fluent held at window_start according to the previous recognition
  /// step), if any.
  std::optional<Value> carried_value;

  FluentEvidence() = default;
  explicit FluentEvidence(common::Arena* arena)
      : initiations(common::ArenaAllocator<ValuedPoint>(arena)),
        terminations(common::ArenaAllocator<ValuedPoint>(arena)) {}
};

/// Computes the maximal intervals of a simple fluent over the window
/// (window_start, query_time], implementing the law of inertia and the
/// `broken` rules (1)–(2) of the paper: F=V1 is broken at Tf either by
/// terminatedAt(F=V1, Tf) or by initiatedAt(F=V2, Tf) for V2 != V1, so a
/// fluent never holds two values at once.
///
/// Evidence points outside the window are ignored. An interval still open at
/// query_time is reported with till = query_time (and no end event).
///
/// `scratch` backs the marker/episode buffers of the sweep (nullptr = heap);
/// `out` is rebuilt in place on whatever backing it was constructed with.
void ComputeSimpleFluentInto(std::span<const ValuedPoint> initiations,
                             std::span<const ValuedPoint> terminations,
                             std::optional<Value> carried_value,
                             Timestamp window_start, Timestamp query_time,
                             common::Arena* scratch, FluentTimeline* out);

/// Convenience wrapper returning a heap-backed timeline (tests/benches).
// Escape is sound: the returned timeline is default-constructed, so all three
// stores carry the heap-backed allocator.
MARITIME_ARENA_ESCAPE_OK FluentTimeline ComputeSimpleFluent(
    const FluentEvidence& evidence, Timestamp window_start,
    Timestamp query_time);

/// Merges the reusable slice of a cached evidence point list with the points
/// regenerated by one incremental evaluation. The regeneration region is
/// "t >= regen_from" (suffix invalidated by new/delayed input): cached points
/// are kept exactly below the region, fresh points exactly inside it, and
/// points at or before `window_start` are dropped from both (they can never
/// enter a future window again, which keeps cache entries from growing with
/// stream length). With regen_from == window_start this reduces to "fresh
/// points after the window start" (a full recomputation).
void MergeCachedPointsInto(std::span<const ValuedPoint> cached,
                           std::span<const ValuedPoint> fresh,
                           Timestamp window_start, Timestamp regen_from,
                           PointVec* out);

/// Convenience wrapper returning a heap-backed vector (tests).
std::vector<ValuedPoint> MergeCachedPoints(std::span<const ValuedPoint> cached,
                                           std::vector<ValuedPoint> fresh,
                                           Timestamp window_start,
                                           Timestamp regen_from);

/// Earliest in-window time at which two evidence point multisets differ
/// (order-insensitive; points at or before `window_start` are ignored).
/// nullopt when the in-window multisets are equal. The incremental engine
/// uses this to decide whether a recomputed key actually changed — and from
/// which time onwards downstream definitions must re-evaluate. `scratch`
/// backs the sort buffers needed when an input is not already time-sorted
/// (nullptr = heap).
std::optional<Timestamp> EarliestPointDiff(std::span<const ValuedPoint> a,
                                           std::span<const ValuedPoint> b,
                                           Timestamp window_start,
                                           common::Arena* scratch = nullptr);

}  // namespace maritime::rtec

#endif  // MARITIME_RTEC_TIMELINE_H_
