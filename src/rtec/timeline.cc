#include "rtec/timeline.h"

#include <algorithm>
#include <cassert>

#include "common/check.h"

namespace maritime::rtec {
namespace {

struct Marker {
  Timestamp t;
  bool is_termination;
  Value value;
};

struct RawEpisode {
  Value value;
  Timestamp since;
  Timestamp till;
  bool carried;   // Seeded by inertia at the window boundary (no start event).
  bool ongoing;   // Still open at the query time (no end event).
};

}  // namespace

void FluentTimeline::AppendValue(Value v, IntervalSpan intervals,
                                 std::span<const Timestamp> starts,
                                 std::span<const Timestamp> ends) {
  MARITIME_DCHECK_MSG(slices.empty() || slices.back().value < v,
                      "timeline values must be appended in ascending order");
  ValueSlice s;
  s.value = v;
  s.ival_begin = static_cast<uint32_t>(interval_store.size());
  interval_store.insert(interval_store.end(), intervals.begin(),
                        intervals.end());
  s.ival_end = static_cast<uint32_t>(interval_store.size());
  s.start_begin = static_cast<uint32_t>(time_store.size());
  time_store.insert(time_store.end(), starts.begin(), starts.end());
  s.start_end = static_cast<uint32_t>(time_store.size());
  s.end_begin = static_cast<uint32_t>(time_store.size());
  time_store.insert(time_store.end(), ends.begin(), ends.end());
  s.end_end = static_cast<uint32_t>(time_store.size());
  slices.push_back(s);
}

void FluentTimeline::CopyFrom(const FluentTimeline& src) {
  // Copy-assign through the non-propagating allocator: contents land in this
  // object's existing backing (and capacity, when sufficient). When the
  // destination must grow, grow geometrically — a key's history lengthens a
  // little every slide while the window fills, and exact-fit growth would
  // reallocate each of those slides.
  const auto assign = [](auto& dst, const auto& src_store) {
    if (dst.capacity() < src_store.size()) {
      dst.reserve(std::max(src_store.size(), 2 * dst.capacity()));
    }
    dst.assign(src_store.begin(), src_store.end());
  };
  assign(slices, src.slices);
  assign(interval_store, src.interval_store);
  assign(time_store, src.time_store);
  open_value = src.open_value;
  carried_at = src.carried_at;
  open_at = src.open_at;
}

bool HoldsAt(const IntervalView& list, Timestamp t) {
  // Last interval with since < t, as HoldsAt(IntervalSpan) finds it.
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [t](const Interval& i) { return i.since < t; });
  if (it == list.begin()) return false;
  return (*(it - 1)).till >= t;
}

bool HoldsRightOf(const IntervalView& list, Timestamp t) {
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [t](const Interval& i) { return i.since <= t; });
  if (it == list.begin()) return false;
  return (*(it - 1)).till > t;
}

IntervalList ToList(const IntervalView& view) {
  return IntervalList(view.begin(), view.end());
}

const FluentTimeline::ValueSlice* FluentTimeline::FindSlice(Value v) const {
  // The per-key value set is tiny (usually 1); a linear scan beats a binary
  // search on spans this short.
  for (const ValueSlice& s : slices) {
    if (s.value == v) return &s;
    if (s.value > v) break;
  }
  return nullptr;
}

IntervalView FluentTimeline::IntervalsFor(Value v) const {
  const ValueSlice* s = FindSlice(v);
  return s == nullptr ? IntervalView() : IntervalsAt(*s);
}

std::span<const Timestamp> FluentTimeline::StartsFor(Value v) const {
  const ValueSlice* s = FindSlice(v);
  return s == nullptr ? std::span<const Timestamp>() : StartsAt(*s);
}

std::span<const Timestamp> FluentTimeline::EndsFor(Value v) const {
  const ValueSlice* s = FindSlice(v);
  return s == nullptr ? std::span<const Timestamp>() : EndsAt(*s);
}

bool FluentTimeline::Holds(Value v, Timestamp t) const {
  return HoldsAt(IntervalsFor(v), t);
}

bool FluentTimeline::HoldsRight(Value v, Timestamp t) const {
  return HoldsRightOf(IntervalsFor(v), t);
}

std::optional<Value> FluentTimeline::ValueAt(Timestamp t) const {
  for (const ValueSlice& s : slices) {
    if (HoldsAt(IntervalsAt(s), t)) return s.value;
  }
  return std::nullopt;
}

std::optional<Value> FluentTimeline::ValueRightOf(Timestamp t) const {
  for (const ValueSlice& s : slices) {
    if (HoldsRightOf(IntervalsAt(s), t)) return s.value;
  }
  return std::nullopt;
}

bool operator==(const FluentTimeline& a, const FluentTimeline& b) {
  if (a.open_value != b.open_value) return false;
  if (a.slices.size() != b.slices.size()) return false;
  for (size_t i = 0; i < a.slices.size(); ++i) {
    const auto& sa = a.slices[i];
    const auto& sb = b.slices[i];
    if (sa.value != sb.value) return false;
    if (!(a.IntervalsAt(sa) == b.IntervalsAt(sb))) return false;
    if (!std::ranges::equal(a.StartsAt(sa), b.StartsAt(sb))) return false;
    if (!std::ranges::equal(a.EndsAt(sa), b.EndsAt(sb))) return false;
  }
  return true;
}

void ComputeSimpleFluentInto(std::span<const ValuedPoint> initiations,
                             std::span<const ValuedPoint> terminations,
                             std::optional<Value> carried_value,
                             Timestamp window_start, Timestamp query_time,
                             common::Arena* scratch, FluentTimeline* out) {
  assert(window_start <= query_time);
  common::ArenaVector<Marker> markers{common::ArenaAllocator<Marker>(scratch)};
  markers.reserve(initiations.size() + terminations.size());
  for (const auto& p : initiations) {
    if (p.t > window_start && p.t <= query_time) {
      markers.push_back(Marker{p.t, false, p.value});
    }
  }
  for (const auto& p : terminations) {
    if (p.t > window_start && p.t <= query_time) {
      markers.push_back(Marker{p.t, true, p.value});
    }
  }
  std::sort(markers.begin(), markers.end(),
            [](const Marker& a, const Marker& b) {
              if (a.t != b.t) return a.t < b.t;
              // Terminations sort before initiations at the same time-point
              // so a value broken at t can be re-initiated at t.
              if (a.is_termination != b.is_termination) return a.is_termination;
              return a.value < b.value;
            });

  common::ArenaVector<RawEpisode> raw{
      common::ArenaAllocator<RawEpisode>(scratch)};
  bool has_current = false;
  Value current = 0;
  Timestamp open_since = window_start;
  bool open_carried = false;
  if (carried_value.has_value()) {
    has_current = true;
    current = *carried_value;
    open_since = window_start;
    open_carried = true;
  }

  size_t i = 0;
  while (i < markers.size()) {
    const Timestamp t = markers[i].t;
    // Gather this time-point's group.
    bool terminates_current = false;
    bool initiates_other = false;
    bool has_min_init = false;
    Value min_init = 0;
    for (size_t j = i; j < markers.size() && markers[j].t == t; ++j) {
      const Marker& m = markers[j];
      if (m.is_termination) {
        if (has_current && m.value == current) {
          terminates_current = true;
        }
      } else {
        if (!has_min_init || m.value < min_init) {
          min_init = m.value;
          has_min_init = true;
        }
        if (has_current && m.value != current) initiates_other = true;
      }
    }
    if (has_current && (terminates_current || initiates_other)) {
      raw.push_back(
          RawEpisode{current, open_since, t, open_carried, false});
      has_current = false;
    }
    if (!has_current && has_min_init) {
      has_current = true;
      current = min_init;
      open_since = t;
      open_carried = false;
    }
    while (i < markers.size() && markers[i].t == t) ++i;
  }
  if (has_current) {
    raw.push_back(RawEpisode{current, open_since, query_time, open_carried,
                             true});
  }

  // Coalesce same-value episodes that touch (a break immediately followed by
  // a re-initiation at the same time-point is not a real interval boundary).
  common::ArenaVector<RawEpisode> merged{
      common::ArenaAllocator<RawEpisode>(scratch)};
  for (const RawEpisode& e : raw) {
    if (!merged.empty() && merged.back().value == e.value &&
        merged.back().till == e.since) {
      merged.back().till = e.till;
      merged.back().ongoing = e.ongoing;
      continue;
    }
    merged.push_back(e);
  }

  out->slices.clear();
  out->interval_store.clear();
  out->time_store.clear();
  out->open_value.reset();
  out->carried_at = FluentTimeline::kNoInterval;
  out->open_at = FluentTimeline::kNoInterval;
  // Distinct values, ascending — the slice table's order. The per-key value
  // set is tiny, so the value×episode regrouping below is effectively linear.
  common::ArenaVector<Value> values{common::ArenaAllocator<Value>(scratch)};
  Timestamp prev_till = window_start;
  for (const RawEpisode& e : merged) {
    if (e.ongoing) {
      out->open_value = e.value;
    }
    if (e.since >= e.till) continue;  // An initiation exactly at the query
                                      // time has no in-window points yet.
    // Amalgamation invariant: episodes advance monotonically, so a fluent
    // never holds two values at one time-point (broken rules (1)–(2)).
    MARITIME_DCHECK_MSG(e.since >= prev_till,
                        "overlapping episodes after amalgamation");
    prev_till = e.till;
    if (std::find(values.begin(), values.end(), e.value) == values.end()) {
      values.push_back(e.value);
    }
  }
  std::sort(values.begin(), values.end());
  for (const Value v : values) {
    FluentTimeline::ValueSlice s;
    s.value = v;
    s.ival_begin = static_cast<uint32_t>(out->interval_store.size());
    s.start_begin = static_cast<uint32_t>(out->time_store.size());
    // A slice's start points precede its end points in the shared time store,
    // so starts and ends are filled in two passes over this value's episodes.
    for (const RawEpisode& e : merged) {
      if (e.value != v || e.since >= e.till) continue;
      const auto at = static_cast<uint32_t>(out->interval_store.size());
      if (e.carried) out->carried_at = at;
      if (e.ongoing) out->open_at = at;
      out->interval_store.push_back(Interval{e.since, e.till});
      if (!e.carried) out->time_store.push_back(e.since);
    }
    s.ival_end = static_cast<uint32_t>(out->interval_store.size());
    s.start_end = static_cast<uint32_t>(out->time_store.size());
    s.end_begin = s.start_end;
    for (const RawEpisode& e : merged) {
      if (e.value != v || e.since >= e.till) continue;
      if (!e.ongoing) out->time_store.push_back(e.till);
    }
    s.end_end = static_cast<uint32_t>(out->time_store.size());
    out->slices.push_back(s);
  }
#if MARITIME_DCHECKS_ENABLED
  // Per value: maximal intervals sorted, disjoint, non-adjacent, and the
  // start/end point lists sorted — the properties every downstream interval
  // operation (union/intersect/complement) assumes.
  for (const auto& s : out->slices) {
    MARITIME_DCHECK_MSG(IsNormalized(IntervalSpan(out->interval_store)
                                         .subspan(s.ival_begin,
                                                  s.ival_end - s.ival_begin)),
                        "fluent interval list not sorted/disjoint/maximal");
    MARITIME_DCHECK(std::ranges::is_sorted(out->StartsAt(s)));
    MARITIME_DCHECK(std::ranges::is_sorted(out->EndsAt(s)));
  }
#endif
}

// Escape is sound: the returned timeline is default-constructed (heap-backed).
MARITIME_ARENA_ESCAPE_OK FluentTimeline ComputeSimpleFluent(
    const FluentEvidence& evidence, Timestamp window_start,
    Timestamp query_time) {
  FluentTimeline out;
  ComputeSimpleFluentInto(evidence.initiations, evidence.terminations,
                          evidence.carried_value, window_start, query_time,
                          /*scratch=*/nullptr, &out);
  return out;
}

void MergeCachedPointsInto(std::span<const ValuedPoint> cached,
                           std::span<const ValuedPoint> fresh,
                           Timestamp window_start, Timestamp regen_from,
                           PointVec* out) {
  const auto needs_eval = [&](Timestamp t) { return t >= regen_from; };
  out->clear();
  out->reserve(cached.size() + fresh.size());
  for (const ValuedPoint& p : cached) {
    if (p.t > window_start && !needs_eval(p.t)) out->push_back(p);
  }
  for (const ValuedPoint& p : fresh) {
    // Points a rule generated outside its regeneration region are duplicates
    // of the cached slice (rules are deterministic); dropping them instead of
    // deduplicating keeps hint-ignoring rules exactly correct.
    if (p.t > window_start && needs_eval(p.t)) out->push_back(p);
  }
}

std::vector<ValuedPoint> MergeCachedPoints(std::span<const ValuedPoint> cached,
                                           std::vector<ValuedPoint> fresh,
                                           Timestamp window_start,
                                           Timestamp regen_from) {
  PointVec out;
  MergeCachedPointsInto(cached, fresh, window_start, regen_from, &out);
  return std::vector<ValuedPoint>(out.begin(), out.end());
}

std::optional<Timestamp> EarliestPointDiff(std::span<const ValuedPoint> a,
                                           std::span<const ValuedPoint> b,
                                           Timestamp window_start,
                                           common::Arena* scratch) {
  // Prune+sort one input into `buf` only when needed: evidence lists are
  // almost always already time-sorted (rules sweep events in order), in
  // which case the comparison below walks the spans in place.
  const auto in_window = [&](const ValuedPoint& p) {
    return p.t > window_start;
  };
  PointVec buf_a{common::ArenaAllocator<ValuedPoint>(scratch)};
  PointVec buf_b{common::ArenaAllocator<ValuedPoint>(scratch)};
  const auto canonicalize = [&](std::span<const ValuedPoint> in,
                                PointVec* buf) -> std::span<const ValuedPoint> {
    const bool sorted = std::is_sorted(in.begin(), in.end());
    const bool pruned = in.empty() || in.front().t > window_start;
    if (sorted && pruned) return in;
    buf->reserve(in.size());
    std::copy_if(in.begin(), in.end(), std::back_inserter(*buf), in_window);
    if (!sorted) std::sort(buf->begin(), buf->end());
    return *buf;
  };
  const std::span<const ValuedPoint> sa = canonicalize(a, &buf_a);
  const std::span<const ValuedPoint> sb = canonicalize(b, &buf_b);
  const size_t n = std::min(sa.size(), sb.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(sa[i] == sb[i])) return std::min(sa[i].t, sb[i].t);
  }
  if (sa.size() > n) return sa[n].t;
  if (sb.size() > n) return sb[n].t;
  return std::nullopt;
}

}  // namespace maritime::rtec
