#ifndef MARITIME_RTEC_INTERVAL_H_
#define MARITIME_RTEC_INTERVAL_H_

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/time.h"

namespace maritime::rtec {

/// A maximal interval of an Event Calculus fluent, following RTEC's
/// convention: if F=V is initiated at Ts and first broken at Tf, then F=V
/// holds at every time-point T with Ts < T <= Tf (paper Section 4.1: "if
/// F=V is initiated at 10 and 20 and terminated at 25 and 30, F=V holds at
/// all T such that 10 < T <= 25").
///
/// `since` is the initiation boundary (the built-in start(F=V) event fires
/// there) and `till` the last time-point at which the value holds (the
/// built-in end(F=V) event fires there).
struct Interval {
  Timestamp since = 0;  ///< Exclusive lower bound (start-event time-point).
  Timestamp till = 0;   ///< Inclusive upper bound (end-event time-point).

  /// True iff the interval contains at least one time-point.
  bool NonEmpty() const { return since < till; }

  /// True iff F=V holds at `t` within this interval.
  bool Covers(Timestamp t) const { return since < t && t <= till; }

  /// Number of time-points at which the value holds.
  Duration Length() const { return till - since; }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.since == b.since && a.till == b.till;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Interval& i) {
  return os << "(" << i.since << "," << i.till << "]";
}

/// A list of maximal intervals: sorted by `since`, pairwise disjoint and
/// non-adjacent (adjacent intervals are coalesced because the fluent then
/// holds continuously across them).
using IntervalList = std::vector<Interval>;

/// A normalized interval sequence viewed as a contiguous span: what the
/// flat timelines hand out. IntervalList and ArenaVector<Interval> both
/// convert implicitly.
using IntervalSpan = std::span<const Interval>;

/// Interval storage whose backing (heap or slide-scoped arena) is chosen at
/// construction; see common::ArenaVector.
using IntervalVec = common::ArenaVector<Interval>;

/// Element-wise equality between a flat span and any interval container
/// (IntervalList converts to IntervalSpan implicitly, so this also covers
/// span-vs-vector comparisons in tests; found via ADL on Interval).
inline bool operator==(IntervalSpan a, IntervalSpan b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// Materializes a span as an owning IntervalList (result rows).
inline IntervalList ToList(IntervalSpan s) {
  return IntervalList(s.begin(), s.end());
}

/// True iff `list` satisfies the IntervalList invariant.
bool IsNormalized(IntervalSpan list);

/// True iff the fluent value holds at `t` in any interval of the list.
/// Precondition: `list` normalized. O(log n).
bool HoldsAt(IntervalSpan list, Timestamp t);

/// True iff the value holds at the "right limit" of `t`, i.e. at t+1 in the
/// discrete time model: there is an interval with since <= t < till. Used by
/// rules that must count an episode starting exactly at `t` (e.g. the vessel
/// whose stop initiates a suspicious-area episode).
bool HoldsRightOf(IntervalSpan list, Timestamp t);

}  // namespace maritime::rtec

#endif  // MARITIME_RTEC_INTERVAL_H_
