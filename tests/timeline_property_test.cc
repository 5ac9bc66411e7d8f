// Property tests for the maximal-interval computation: random
// initiate/terminate evidence must always yield interval lists that are
// sorted, pairwise disjoint, non-adjacent (maximal), consistent with the
// evidence semantics, and mutually exclusive across values. In Debug and
// sanitizer builds these also drive the MARITIME_DCHECKs inside
// ComputeSimpleFluent through thousands of random amalgamations.

#include "rtec/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rtec/interval.h"

namespace maritime::rtec {
namespace {

FluentEvidence RandomEvidence(Rng& rng, Timestamp window_start,
                              Timestamp query_time, int values) {
  FluentEvidence ev;
  const int n_init = static_cast<int>(rng.NextInt(0, 30));
  const int n_term = static_cast<int>(rng.NextInt(0, 30));
  // Deliberately include out-of-window points (before window_start, after
  // query_time) — ComputeSimpleFluent must ignore them.
  const Timestamp lo = window_start - 10;
  const Timestamp hi = query_time + 10;
  for (int i = 0; i < n_init; ++i) {
    ev.initiations.push_back(
        ValuedPoint{static_cast<Value>(rng.NextInt(1, values)),
                    rng.NextInt(lo, hi)});
  }
  for (int i = 0; i < n_term; ++i) {
    ev.terminations.push_back(
        ValuedPoint{static_cast<Value>(rng.NextInt(1, values)),
                    rng.NextInt(lo, hi)});
  }
  if (rng.NextInt(0, 3) == 0) {
    ev.carried_value = static_cast<Value>(rng.NextInt(1, values));
  }
  return ev;
}

/// All intervals of all values, in one list sorted by since.
std::vector<std::pair<Value, Interval>> FlattenedIntervals(
    const FluentTimeline& tl) {
  std::vector<std::pair<Value, Interval>> flat;
  for (const auto& slice : tl.slices) {
    for (const Interval& i : tl.IntervalsAt(slice)) {
      flat.emplace_back(slice.value, i);
    }
  }
  std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
    return a.second.since < b.second.since;
  });
  return flat;
}

TEST(TimelinePropertyTest, RandomEvidenceYieldsNormalizedDisjointIntervals) {
  Rng rng(20260805);
  constexpr int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    const Timestamp window_start = rng.NextInt(0, 100);
    const Timestamp query_time = window_start + rng.NextInt(0, 200);
    const FluentEvidence ev =
        RandomEvidence(rng, window_start, query_time, 4);
    const FluentTimeline tl =
        ComputeSimpleFluent(ev, window_start, query_time);

    for (const auto& slice : tl.slices) {
      const IntervalList list = ToList(tl.IntervalsAt(slice));
      // Sorted, disjoint, maximal (non-adjacent), all non-empty.
      EXPECT_TRUE(IsNormalized(list)) << "round " << round;
      EXPECT_FALSE(list.empty()) << "round " << round;
      for (const Interval& i : list) {
        // Clipped to the window (window_start, query_time].
        EXPECT_GE(i.since, window_start) << "round " << round;
        EXPECT_LE(i.till, query_time) << "round " << round;
      }
    }

    // A fluent holds at most one value at a time: across *all* values the
    // intervals must still be pairwise disjoint.
    const auto flat = FlattenedIntervals(tl);
    for (size_t i = 1; i < flat.size(); ++i) {
      EXPECT_LE(flat[i - 1].second.till, flat[i].second.since)
          << "round " << round << ": value " << flat[i - 1].first
          << " overlaps value " << flat[i].first;
    }

    // Start/end events align with interval boundaries.
    for (const auto& slice : tl.slices) {
      const auto starts = tl.StartsAt(slice);
      EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
      for (const Timestamp t : starts) {
        const auto list = tl.IntervalsAt(slice);
        EXPECT_TRUE(std::any_of(
            list.begin(), list.end(),
            [t](const Interval& i) { return i.since == t; }))
            << "round " << round;
      }
      const auto ends = tl.EndsAt(slice);
      EXPECT_TRUE(std::is_sorted(ends.begin(), ends.end()));
      for (const Timestamp t : ends) {
        const auto list = tl.IntervalsAt(slice);
        EXPECT_TRUE(std::any_of(
            list.begin(), list.end(),
            [t](const Interval& i) { return i.till == t; }))
            << "round " << round;
      }
    }

    // The open value's last interval reaches the query time — unless the
    // episode was (re-)initiated exactly at the query time, in which case it
    // has no in-window points yet (it only seeds inertia for the next slide).
    if (tl.open_value.has_value()) {
      const auto& list = tl.IntervalsFor(*tl.open_value);
      const bool initiated_at_query = std::any_of(
          ev.initiations.begin(), ev.initiations.end(),
          [query_time](const ValuedPoint& p) { return p.t == query_time; });
      if (!list.empty() && !initiated_at_query) {
        EXPECT_EQ(list.back().till, query_time) << "round " << round;
      }
    }
  }
}

TEST(TimelinePropertyTest, AdversarialSameTimePointBursts) {
  // Many initiations+terminations stacked on the same few time-points:
  // the worst case for the amalgamation's same-group handling.
  Rng rng(777);
  for (int round = 0; round < 500; ++round) {
    FluentEvidence ev;
    for (int i = 0; i < 20; ++i) {
      const Timestamp t = 10 + rng.NextInt(0, 3);  // only 4 distinct times
      if (rng.NextInt(0, 1) == 0) {
        ev.initiations.push_back(
            ValuedPoint{static_cast<Value>(rng.NextInt(1, 3)), t});
      } else {
        ev.terminations.push_back(
            ValuedPoint{static_cast<Value>(rng.NextInt(1, 3)), t});
      }
    }
    const FluentTimeline tl = ComputeSimpleFluent(ev, 5, 20);
    for (const auto& slice : tl.slices) {
      EXPECT_TRUE(IsNormalized(ToList(tl.IntervalsAt(slice))))
          << "round " << round;
    }
    const auto flat = FlattenedIntervals(tl);
    for (size_t i = 1; i < flat.size(); ++i) {
      EXPECT_LE(flat[i - 1].second.till, flat[i].second.since)
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace maritime::rtec
