#include "rtec/interval.h"

#include <algorithm>

namespace maritime::rtec {

bool IsNormalized(IntervalSpan list) {
  for (size_t i = 0; i < list.size(); ++i) {
    if (!list[i].NonEmpty()) return false;
    if (i > 0 && list[i].since <= list[i - 1].till) return false;
  }
  return true;
}

bool HoldsAt(IntervalSpan list, Timestamp t) {
  // Last interval with since < t.
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [t](const Interval& i) { return i.since < t; });
  if (it == list.begin()) return false;
  return (it - 1)->till >= t;
}

bool HoldsRightOf(IntervalSpan list, Timestamp t) {
  const auto it = std::partition_point(
      list.begin(), list.end(),
      [t](const Interval& i) { return i.since <= t; });
  if (it == list.begin()) return false;
  return (it - 1)->till > t;
}

}  // namespace maritime::rtec
