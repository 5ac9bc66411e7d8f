#ifndef MARITIME_COMMON_TIME_H_
#define MARITIME_COMMON_TIME_H_

#include <cstdint>
#include <limits>
#include <string>

namespace maritime {

/// Discrete, totally ordered timestamp in seconds (paper Section 2: positions
/// are sampled "at discrete, totally ordered timestamps τ ... at the
/// granularity of seconds"). Interpreted as seconds since an arbitrary
/// stream epoch (the simulator uses 0 = stream start).
using Timestamp = int64_t;

/// A length of time in seconds.
using Duration = int64_t;

/// Sentinel for "no timestamp".
inline constexpr Timestamp kInvalidTimestamp = INT64_MIN;

inline constexpr Duration kSecond = 1;
inline constexpr Duration kMinute = 60;
inline constexpr Duration kHour = 3600;
inline constexpr Duration kDay = 86400;

/// a + b held at the Duration limits: a sum of durations never overflows.
inline Duration SaturatingAdd(Duration a, Duration b) {
  Duration sum = 0;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  using Limits = std::numeric_limits<Duration>;
  return b > 0 ? Limits::max() : Limits::min();
}

/// to − from held at the Duration limits. Feed timestamps may be any int64,
/// so the span between two of them need not fit; a forward jump too large to
/// represent reads as the longest duration, a backward one as the shortest.
inline Duration SaturatingSub(Timestamp to, Timestamp from) {
  Duration diff = 0;
  if (!__builtin_sub_overflow(to, from, &diff)) return diff;
  using Limits = std::numeric_limits<Duration>;
  return from < 0 ? Limits::max() : Limits::min();
}

/// Formats a duration as "Nd HH:MM:SS" (days omitted when zero), matching the
/// style of Table 4 in the paper ("1 day 07:20:58").
std::string FormatDuration(Duration d);

/// Formats a timestamp as "HH:MM:SS" offset from the stream epoch, with a day
/// prefix when >= 24h.
std::string FormatTimestamp(Timestamp t);

}  // namespace maritime

#endif  // MARITIME_COMMON_TIME_H_
