#ifndef MARITIME_STREAM_SLIDING_WINDOW_H_
#define MARITIME_STREAM_SLIDING_WINDOW_H_

#include <vector>

#include "common/status.h"
#include "common/time.h"

namespace maritime::stream {

/// A time-based sliding-window specification: range ω and slide step β
/// (paper Section 2). At each query time Q_i the window covers the interval
/// (Q_i − ω, Q_i]; query times advance by β.
struct WindowSpec {
  Duration range = kHour;   ///< ω: how far back the window looks.
  Duration slide = kMinute; ///< β: how often the window moves forward.

  /// Validates ω > 0, β > 0. (The paper notes typically β < ω so that
  /// successive instantiations overlap, but β ≥ ω — a tumbling window —
  /// is also legal.)
  Status Validate() const;

  bool operator==(const WindowSpec&) const = default;
};

/// Generates the successive query times Q_1, Q_2, ... of a windowed
/// computation over stream time. The first query time is
/// `origin + spec.slide`, i.e. windows fire after each full slide of data.
class QueryTimeSequence {
 public:
  QueryTimeSequence(WindowSpec spec, Timestamp origin)
      : spec_(spec), next_(origin + spec.slide) {}

  const WindowSpec& spec() const { return spec_; }

  /// The next query time not yet fired.
  Timestamp next_query_time() const { return next_; }

  /// Start of the window at the next query time: Q − ω.
  Timestamp next_window_start() const { return next_ - spec_.range; }

  /// Advances past Q and returns it.
  Timestamp Fire() {
    const Timestamp q = next_;
    next_ += spec_.slide;
    return q;
  }

  /// All query times with Q <= `until`, firing each.
  std::vector<Timestamp> FireUntil(Timestamp until);

 private:
  WindowSpec spec_;
  Timestamp next_;
};

}  // namespace maritime::stream

#endif  // MARITIME_STREAM_SLIDING_WINDOW_H_
