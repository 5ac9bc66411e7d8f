#ifndef MARITIME_TESTS_EC_REFERENCE_H_
#define MARITIME_TESTS_EC_REFERENCE_H_

// A test-only Event Calculus reference for the RTEC engine, written directly
// from the paper's rules (1)–(2) and its working-memory definition (Section
// 4.2). It shares no code with the engine's timeline or interval layers
// (it includes neither rtec/timeline.h nor rtec/interval.h), so a bug there
// cannot hide in a differential against it. It is deliberately naive:
// holdsAt is decided by brute force at every integer time-point of the
// window, and maximal intervals are read off the resulting run of values.

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "rtec/terms.h"

namespace maritime::rtec::ec_reference {

/// initiatedAt/terminatedAt points of one fluent key, as the definition's
/// rules produced them for the whole window. Points outside the window
/// (ws, q] may be present; the working memory makes them invisible.
struct Evidence {
  std::vector<ValuedPoint> initiations;
  std::vector<ValuedPoint> terminations;
};

/// One value's history of a fluent key within the window (ws, q].
struct ValueHistory {
  Value value = kTrue;
  /// Maximal intervals (since, till]: F=value holds at every T with
  /// since < T <= till, and at neither bound's outer neighbour.
  std::vector<std::pair<Timestamp, Timestamp>> intervals;
  /// start(F=value): `since` of each interval not carried in from before
  /// the window.
  std::vector<Timestamp> starts;
  /// end(F=value): `till` of each interval that is broken by the query time.
  std::vector<Timestamp> ends;

  friend bool operator==(const ValueHistory&, const ValueHistory&) = default;
};

/// A fluent key's history within the window.
struct KeyHistory {
  /// Values holding somewhere in (ws, q], ascending.
  std::vector<ValueHistory> values;
  /// The value holding right after q, as far as the window can tell.
  std::optional<Value> open_value;

  friend bool operator==(const KeyHistory&, const KeyHistory&) = default;
};

/// A simple fluent followed from slide to slide. For each key it decides
/// which value F holds at every integer time-point T of the window by brute
/// force, from the evidence visible in (ws, q] and the value carried in:
///
/// Rule (1): F=V holds at T iff F=V was initiated at some Ts < T and is not
/// broken in between. Rule (2): broken(F=V, Ts, T) iff for some Tf with
/// Ts < Tf < T, terminatedAt(F=V, Tf) or initiatedAt(F=V', Tf) with V' != V.
/// Conventions at the edges of the rules:
///  - the value carried across the window boundary counts as initiated at ws;
///  - of several values initiated at one time-point, the least takes effect.
///
/// Maximal intervals are the runs of one value. The fluent keeps its own
/// carried-inertia record: the value each key holds at the next window start.
class SimpleFluent {
 public:
  /// The keys to evaluate for the window starting at `ws`: the definition's
  /// `domain` plus every key carrying a value into this window. Sorted.
  std::vector<Term> Keys(std::vector<Term> domain, Timestamp ws) const;

  /// Histories of `keys` (from Keys) over (ws, q]; a key missing from
  /// `evidence` has none. Then records the value each key holds at
  /// `next_ws`, the start of the next window.
  std::map<Term, KeyHistory> Step(const std::vector<Term>& keys,
                                  const std::map<Term, Evidence>& evidence,
                                  Timestamp ws, Timestamp q,
                                  Timestamp next_ws);

 private:
  std::optional<Value> Carried(Term key, Timestamp ws) const;

  Timestamp carried_at_ = kInvalidTimestamp;
  std::map<Term, Value> carried_;
};

/// A derived event's occurrences in the window: the instances the rules
/// produced, restricted to (ws, q], sorted by (time, subject, object), with
/// duplicates removed.
std::vector<EventInstance> DerivedEvents(std::vector<EventInstance> produced,
                                         Timestamp ws, Timestamp q);

}  // namespace maritime::rtec::ec_reference

#endif  // MARITIME_TESTS_EC_REFERENCE_H_
