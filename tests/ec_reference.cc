#include "ec_reference.h"

#include <algorithm>
#include <iterator>

namespace maritime::rtec::ec_reference {
namespace {

/// The working memory: only time-points in (ws, q] are visible.
bool Visible(Timestamp t, Timestamp ws, Timestamp q) {
  return t > ws && t <= q;
}

/// Rules (1)–(2) tabulated per value: for F=V, the time-points at which
/// F=V is initiated (least of the values initiated there; ws when V is
/// carried in) and those at which any F=V' != V is initiated or F=V is
/// terminated. Both lists are sorted.
struct ValueRules {
  Value value = kTrue;
  std::vector<Timestamp> initiated;
  std::vector<Timestamp> broken;
};

std::vector<ValueRules> Tabulate(const Evidence& evidence,
                                 std::optional<Value> carried, Timestamp ws,
                                 Timestamp q) {
  // Least value initiated at each visible time-point.
  std::map<Timestamp, Value> least;
  for (const ValuedPoint& p : evidence.initiations) {
    if (!Visible(p.t, ws, q)) continue;
    const auto [it, fresh] = least.try_emplace(p.t, p.value);
    if (!fresh) it->second = std::min(it->second, p.value);
  }
  std::vector<Value> values;
  for (const ValuedPoint& p : evidence.initiations) {
    if (Visible(p.t, ws, q)) values.push_back(p.value);
  }
  if (carried.has_value()) values.push_back(*carried);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  std::vector<ValueRules> rules;
  for (const Value v : values) {
    ValueRules r;
    r.value = v;
    if (carried == v) r.initiated.push_back(ws);
    for (const auto& [t, first] : least) {
      if (first == v) r.initiated.push_back(t);
    }
    for (const ValuedPoint& p : evidence.initiations) {
      if (Visible(p.t, ws, q) && p.value != v) r.broken.push_back(p.t);
    }
    for (const ValuedPoint& p : evidence.terminations) {
      if (Visible(p.t, ws, q) && p.value == v) r.broken.push_back(p.t);
    }
    std::sort(r.broken.begin(), r.broken.end());
    rules.push_back(std::move(r));
  }
  return rules;
}

/// The latest element of the sorted list `times` strictly before `t`.
std::optional<Timestamp> LastBefore(const std::vector<Timestamp>& times,
                                    Timestamp t) {
  const auto it = std::lower_bound(times.begin(), times.end(), t);
  if (it == times.begin()) return std::nullopt;
  return *std::prev(it);
}

/// holdsAt(F=V, t). Of all initiations Ts < t, the latest one is the only
/// candidate worth checking: any Tf breaking F=V in (Ts, t) for the latest
/// Ts also lies in (Ts', t) for every earlier Ts'.
bool HoldsAt(const ValueRules& r, Timestamp t) {
  const std::optional<Timestamp> ts = LastBefore(r.initiated, t);
  if (!ts.has_value()) return false;
  const std::optional<Timestamp> tf = LastBefore(r.broken, t);
  return !tf.has_value() || *tf <= *ts;
}

/// The value F holds at time-point t (ws < t <= q + 1), if any.
std::optional<Value> ValueAt(const std::vector<ValueRules>& rules,
                             Timestamp t) {
  // Rule (2) breaks every other value wherever one is initiated, so at most
  // one value holds at any time-point.
  for (const ValueRules& r : rules) {
    if (HoldsAt(r, t)) return r.value;
  }
  return std::nullopt;
}

/// The history of one fluent key in (ws, q]: ValueAt at every integer
/// time-point, grouped into maximal runs.
KeyHistory History(const std::vector<ValueRules>& rules, Timestamp ws,
                   Timestamp q) {
  KeyHistory h;
  h.open_value = ValueAt(rules, q + 1);
  std::map<Value, ValueHistory> by_value;
  // Walk every time-point of the window; a maximal run of one value over
  // [a, b] is the interval (a - 1, b].
  std::optional<Value> prev;
  Timestamp run_from = ws;
  for (Timestamp t = ws + 1; t <= q + 1; ++t) {
    const std::optional<Value> v = t <= q ? ValueAt(rules, t) : h.open_value;
    if (v == prev && t <= q) continue;
    if (prev.has_value()) {
      // The run of `prev` covered [run_from + 1, t - 1].
      ValueHistory& vh = by_value[*prev];
      vh.value = *prev;
      vh.intervals.emplace_back(run_from, t - 1);
      // A run from the window's first time-point is carried in: it has no
      // in-window initiation, so no start event.
      if (run_from > ws) vh.starts.push_back(run_from);
      // Broken at t - 1, unless the run reaches q and still holds after it.
      if (v != prev) vh.ends.push_back(t - 1);
    }
    prev = v;
    run_from = t - 1;
  }
  for (auto& [value, vh] : by_value) h.values.push_back(std::move(vh));
  return h;
}

}  // namespace

std::optional<Value> SimpleFluent::Carried(Term key, Timestamp ws) const {
  if (carried_at_ != ws) return std::nullopt;
  const auto it = carried_.find(key);
  if (it == carried_.end()) return std::nullopt;
  return it->second;
}

std::vector<Term> SimpleFluent::Keys(std::vector<Term> domain,
                                     Timestamp ws) const {
  if (carried_at_ == ws) {
    for (const auto& [key, value] : carried_) domain.push_back(key);
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

std::map<Term, KeyHistory> SimpleFluent::Step(
    const std::vector<Term>& keys, const std::map<Term, Evidence>& evidence,
    Timestamp ws, Timestamp q, Timestamp next_ws) {
  std::map<Term, KeyHistory> out;
  std::map<Term, Value> next_carried;
  const Evidence none;
  for (const Term& key : keys) {
    const auto it = evidence.find(key);
    const Evidence& ev = it == evidence.end() ? none : it->second;
    const std::vector<ValueRules> rules =
        Tabulate(ev, Carried(key, ws), ws, q);
    out[key] = History(rules, ws, q);
    // Inertia across the slide: the value holding right after the next
    // window's start.
    const std::optional<Value> next =
        ValueAt(rules, std::min(next_ws, q) + 1);
    if (next.has_value()) next_carried[key] = *next;
  }
  carried_at_ = next_ws;
  carried_ = std::move(next_carried);
  return out;
}

std::vector<EventInstance> DerivedEvents(std::vector<EventInstance> produced,
                                         Timestamp ws, Timestamp q) {
  std::erase_if(produced,
                [&](const EventInstance& e) { return !Visible(e.t, ws, q); });
  const auto order = [](const EventInstance& a, const EventInstance& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.subject != b.subject) return a.subject < b.subject;
    return a.object < b.object;
  };
  std::sort(produced.begin(), produced.end(), order);
  produced.erase(std::unique(produced.begin(), produced.end()),
                 produced.end());
  return produced;
}

}  // namespace maritime::rtec::ec_reference
