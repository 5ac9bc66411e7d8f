#ifndef MARITIME_TESTS_EC_ORACLE_H_
#define MARITIME_TESTS_EC_ORACLE_H_

// Wires the Event Calculus reference (ec_reference.h) to an rtec::Engine.
// The definitions a test registers on its naive engine are wrapped so that
// each slide's full-window evidence (domain keys, initiatedAt/terminatedAt
// points, derived instances) is captured; Check then recomputes every
// timeline and output row from that evidence with the reference and
// compares. Each definition is checked against the engine's own upstream
// timelines, which are checked in turn, so the whole hierarchy is verified.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ec_reference.h"
#include "rtec/engine.h"
#include "stream/sliding_window.h"

namespace maritime::rtec::ec_reference {

class Oracle {
 public:
  explicit Oracle(stream::WindowSpec window) : window_(window) {}
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// `spec` with its domain and rules wrapped to capture their output.
  /// Register the result on a serial naive engine (the captures are not
  /// synchronized, and only full-window evaluation yields whole evidence)
  /// that the oracle outlives: the wrappers point into it.
  SimpleFluentSpec Capture(SimpleFluentSpec spec) {
    Def* d = NewDef();
    d->fluent = spec.fluent;
    d->output = spec.output;
    spec.domain = [d, domain = std::move(spec.domain)](const EvalContext& ctx) {
      std::vector<Term> keys = domain(ctx);
      d->domain = keys;
      return keys;
    };
    spec.rules = [d, rules = std::move(spec.rules)](
                     const EvalContext& ctx, Term key, PointVec* initiated,
                     PointVec* terminated) {
      const size_t i0 = initiated->size();
      const size_t t0 = terminated->size();
      rules(ctx, key, initiated, terminated);
      Evidence& ev = d->evidence[key];
      ev.initiations.assign(initiated->begin() + static_cast<ptrdiff_t>(i0),
                            initiated->end());
      ev.terminations.assign(terminated->begin() + static_cast<ptrdiff_t>(t0),
                             terminated->end());
      d->called.push_back(key);
    };
    return spec;
  }

  DerivedEventSpec Capture(DerivedEventSpec spec) {
    Def* d = NewDef();
    d->event = spec.event;
    d->output = spec.output;
    spec.compute = [d, compute = std::move(spec.compute)](
                       const EvalContext& ctx,
                       std::vector<EventInstance>* out) {
      const size_t n0 = out->size();
      compute(ctx, out);
      d->produced.insert(d->produced.end(),
                         out->begin() + static_cast<ptrdiff_t>(n0),
                         out->end());
    };
    return spec;
  }

  /// Checks the slide `engine` — the naive engine the captured definitions
  /// are registered on — just recognized into `result`:
  ///  - each simple fluent's rules ran for exactly the reference's keys
  ///    (the domain plus the reference's own carried keys);
  ///  - every (fluent, key) timeline — intervals, start and end points and
  ///    the open value — and every derived event store equals the
  ///    reference computed from the captured evidence;
  ///  - the output rows equal the reference's.
  ::testing::AssertionResult Check(const Engine& engine,
                                   const RecognitionResult& result) {
    const Timestamp ws = result.window_start;
    const Timestamp q = result.query_time;
    const Timestamp next_ws = ws + window_.slide;
    std::vector<RecognizedFluent> want_fluents;
    std::vector<RecognizedEvent> want_events;
    std::ostringstream err;
    for (const auto& def : defs_) {
      Def& d = *def;
      // Take this slide's captures, leaving the definition ready for the
      // next one whatever the outcome.
      const std::vector<Term> domain = std::exchange(d.domain, {});
      std::vector<Term> called = std::exchange(d.called, {});
      const std::map<Term, Evidence> evidence = std::exchange(d.evidence, {});
      const std::vector<EventInstance> produced =
          std::exchange(d.produced, {});
      if (d.event >= 0) {
        const std::vector<EventInstance> want =
            DerivedEvents(produced, ws, q);
        if (engine.EventsOf(d.event) != want) {
          err << "derived event " << engine.EventName(d.event)
              << " differs from the reference";
          return Fail(err, q);
        }
        if (d.output) {
          for (const EventInstance& i : want) {
            want_events.push_back(RecognizedEvent{d.event, i});
          }
        }
        continue;
      }
      const std::vector<Term> keys = d.ref.Keys(domain, ws);
      std::sort(called.begin(), called.end());
      if (called != keys) {
        err << "fluent " << engine.FluentName(d.fluent)
            << ": rules ran for " << called.size()
            << " keys, the reference domain has " << keys.size();
        return Fail(err, q);
      }
      const std::map<Term, KeyHistory> want =
          d.ref.Step(keys, evidence, ws, q, next_ws);
      std::vector<Term> all = engine.KeysOf(d.fluent);
      all.insert(all.end(), keys.begin(), keys.end());
      std::sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      for (const Term& key : all) {
        const auto it = want.find(key);
        const KeyHistory expected =
            it == want.end() ? KeyHistory{} : it->second;
        const KeyHistory got = FromEngine(engine.TimelineOf(d.fluent, key));
        if (got != expected) {
          err << "fluent " << engine.FluentName(d.fluent) << " key " << key
              << "\n  reference: " << Describe(expected)
              << "\n  engine:    " << Describe(got);
          return Fail(err, q);
        }
      }
      if (!d.output) continue;
      for (const auto& [key, history] : want) {
        for (const ValueHistory& vh : history.values) {
          IntervalList intervals;
          for (const auto& [since, till] : vh.intervals) {
            intervals.push_back(Interval{since, till});
          }
          want_fluents.push_back(
              RecognizedFluent{d.fluent, key, vh.value, std::move(intervals)});
        }
      }
    }
    if (result.fluents != want_fluents || result.events != want_events) {
      err << "output rows differ from the reference (" << result.fluents.size()
          << "/" << want_fluents.size() << " fluent rows, "
          << result.events.size() << "/" << want_events.size()
          << " event rows)";
      return Fail(err, q);
    }
    return ::testing::AssertionSuccess();
  }

 private:
  /// One captured definition: exactly one of `fluent` / `event` is set.
  struct Def {
    FluentId fluent = -1;
    EventId event = -1;
    bool output = false;
    SimpleFluent ref;
    // Captures of the current slide.
    std::vector<Term> domain;
    std::vector<Term> called;
    std::map<Term, Evidence> evidence;
    std::vector<EventInstance> produced;
  };

  Def* NewDef() {
    defs_.push_back(std::make_unique<Def>());
    return defs_.back().get();
  }

  static KeyHistory FromEngine(const FluentTimeline& tl) {
    KeyHistory h;
    h.open_value = tl.open_value;
    for (const auto& slice : tl.slices) {
      ValueHistory vh;
      vh.value = slice.value;
      for (const Interval& i : tl.IntervalsAt(slice)) {
        vh.intervals.emplace_back(i.since, i.till);
      }
      vh.starts.assign(tl.StartsAt(slice).begin(), tl.StartsAt(slice).end());
      vh.ends.assign(tl.EndsAt(slice).begin(), tl.EndsAt(slice).end());
      h.values.push_back(std::move(vh));
    }
    return h;
  }

  static std::string Describe(const KeyHistory& h) {
    std::ostringstream os;
    for (const ValueHistory& vh : h.values) {
      os << "=" << vh.value << " over";
      for (const auto& [since, till] : vh.intervals) {
        os << " (" << since << "," << till << "]";
      }
      os << " starts";
      for (const Timestamp t : vh.starts) os << " " << t;
      os << " ends";
      for (const Timestamp t : vh.ends) os << " " << t;
      os << "; ";
    }
    if (h.open_value.has_value()) os << "open=" << *h.open_value;
    return os.str();
  }

  static ::testing::AssertionResult Fail(const std::ostringstream& err,
                                         Timestamp q) {
    return ::testing::AssertionFailure()
           << "Event Calculus reference mismatch at q=" << q << ": "
           << err.str();
  }

  stream::WindowSpec window_;
  std::vector<std::unique_ptr<Def>> defs_;
};

}  // namespace maritime::rtec::ec_reference

#endif  // MARITIME_TESTS_EC_ORACLE_H_
