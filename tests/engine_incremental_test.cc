#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "ec_oracle.h"
#include "geo/geo_point.h"
#include "maritime/recognizer.h"
#include "rtec/engine.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "stream/sliding_window.h"

namespace maritime::rtec {
namespace {

// ---------------------------------------------------------------------------
// Generic randomized differential: a contract-honoring definition hierarchy
// (multi-valued simple fluent -> conditioned simple fluent -> derived event,
// plus a cross-key fluent and a fluent without declared deps) fed an
// adversarial stream of fresh, delayed, and future-dated events, recognized
// side by side on the naive and the incremental engine. The naive engine's
// definitions are captured by the Event Calculus reference (ec_oracle.h),
// which recomputes every timeline and output row from their evidence; every
// slide must agree with it and be bit-identical across engines.
// ---------------------------------------------------------------------------

struct Schema {
  EventId move = -1;
  EventId stop = -1;
  EventId ping = -1;
  FluentId moving = -1;  // multi-valued: gear 1..3
  FluentId alert = -1;   // conditioned on moving + coords
  FluentId crowded = -1; // cross-key: >= 3 distinct vessels pinged
  EventId alarm = -1;    // derived from ping + alert
  FluentId lagged = -1;  // no deps: points off the event times
};

const Term kArea{1, 99};

/// Registers the hierarchy on `eng`; with an `oracle`, every definition is
/// captured for the Event Calculus reference.
Schema Register(Engine* eng, ec_reference::Oracle* oracle = nullptr) {
  Schema s;
  s.move = eng->DeclareEvent("move");
  s.stop = eng->DeclareEvent("stop");
  s.ping = eng->DeclareEvent("ping");
  s.moving = eng->DeclareFluent("moving");
  s.alert = eng->DeclareFluent("alert");
  s.crowded = eng->DeclareFluent("crowded");
  s.alarm = eng->DeclareEvent("alarm");
  s.lagged = eng->DeclareFluent("lagged");
  const auto add = [&](auto spec) {
    if (oracle != nullptr) spec = oracle->Capture(std::move(spec));
    if constexpr (std::is_same_v<decltype(spec), SimpleFluentSpec>) {
      eng->AddSimpleFluent(std::move(spec));
    } else {
      eng->AddDerivedEvent(std::move(spec));
    }
  };

  // moving(V)=gear: initiated by move (gear from the object term), terminated
  // by stop. Uses the NeedsEval hint (the engine must merge the cached
  // complement back in).
  {
    SimpleFluentSpec spec;
    spec.fluent = s.moving;
    spec.output = true;
    spec.deps = DependencySpec{{s.move, s.stop}, {}, false, false, {}};
    const Schema sc = s;
    spec.domain = [sc](const EvalContext& ctx) {
      std::vector<Term> keys;
      for (const auto& e : ctx.Events(sc.move)) keys.push_back(e.subject);
      for (const auto& e : ctx.Events(sc.stop)) keys.push_back(e.subject);
      return keys;
    };
    spec.rules = [sc](const EvalContext& ctx, Term key,
                      PointVec* initiated,
                      PointVec* terminated) {
      for (const auto& e : ctx.Events(sc.move)) {
        if (e.subject != key || !ctx.NeedsEval(e.t)) continue;
        initiated->push_back({1 + (e.object.id % 3), e.t});
      }
      for (const auto& e : ctx.Events(sc.stop)) {
        if (e.subject != key || !ctx.NeedsEval(e.t)) continue;
        for (Value v = 1; v <= 3; ++v) terminated->push_back({v, e.t});
      }
    };
    add(std::move(spec));
  }

  // alert(V): initiated at ping(V) while moving(V)=3 holds or V sits in the
  // northern half (coords), terminated by stop(V). Ignores the NeedsEval
  // hint on purpose: the engine must discard regenerated points outside the
  // dirty region rather than double-count them.
  {
    SimpleFluentSpec spec;
    spec.fluent = s.alert;
    spec.output = true;
    spec.deps = DependencySpec{{s.ping, s.stop}, {s.moving}, true, false, {}};
    const Schema sc = s;
    spec.domain = [sc](const EvalContext& ctx) {
      std::vector<Term> keys;
      for (const auto& e : ctx.Events(sc.ping)) keys.push_back(e.subject);
      for (const auto& e : ctx.Events(sc.stop)) keys.push_back(e.subject);
      return keys;
    };
    spec.rules = [sc](const EvalContext& ctx, Term key,
                      PointVec* initiated,
                      PointVec* terminated) {
      for (const auto& e : ctx.Events(sc.ping)) {
        if (e.subject != key) continue;
        const bool fast = ctx.HoldsRightOf(sc.moving, key, 3, e.t);
        const auto pos = ctx.CoordAt(key, e.t);
        if (fast || (pos.has_value() && pos->lat > 0.5)) {
          initiated->push_back({kTrue, e.t});
        }
      }
      for (const auto& e : ctx.Events(sc.stop)) {
        if (e.subject == key) terminated->push_back({kTrue, e.t});
      }
    };
    add(std::move(spec));
  }

  // crowded(area): cross-key — (re)checked at every ping: initiated while
  // >= 2 vessels are moving (any gear) at that instant, terminated while
  // fewer are. Conditions read only declared fluent timelines at the
  // generated time, per the DependencySpec contract (aggregating over the
  // raw event stream at *other* times would be window-front-dependent and
  // out of contract).
  {
    SimpleFluentSpec spec;
    spec.fluent = s.crowded;
    spec.output = true;
    spec.deps = DependencySpec{{s.ping}, {s.moving}, false, true, {}};
    const Schema sc = s;
    spec.domain = [](const EvalContext&) {
      return std::vector<Term>{kArea};
    };
    spec.rules = [sc](const EvalContext& ctx, Term /*key*/,
                      PointVec* initiated,
                      PointVec* terminated) {
      for (const auto& e : ctx.Events(sc.ping)) {
        if (!ctx.NeedsEval(e.t)) continue;
        size_t count = 0;
        for (const Term& v : ctx.FluentKeys(sc.moving)) {
          for (Value g = 1; g <= 3; ++g) {
            if (ctx.HoldsRightOf(sc.moving, v, g, e.t)) {
              ++count;
              break;
            }
          }
        }
        if (count >= 2) {
          initiated->push_back({kTrue, e.t});
        } else {
          terminated->push_back({kTrue, e.t});
        }
      }
    };
    add(std::move(spec));
  }

  // alarm(V): derived at ping occurrences while alert(V) holds (right limit,
  // so a ping that just initiated the alert already fires).
  {
    DerivedEventSpec spec;
    spec.event = s.alarm;
    spec.output = true;
    spec.deps = DependencySpec{{s.ping}, {s.alert}, false, true, {}};
    const Schema sc = s;
    spec.compute = [sc](const EvalContext& ctx,
                        std::vector<EventInstance>* out) {
      for (const auto& e : ctx.Events(sc.ping)) {
        if (!ctx.NeedsEval(e.t)) continue;
        if (ctx.HoldsRightOf(sc.alert, e.subject, kTrue, e.t)) {
          out->push_back({e.subject, Term::None(), e.t});
        }
      }
    };
    add(std::move(spec));
  }

  // lagged(area): initiated 20 time units before every ping, terminated 5
  // before and 5 after every stop, whichever vessel's. The time arithmetic
  // is outside the DependencySpec contract, so it declares no deps and every
  // engine regenerates it whole each slide. Its points land before the
  // window, exactly on its start, and past the query time: the working
  // memory must hide all three.
  {
    SimpleFluentSpec spec;
    spec.fluent = s.lagged;
    spec.output = true;
    const Schema sc = s;
    spec.domain = [](const EvalContext&) {
      return std::vector<Term>{kArea};
    };
    spec.rules = [sc](const EvalContext& ctx, Term /*key*/,
                      PointVec* initiated, PointVec* terminated) {
      for (const auto& e : ctx.Events(sc.ping)) {
        initiated->push_back({kTrue, e.t - 20});
      }
      for (const auto& e : ctx.Events(sc.stop)) {
        terminated->push_back({kTrue, e.t - 5});
        terminated->push_back({kTrue, e.t + 5});
      }
    };
    add(std::move(spec));
  }
  return s;
}

/// Renders a result compactly for divergence diagnostics.
std::string Dump(const RecognitionResult& r) {
  std::ostringstream os;
  for (const auto& f : r.fluents) {
    os << "  fluent " << f.fluent << " key " << f.key << " = " << f.value
       << " over";
    for (const auto& iv : f.intervals) os << " (" << iv.since << "," << iv.till
                                          << "]";
    os << "\n";
  }
  for (const auto& e : r.events) {
    os << "  event " << e.event << " subj " << e.instance.subject << " @ "
       << e.instance.t << "\n";
  }
  return os.str();
}

/// Dumps the state feeding the crowded fluent (diagnostics only).
std::string DumpState(Engine& eng, const Schema& s) {
  std::ostringstream os;
  for (const Term& k : eng.KeysOf(s.moving)) {
    const FluentTimeline& tl = eng.TimelineOf(s.moving, k);
    os << "  moving " << k << ":";
    for (const auto& slice : tl.slices) {
      for (const auto& iv : tl.IntervalsAt(slice)) {
        os << " v" << slice.value << "(" << iv.since << "," << iv.till << "]";
      }
    }
    if (tl.open_value.has_value()) os << " open=" << *tl.open_value;
    os << "\n";
  }
  os << "  pings:";
  for (const auto& e : eng.EventsOf(s.ping)) {
    os << " " << e.subject << "@" << e.t;
  }
  os << "\n";
  return os.str();
}

/// One randomly generated assertion, applied identically to every engine.
struct Assertion {
  enum Kind { kEvent, kCoord } kind = kEvent;
  EventId event = -1;
  Term subject;
  Term object;
  Timestamp t = 0;
  geo::GeoPoint pos;
};

TEST(EngineIncrementalDifferentialTest, RandomizedStreamBitIdentical) {
  const stream::WindowSpec window{50, 10};
  ec_reference::Oracle oracle(window);
  Engine naive(window);
  EngineOptions incr_opts;
  incr_opts.incremental = true;
  Engine incr(window, incr_opts);

  const Schema sn = Register(&naive, &oracle);
  const Schema si = Register(&incr);
  ASSERT_EQ(sn.alarm, si.alarm);

  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> vessel_dist(1, 12);
  std::uniform_int_distribution<int> gear_dist(0, 8);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  std::uniform_real_distribution<double> lat_dist(-1.0, 1.0);

  constexpr int kSlides = 1200;
  size_t slides_with_hits = 0;
  for (int slide = 1; slide <= kSlides; ++slide) {
    const Timestamp q = static_cast<Timestamp>(slide) * window.slide;
    std::uniform_int_distribution<int> burst(0, 6);
    const int n = burst(rng);
    for (int i = 0; i < n; ++i) {
      Assertion a;
      const Term vessel{0, vessel_dist(rng)};
      a.subject = vessel;
      // 80% fresh (within the new slide), 15% delayed (older in-window
      // times, dirtying past window slices), 5% future-dated (arrives ahead
      // of the query time; must take effect only at the next slide).
      const int when = kind_dist(rng);
      if (when < 80) {
        a.t = q - window.slide + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide - 1)(rng);
      } else if (when < 95) {
        const Timestamp wstart = q > window.range ? q - window.range : 0;
        a.t = wstart + 1 +
              std::uniform_int_distribution<Timestamp>(
                  0, std::max<Timestamp>(0, q - wstart - 1))(rng);
      } else {
        a.t = q + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide)(rng);
      }
      const int what = kind_dist(rng);
      if (what < 15) {
        a.kind = Assertion::kCoord;
        a.pos = geo::GeoPoint{0.0, lat_dist(rng)};
      } else if (what < 40) {
        a.event = sn.move;
        a.object = Term{2, gear_dist(rng)};
      } else if (what < 55) {
        a.event = sn.stop;
        a.object = Term::None();
      } else {
        a.event = sn.ping;
        a.object = Term::None();
      }
      for (Engine* eng : {&naive, &incr}) {
        if (a.kind == Assertion::kCoord) {
          eng->AssertCoord(a.subject, a.t, a.pos);
        } else {
          eng->AssertEvent(a.event, a.subject, a.t, a.object);
        }
      }
    }

    const EngineCacheStats before = incr.cache_stats();
    const RecognitionResult rn = naive.Recognize(q);
    ASSERT_TRUE(oracle.Check(naive, rn));
    const RecognitionResult ri = incr.Recognize(q);
    ASSERT_TRUE(rn == ri) << "incremental diverged at q=" << q << "\nnaive:\n"
                          << Dump(rn) << "incremental:\n" << Dump(ri)
                          << "naive state:\n" << DumpState(naive, sn)
                          << "incremental state:\n" << DumpState(incr, si);
    if (incr.cache_stats().hits > before.hits) ++slides_with_hits;
  }

  // The whole point: most slides reuse cached work for most keys.
  EXPECT_GT(incr.cache_stats().hits, incr.cache_stats().misses);
  EXPECT_GT(slides_with_hits, static_cast<size_t>(kSlides / 2));
  EXPECT_GT(incr.cache_stats().evictions, 0u);
  // The naive engine never touches the cache.
  EXPECT_EQ(naive.cache_stats().hits, 0u);
  EXPECT_EQ(naive.cache_stats().misses, 0u);
  EXPECT_EQ(naive.cache_entry_count(), 0u);
}

TEST(EngineIncrementalDifferentialTest, LongWindowCleanBypassBitIdentical) {
  // omega = 60 beta with sparse input: most keys are clean at most slides,
  // so the O(1) fast-forward (cached evidence and timeline carried over,
  // only the window clamps patched) is the common path rather than the
  // exception. Naive and incremental must still agree on every slide.
  const stream::WindowSpec window{600, 10};
  ec_reference::Oracle oracle(window);
  Engine naive(window);
  EngineOptions incr_opts;
  incr_opts.incremental = true;
  Engine incr(window, incr_opts);

  const Schema sn = Register(&naive, &oracle);
  const Schema si = Register(&incr);

  std::mt19937 rng(20261017);
  std::uniform_int_distribution<int> vessel_dist(1, 16);
  std::uniform_int_distribution<int> gear_dist(0, 8);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  std::uniform_real_distribution<double> lat_dist(-1.0, 1.0);

  constexpr int kSlides = 900;
  for (int slide = 1; slide <= kSlides; ++slide) {
    const Timestamp q = static_cast<Timestamp>(slide) * window.slide;
    const int n = std::uniform_int_distribution<int>(0, 2)(rng);
    for (int i = 0; i < n; ++i) {
      Assertion a;
      a.subject = Term{0, vessel_dist(rng)};
      // 90% fresh, 8% delayed anywhere in the window, 2% future-dated.
      const int when = kind_dist(rng);
      const Timestamp wstart = q > window.range ? q - window.range : 0;
      if (when < 90) {
        a.t = q - window.slide + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide - 1)(rng);
      } else if (when < 98) {
        a.t = wstart + 1 +
              std::uniform_int_distribution<Timestamp>(
                  0, std::max<Timestamp>(0, q - wstart - 1))(rng);
      } else {
        a.t = q + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide)(rng);
      }
      const int what = kind_dist(rng);
      if (what < 15) {
        a.kind = Assertion::kCoord;
        a.pos = geo::GeoPoint{0.0, lat_dist(rng)};
      } else if (what < 40) {
        a.event = sn.move;
        a.object = Term{2, gear_dist(rng)};
      } else if (what < 55) {
        a.event = sn.stop;
      } else {
        a.event = sn.ping;
      }
      for (Engine* eng : {&naive, &incr}) {
        if (a.kind == Assertion::kCoord) {
          eng->AssertCoord(a.subject, a.t, a.pos);
        } else {
          eng->AssertEvent(a.event, a.subject, a.t, a.object);
        }
      }
    }
    const RecognitionResult rn = naive.Recognize(q);
    ASSERT_TRUE(oracle.Check(naive, rn));
    const RecognitionResult ri = incr.Recognize(q);
    ASSERT_TRUE(rn == ri) << "incremental diverged at q=" << q << "\nnaive:\n"
                          << Dump(rn) << "incremental:\n" << Dump(ri)
                          << "naive state:\n" << DumpState(naive, sn)
                          << "incremental state:\n" << DumpState(incr, si);
  }

  // The per-key simple fluents (moving, alert) mostly take the bypass.
  for (const size_t def : {size_t{0}, size_t{1}}) {
    const DefRegenStats& st = incr.def_regen_stats()[def];
    EXPECT_GT(st.fast_forwards * 2, st.evals) << "definition " << def;
  }
  EXPECT_EQ(naive.def_regen_stats()[0].fast_forwards, 0u);
}

TEST(EngineIncrementalDifferentialTest,
     VeryLongWindowSparseSlidesBitIdentical) {
  // omega = 540 beta, past the lattice's omega/beta axis: almost every key
  // is clean at almost every slide, so the sparse step visits only marked,
  // due, edge and entering keys and slides the rest through their symbolic
  // window bounds. The stream makes each of those matter:
  //  - the fleet drifts (vessels 1..6 first, 14..19 by the end), so keys
  //    enter the domain and, once their events fall off the window, leave;
  //  - gears and alerts initiated once and rarely stopped stay open for
  //    hundreds of slides, and are carried across the window start when
  //    their initiating events fall off it;
  //  - each vessel goes quiet for long stretches, so its earliest point
  //    reaches the window start without a fresh mark to revisit it.
  // Midway the incremental engine is saved and the run goes on in a freshly
  // restored one, whose derived bypass state comes from the snapshot.
  const stream::WindowSpec window{5400, 10};
  ec_reference::Oracle oracle(window);
  Engine naive(window);
  EngineOptions incr_opts;
  incr_opts.incremental = true;
  auto incr = std::make_unique<Engine>(window, incr_opts);

  const Schema sn = Register(&naive, &oracle);
  Register(incr.get());

  std::mt19937 rng(20261019);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  std::uniform_real_distribution<double> lat_dist(-1.0, 1.0);

  constexpr int kSlides = 1500;
  constexpr int kCutSlide = 750;
  bool restored = false;
  for (int slide = 1; slide <= kSlides; ++slide) {
    const Timestamp q = static_cast<Timestamp>(slide) * window.slide;
    const int first_vessel = 1 + slide / 110;
    const int n = std::uniform_int_distribution<int>(0, 99)(rng) < 40 ? 1 : 0;
    for (int i = 0; i < n; ++i) {
      Assertion a;
      a.subject = Term{0, first_vessel + std::uniform_int_distribution<int>(
                                             0, 5)(rng)};
      // 92% fresh, 6% delayed anywhere in the window, 2% future-dated.
      const int when = kind_dist(rng);
      const Timestamp wstart = q > window.range ? q - window.range : 0;
      if (when < 92) {
        a.t = q - window.slide + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide - 1)(rng);
      } else if (when < 98) {
        a.t = wstart + 1 +
              std::uniform_int_distribution<Timestamp>(
                  0, std::max<Timestamp>(0, q - wstart - 1))(rng);
      } else {
        a.t = q + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide)(rng);
      }
      const int what = kind_dist(rng);
      if (what < 20) {
        a.kind = Assertion::kCoord;
        a.pos = geo::GeoPoint{0.0, lat_dist(rng)};
      } else if (what < 50) {
        a.event = sn.move;
        a.object = Term{2, std::uniform_int_distribution<int>(0, 8)(rng)};
      } else if (what < 56) {
        a.event = sn.stop;
      } else {
        a.event = sn.ping;
      }
      for (Engine* eng : {&naive, incr.get()}) {
        if (a.kind == Assertion::kCoord) {
          eng->AssertCoord(a.subject, a.t, a.pos);
        } else {
          eng->AssertEvent(a.event, a.subject, a.t, a.object);
        }
      }
    }
    if (slide == kCutSlide) {
      // Cut with this slide's input pending, as a checkpoint between the
      // feed and the recognition would.
      snapshot::Writer w;
      incr->SaveTo(w);
      incr = std::make_unique<Engine>(window, incr_opts);
      Register(incr.get());
      snapshot::Reader r(w.bytes());
      ASSERT_TRUE(incr->RestoreFrom(r).ok());
      restored = true;
    }
    const RecognitionResult rn = naive.Recognize(q);
    ASSERT_TRUE(oracle.Check(naive, rn));
    const RecognitionResult ri = incr->Recognize(q);
    ASSERT_TRUE(rn == ri) << "incremental diverged at q=" << q << "\nnaive:\n"
                          << Dump(rn) << "incremental:\n" << Dump(ri)
                          << "naive state:\n" << DumpState(naive, sn)
                          << "incremental state:\n"
                          << DumpState(*incr, sn);
  }
  ASSERT_TRUE(restored);

  // The per-key fluents skip almost every key, and keys came and went.
  for (const size_t def : {size_t{0}, size_t{1}}) {
    const DefRegenStats& st = incr->def_regen_stats()[def];
    EXPECT_GT(st.fast_forwards * 10, st.evals * 9) << "definition " << def;
  }
  EXPECT_GT(incr->cache_stats().evictions, 0u);
}

TEST(EngineIncrementalDifferentialTest, DelayIntoOldestQuarterBitIdentical) {
  // Delayed events land in the oldest quarter of the window, so every slide
  // receiving one dirties at least 75% of it: almost every key regenerates
  // almost its whole suffix, and the diff against the cached evidence must
  // still merge to what the naive engine and the reference compute.
  const stream::WindowSpec window{50, 10};
  ec_reference::Oracle oracle(window);
  Engine naive(window);
  EngineOptions incr_opts;
  incr_opts.incremental = true;
  Engine incr(window, incr_opts);

  const Schema sn = Register(&naive, &oracle);
  const Schema si = Register(&incr);
  ASSERT_EQ(sn.alarm, si.alarm);

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> vessel_dist(1, 12);
  std::uniform_int_distribution<int> gear_dist(0, 8);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  std::uniform_real_distribution<double> lat_dist(-1.0, 1.0);

  // A delay into (wstart, wstart + quarter] dirties at least 75% of a full
  // window.
  const Timestamp quarter = window.range / 4;
  constexpr int kSlides = 500;
  for (int slide = 1; slide <= kSlides; ++slide) {
    const Timestamp q = static_cast<Timestamp>(slide) * window.slide;
    std::uniform_int_distribution<int> burst(0, 6);
    const int n = burst(rng);
    for (int i = 0; i < n; ++i) {
      Assertion a;
      a.subject = Term{0, vessel_dist(rng)};
      const int when = kind_dist(rng);
      if (when < 85) {
        a.t = q - window.slide + 1 +
              std::uniform_int_distribution<Timestamp>(0, window.slide - 1)(rng);
      } else {
        const Timestamp wstart = q > window.range ? q - window.range : 0;
        a.t = wstart + 1 +
              std::uniform_int_distribution<Timestamp>(0, quarter - 1)(rng);
      }
      const int what = kind_dist(rng);
      if (what < 15) {
        a.kind = Assertion::kCoord;
        a.pos = geo::GeoPoint{0.0, lat_dist(rng)};
      } else if (what < 40) {
        a.event = sn.move;
        a.object = Term{2, gear_dist(rng)};
      } else if (what < 55) {
        a.event = sn.stop;
        a.object = Term::None();
      } else {
        a.event = sn.ping;
        a.object = Term::None();
      }
      for (Engine* eng : {&naive, &incr}) {
        if (a.kind == Assertion::kCoord) {
          eng->AssertCoord(a.subject, a.t, a.pos);
        } else {
          eng->AssertEvent(a.event, a.subject, a.t, a.object);
        }
      }
    }
    const RecognitionResult rn = naive.Recognize(q);
    ASSERT_TRUE(oracle.Check(naive, rn));
    const RecognitionResult ri = incr.Recognize(q);
    ASSERT_TRUE(rn == ri) << "incremental diverged at q=" << q
                          << "\nnaive:\n" << Dump(rn) << "incremental:\n"
                          << Dump(ri);
  }
  // Fresh-only slides reuse cached evidence between the delayed ones.
  EXPECT_GT(incr.cache_stats().hits, 0u);
}

TEST(EngineIncrementalDifferentialTest, CacheEvictionFollowsKeyChurn) {
  const stream::WindowSpec window{50, 10};
  EngineOptions opts;
  opts.incremental = true;
  Engine eng(window, opts);
  const Schema s = Register(&eng);

  const Term v1{0, 1};
  eng.AssertEvent(s.move, v1, 5, Term{2, 0});
  eng.AssertEvent(s.stop, v1, 8);
  eng.Recognize(10);
  // Entries exist for the definitions v1 touched.
  EXPECT_GT(eng.cache_entry_count(), 0u);
  const size_t evictions_before = eng.cache_stats().evictions;

  // Slide until (0, 10] leaves the window entirely: v1 has no in-window
  // input and no carried value, so all of its entries (moving, alert) must
  // be evicted. What remains is key-churn-independent: the constant-domain
  // crowded(area) and lagged(area) entries and the derived-event cache
  // marker.
  for (Timestamp q = 20; q <= 80; q += 10) eng.Recognize(q);
  EXPECT_EQ(eng.cache_entry_count(), 3u);
  EXPECT_EQ(eng.KeysOf(s.moving).size(), 0u);
  EXPECT_GE(eng.cache_stats().evictions, evictions_before + 2);
}

TEST(EngineIncrementalDifferentialTest, UndeclaredDepsAlwaysRecompute) {
  // A definition without deps must behave exactly as under the naive engine
  // (full recompute each slide) and never count cache hits.
  const stream::WindowSpec window{50, 10};
  EngineOptions opts;
  opts.incremental = true;
  Engine eng(window, opts);
  const EventId on = eng.DeclareEvent("on");
  const FluentId f = eng.DeclareFluent("f");
  SimpleFluentSpec spec;
  spec.fluent = f;
  spec.output = true;
  spec.domain = [on](const EvalContext& ctx) {
    std::vector<Term> keys;
    for (const auto& e : ctx.Events(on)) keys.push_back(e.subject);
    return keys;
  };
  spec.rules = [on](const EvalContext& ctx, Term key,
                    PointVec* initiated,
                    PointVec* /*terminated*/) {
    for (const auto& e : ctx.Events(on)) {
      if (e.subject == key) initiated->push_back({kTrue, e.t});
    }
  };
  eng.AddSimpleFluent(std::move(spec));

  eng.AssertEvent(on, Term{0, 1}, 5);
  eng.Recognize(10);
  eng.Recognize(20);  // no new input; still a miss (no declared deps)
  EXPECT_EQ(eng.cache_stats().hits, 0u);
  EXPECT_GE(eng.cache_stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// EngineMode: the auto mode resolves naive-vs-incremental deterministically
// from the window shape (so snapshot save/restore pairs agree); the explicit
// modes resolve to themselves whatever the window.
// ---------------------------------------------------------------------------

TEST(EngineModeResolutionTest, ResolvesFromWindowShape) {
  const sim::World world = sim::BuildWorld(3);
  auto resolved_incremental = [&world](stream::WindowSpec window,
                                       surveillance::EngineMode mode) {
    surveillance::RecognizerConfig cfg;
    cfg.window = window;
    cfg.engine = mode;
    const surveillance::CERecognizer rec(&world.knowledge, cfg);
    return rec.engine().options().incremental;
  };

  using surveillance::EngineMode;
  // Naive is the default.
  EXPECT_EQ(surveillance::RecognizerConfig{}.engine, EngineMode::kNaive);
  EXPECT_FALSE(resolved_incremental({6 * kHour, kHour}, EngineMode::kNaive));
  EXPECT_TRUE(resolved_incremental({kHour, kHour}, EngineMode::kIncremental));
  // Auto: at omega == beta every slide dirties the whole window, so suffix
  // reuse cannot pay — naive. At omega >= 3 beta it can — incremental.
  EXPECT_FALSE(resolved_incremental({kHour, kHour}, EngineMode::kAuto));
  EXPECT_FALSE(resolved_incremental({2 * kHour, kHour}, EngineMode::kAuto));
  EXPECT_TRUE(resolved_incremental({6 * kHour, kHour}, EngineMode::kAuto));
}

}  // namespace
}  // namespace maritime::rtec
