// Input-store ordering of the RTEC engine: AssertEvent/AssertCoord keep a
// sorted prefix per store, Recognize sorts only the input asserted since the
// last slide and merges it in, and the subject index (Subjects/EventsOf by
// subject) is maintained at merge and purge. These tests hold the stores to
// a reference that re-sorts everything from scratch, across purges and
// snapshot cuts taken with and without pending input.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "geo/geo_point.h"
#include "rtec/engine.h"
#include "snapshot/codec.h"

namespace maritime::rtec {
namespace {

bool RefOrder(const EventInstance& a, const EventInstance& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.subject != b.subject) return a.subject < b.subject;
  return a.object < b.object;
}

struct Fix {
  Timestamp t;
  geo::GeoPoint pos;
};

/// Everything ever asserted, in arrival order; answers what the engine's
/// stores must hold after a Recognize whose window starts at `wstart`.
struct Reference {
  std::vector<std::vector<EventInstance>> events;  ///< Per event id.
  std::vector<std::pair<Term, Fix>> fixes;

  std::vector<EventInstance> InWindow(EventId e, Timestamp wstart) const {
    std::vector<EventInstance> out;
    for (const EventInstance& i : events[static_cast<size_t>(e)]) {
      if (i.t > wstart) out.push_back(i);
    }
    std::sort(out.begin(), out.end(), RefOrder);
    return out;
  }

  /// The latest fix at or before `t`; of equal-time fixes, the one asserted
  /// last.
  std::optional<geo::GeoPoint> CoordAt(Term vessel, Timestamp t) const {
    std::optional<Fix> best;
    for (const auto& [v, fix] : fixes) {
      if (v != vessel || fix.t > t) continue;
      if (!best.has_value() || fix.t >= best->t) best = fix;
    }
    if (!best.has_value()) return std::nullopt;
    return best->pos;
  }
};

struct Schema {
  EventId on = -1;
  EventId off = -1;
  EventId ping = -1;
  FluentId active = -1;
};

/// A marker-driven fluent whose domain and rules read the subject index,
/// checking inside the rule that EvalContext's view equals filtering the
/// time-ordered store.
Schema Declare(Engine* eng) {
  Schema s;
  s.on = eng->DeclareEvent("on");
  s.off = eng->DeclareEvent("off");
  s.ping = eng->DeclareEvent("ping");
  s.active = eng->DeclareFluent("active");
  SimpleFluentSpec spec;
  spec.fluent = s.active;
  spec.output = true;
  spec.deps = DependencySpec{{s.on, s.off}, {}, false, false, {}};
  const Schema sc = s;
  spec.domain = [sc](const EvalContext& ctx) {
    std::vector<Term> keys;
    std::set_union(ctx.Subjects(sc.on).begin(), ctx.Subjects(sc.on).end(),
                   ctx.Subjects(sc.off).begin(), ctx.Subjects(sc.off).end(),
                   std::back_inserter(keys));
    return keys;
  };
  spec.rules = [sc](const EvalContext& ctx, Term key, PointVec* initiated,
                    PointVec* terminated) {
    for (const auto& [marker, out] :
         {std::pair{sc.on, initiated}, std::pair{sc.off, terminated}}) {
      std::vector<EventInstance> filtered;
      for (const EventInstance& e : ctx.Events(marker)) {
        if (e.subject == key) filtered.push_back(e);
      }
      const auto own = ctx.EventsOf(marker, key);
      EXPECT_TRUE(std::equal(own.begin(), own.end(), filtered.begin(),
                             filtered.end()));
      for (const EventInstance& e : ctx.NeedsEvalSuffix(own)) {
        out->push_back({kTrue, e.t});
      }
    }
  };
  eng->AddSimpleFluent(std::move(spec));
  return s;
}

std::unique_ptr<Engine> MakeEngine(stream::WindowSpec window,
                                   bool incremental,
                                   Schema* schema = nullptr) {
  EngineOptions opts;
  opts.incremental = incremental;
  auto eng = std::make_unique<Engine>(window, opts);
  const Schema s = Declare(eng.get());
  if (schema != nullptr) *schema = s;
  return eng;
}

/// Snapshot round trip into a freshly declared engine.
std::unique_ptr<Engine> Reload(const Engine& eng, stream::WindowSpec window,
                               bool incremental) {
  snapshot::Writer w;
  eng.SaveTo(w);
  auto restored = MakeEngine(window, incremental);
  snapshot::Reader r(w.bytes());
  EXPECT_TRUE(restored->RestoreFrom(r).ok());
  return restored;
}

/// The three store checks after a Recognize with window start `wstart`.
void CheckStores(const Engine& eng, const Schema& s, const Reference& ref,
                 const std::vector<Term>& vessels, Timestamp wstart,
                 Timestamp q) {
  for (const EventId e : {s.on, s.off, s.ping}) {
    const std::vector<EventInstance>& got = eng.EventsOf(e);
    ASSERT_EQ(got, ref.InWindow(e, wstart)) << "event " << e << " q=" << q;
    std::vector<Term> subjects;
    for (const EventInstance& i : got) subjects.push_back(i.subject);
    std::sort(subjects.begin(), subjects.end());
    subjects.erase(std::unique(subjects.begin(), subjects.end()),
                   subjects.end());
    ASSERT_EQ(eng.SubjectsOf(e), subjects) << "event " << e << " q=" << q;
    for (const Term& v : vessels) {
      std::vector<EventInstance> filtered;
      for (const EventInstance& i : got) {
        if (i.subject == v) filtered.push_back(i);
      }
      const auto own = eng.EventsOf(e, v);
      ASSERT_EQ(std::vector<EventInstance>(own.begin(), own.end()), filtered)
          << "event " << e << " subject " << v << " q=" << q;
    }
  }
  for (const Term& v : vessels) {
    for (Timestamp t = wstart; t <= q + 10; ++t) {
      const auto want = ref.CoordAt(v, t);
      const auto got = eng.CoordOf(v, t);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "vessel " << v << " t=" << t << " q=" << q;
      if (want.has_value()) {
        ASSERT_EQ(got->lon, want->lon) << "vessel " << v << " t=" << t;
        ASSERT_EQ(got->lat, want->lat) << "vessel " << v << " t=" << t;
      }
    }
  }
}

TEST(EngineInputOrderTest, RandomInterleavingMatchesFullSort) {
  const stream::WindowSpec window{60, 10};
  std::vector<Term> vessels;
  for (int i = 1; i <= 6; ++i) vessels.push_back(Term{0, i});
  for (const bool incremental : {false, true}) {
    Schema s;
    auto eng = MakeEngine(window, incremental, &s);
    Reference ref;
    ref.events.resize(3);
    std::mt19937 rng(incremental ? 4242 : 2424);
    std::uniform_int_distribution<int> pick(0, 99);
    std::uniform_int_distribution<size_t> vessel_of(0, vessels.size() - 1);
    std::uniform_real_distribution<double> coord(-1.0, 1.0);
    Timestamp clock = 0;  // Latest in-order time handed out so far.
    constexpr int kSlides = 150;
    for (int slide = 1; slide <= kSlides; ++slide) {
      const Timestamp q = static_cast<Timestamp>(slide) * window.slide;
      const Timestamp wstart = q - window.range;
      const int n = std::uniform_int_distribution<int>(0, 12)(rng);
      for (int k = 0; k < n; ++k) {
        const Term v = vessels[vessel_of(rng)];
        const int kind = pick(rng);
        Timestamp t;
        if (kind < 50) {
          // In order: never earlier than anything handed out before.
          clock = std::max(clock, q - window.slide) +
                  std::uniform_int_distribution<Timestamp>(0, 2)(rng);
          t = clock;
        } else if (kind < 70) {
          // Out of order: anywhere in the window, or even already purged.
          t = std::uniform_int_distribution<Timestamp>(wstart - 5, q)(rng);
        } else if (kind < 80) {
          // Ahead of the query time.
          t = q + std::uniform_int_distribution<Timestamp>(1, 15)(rng);
        } else {
          // Equal to a time already in use.
          t = std::max<Timestamp>(1, clock);
        }
        const int what = pick(rng);
        if (what < 35) {
          // Coord fixes, sometimes two at one time with different positions.
          const int copies = what < 10 ? 2 : 1;
          for (int c = 0; c < copies; ++c) {
            const Fix fix{t, geo::GeoPoint{coord(rng), coord(rng)}};
            eng->AssertCoord(v, fix.t, fix.pos);
            ref.fixes.emplace_back(v, fix);
          }
        } else {
          const EventId e = what < 55 ? s.on : what < 75 ? s.off : s.ping;
          const Term object = e == s.ping ? Term{2, pick(rng) % 3}
                                          : Term::None();
          // Duplicates: the same occurrence asserted twice.
          const int copies = what % 9 == 0 ? 2 : 1;
          for (int c = 0; c < copies; ++c) {
            eng->AssertEvent(e, v, t, object);
            ref.events[static_cast<size_t>(e)].push_back(
                EventInstance{v, object, t});
          }
        }
      }
      // Snapshot cuts: with input pending (unsorted tails, dirty flags set)
      // and right after a slide.
      if (slide % 37 == 0) eng = Reload(*eng, window, incremental);
      eng->Recognize(q);
      CheckStores(*eng, s, ref, vessels, wstart, q);
      if (HasFatalFailure()) return;
      if (slide % 53 == 0) eng = Reload(*eng, window, incremental);
    }
  }
}

TEST(EngineInputOrderTest, PendingSnapshotFallsBackToFullSort) {
  // A snapshot cut with every store pending and in reverse order (so no
  // prefix of the stored order is sorted beyond its first element) must
  // resume exactly as a full sort of the stored input.
  const stream::WindowSpec window{100, 10};
  Schema s;
  auto eng = MakeEngine(window, /*incremental=*/true, &s);
  Reference ref;
  ref.events.resize(3);
  const std::vector<Term> vessels{Term{0, 1}, Term{0, 2}, Term{0, 3}};
  for (Timestamp t = 95; t >= 5; t -= 5) {
    const Term v = vessels[static_cast<size_t>(t / 5) % vessels.size()];
    const EventId e = (t / 5) % 2 == 0 ? s.on : s.off;
    eng->AssertEvent(e, v, t);
    ref.events[static_cast<size_t>(e)].push_back(EventInstance{v, {}, t});
    const geo::GeoPoint a{static_cast<double>(t), 1.0};
    const geo::GeoPoint b{static_cast<double>(t), 2.0};
    eng->AssertCoord(v, t, a);
    eng->AssertCoord(v, t, b);  // Same time: b was asserted last, b wins.
    ref.fixes.push_back({v, Fix{t, a}});
    ref.fixes.push_back({v, Fix{t, b}});
  }
  auto restored = Reload(*eng, window, true);
  restored->Recognize(100);
  CheckStores(*restored, s, ref, vessels, 0, 100);
  eng->Recognize(100);
  EXPECT_EQ(restored->EventsOf(s.on), eng->EventsOf(s.on));
  EXPECT_EQ(restored->EventsOf(s.off), eng->EventsOf(s.off));
}

TEST(EngineInputOrderTest, EqualTimeFixesResolveInArrivalOrder) {
  // Two fixes of one vessel at one time but different positions: CoordAt
  // returns the one asserted last, whether the pair arrived in order, behind
  // later fixes, or across a snapshot cut taken before or after sorting.
  const stream::WindowSpec window{100, 10};
  const Term v{0, 7};
  const geo::GeoPoint first{1.0, 1.0};
  const geo::GeoPoint second{2.0, 2.0};
  const geo::GeoPoint later{3.0, 3.0};
  const auto feed = [&](Engine* eng) {
    eng->AssertCoord(v, 50, later);
    eng->AssertCoord(v, 20, first);   // Out of order...
    eng->AssertCoord(v, 20, second);  // ...and tied with the fix before.
    eng->AssertCoord(v, 30, first);
    eng->AssertCoord(v, 30, second);  // In order, tied.
  };
  for (const bool incremental : {false, true}) {
    const auto check = [&](const Engine& eng) {
      EXPECT_EQ(eng.CoordOf(v, 25)->lat, second.lat);
      EXPECT_EQ(eng.CoordOf(v, 30)->lat, second.lat);
      EXPECT_EQ(eng.CoordOf(v, 49)->lat, second.lat);
      EXPECT_EQ(eng.CoordOf(v, 50)->lat, later.lat);
      EXPECT_FALSE(eng.CoordOf(v, 19).has_value());
    };
    auto eng = MakeEngine(window, incremental);
    feed(eng.get());
    auto cut_pending = Reload(*eng, window, incremental);
    eng->Recognize(60);
    check(*eng);
    cut_pending->Recognize(60);
    check(*cut_pending);
    auto cut_sorted = Reload(*eng, window, incremental);
    check(*cut_sorted);
    // The purge at window start 25 keeps one boundary fix: still the one
    // of the tied pair asserted last.
    eng->Recognize(125);
    EXPECT_EQ(eng->CoordOf(v, 25)->lat, second.lat);
    cut_sorted->Recognize(125);
    EXPECT_EQ(cut_sorted->CoordOf(v, 25)->lat, second.lat);
  }
}

}  // namespace
}  // namespace maritime::rtec
