// Deeper Event Calculus engine scenarios: multi-valued fluents, definition
// chaining (CE hierarchies), and out-of-order input — the semantics the
// maritime CE layer relies on, exercised directly.

#include <gtest/gtest.h>

#include "rtec/engine.h"

namespace maritime::rtec {
namespace {

const Term kV1{0, 1};

// A multi-valued fluent: phase(V) in {1=approach, 2=docked, 3=departing},
// driven by three marker events. Rule (2) semantics: initiating one value
// terminates the others.
class MultiValueFixture : public ::testing::Test {
 protected:
  MultiValueFixture() : engine_(stream::WindowSpec{1000, 1000}) {
    approach_ = engine_.DeclareEvent("approach");
    dock_ = engine_.DeclareEvent("dock");
    depart_ = engine_.DeclareEvent("depart");
    phase_ = engine_.DeclareFluent("phase");
    SimpleFluentSpec spec;
    spec.fluent = phase_;
    spec.output = true;
    const EventId a = approach_, d = dock_, p = depart_;
    spec.domain = [a, d, p](const EvalContext& ctx) {
      std::vector<Term> keys;
      for (const EventId e : {a, d, p}) {
        for (const auto& i : ctx.Events(e)) keys.push_back(i.subject);
      }
      return keys;
    };
    spec.rules = [a, d, p](const EvalContext& ctx, Term key,
                           PointVec* initiated,
                           PointVec* terminated) {
      for (const auto& e : ctx.Events(a)) {
        if (e.subject == key) initiated->push_back({1, e.t});
      }
      for (const auto& e : ctx.Events(d)) {
        if (e.subject == key) initiated->push_back({2, e.t});
      }
      for (const auto& e : ctx.Events(p)) {
        if (e.subject == key) initiated->push_back({3, e.t});
      }
      (void)terminated;
    };
    engine_.AddSimpleFluent(std::move(spec));
  }

  Engine engine_;
  EventId approach_ = -1, dock_ = -1, depart_ = -1;
  FluentId phase_ = -1;
};

TEST_F(MultiValueFixture, ValuesChainWithoutExplicitTerminations) {
  engine_.AssertEvent(approach_, kV1, 100);
  engine_.AssertEvent(dock_, kV1, 300);
  engine_.AssertEvent(depart_, kV1, 700);
  engine_.Recognize(1000);
  const FluentTimeline& tl = engine_.TimelineOf(phase_, kV1);
  EXPECT_EQ(tl.IntervalsFor(1), (IntervalList{{100, 300}}));
  EXPECT_EQ(tl.IntervalsFor(2), (IntervalList{{300, 700}}));
  EXPECT_EQ(tl.IntervalsFor(3), (IntervalList{{700, 1000}}));
  EXPECT_EQ(tl.ValueAt(250), std::optional<Value>(1));
  EXPECT_EQ(tl.ValueAt(300), std::optional<Value>(1)) << "(Ts,Tf] boundary";
  EXPECT_EQ(tl.ValueAt(301), std::optional<Value>(2));
}

TEST_F(MultiValueFixture, MultiValueInertiaAcrossSlides) {
  // Tumbling 1000s windows: value 2 persists by inertia after its
  // initiating event leaves the working memory.
  engine_.AssertEvent(dock_, kV1, 600);
  engine_.Recognize(1000);
  const auto r2 = engine_.Recognize(2000);
  ASSERT_EQ(r2.fluents.size(), 1u);
  EXPECT_EQ(r2.fluents[0].value, 2);
  EXPECT_EQ(r2.fluents[0].intervals, (IntervalList{{1000, 2000}}));
  // A later approach supersedes it.
  engine_.AssertEvent(approach_, kV1, 2500);
  engine_.Recognize(3000);
  const FluentTimeline& tl = engine_.TimelineOf(phase_, kV1);
  EXPECT_EQ(tl.IntervalsFor(2), (IntervalList{{2000, 2500}}));
  EXPECT_EQ(tl.IntervalsFor(1), (IntervalList{{2500, 3000}}));
}

// Definition chaining: a derived event feeding a simple fluent — the two
// definition kinds composed in dependency order, as a CE hierarchy does.
TEST(EngineChainingTest, DerivedEventDrivesFluent) {
  Engine engine(stream::WindowSpec{1000, 1000});
  const EventId ping = engine.DeclareEvent("ping");
  const EventId echo = engine.DeclareEvent("echo");        // derived
  const FluentId lively = engine.DeclareFluent("lively");  // simple

  DerivedEventSpec ev;
  ev.event = echo;
  ev.compute = [ping](const EvalContext& ctx,
                      std::vector<EventInstance>* out) {
    for (const auto& i : ctx.Events(ping)) {
      out->push_back(EventInstance{i.subject, Term::None(), i.t + 10});
    }
  };
  engine.AddDerivedEvent(std::move(ev));

  SimpleFluentSpec fl;
  fl.fluent = lively;
  fl.domain = [echo](const EvalContext& ctx) {
    std::vector<Term> keys;
    for (const auto& i : ctx.Events(echo)) keys.push_back(i.subject);
    return keys;
  };
  fl.rules = [echo](const EvalContext& ctx, Term key,
                    PointVec* initiated,
                    PointVec* terminated) {
    for (const auto& i : ctx.Events(echo)) {
      if (i.subject == key) {
        initiated->push_back({kTrue, i.t});
        terminated->push_back({kTrue, i.t + 100});
      }
    }
  };
  engine.AddSimpleFluent(std::move(fl));

  engine.AssertEvent(ping, kV1, 200);
  engine.Recognize(1000);
  EXPECT_EQ(engine.TimelineOf(lively, kV1).IntervalsFor(kTrue),
            (IntervalList{{210, 310}}));
}

TEST(EngineOutOfOrderTest, AssertionOrderIsIrrelevantWithinWindow) {
  // Two engines, the same events in opposite arrival orders: identical
  // recognition (RTEC supports out-of-order streams).
  for (const bool reversed : {false, true}) {
    Engine engine(stream::WindowSpec{1000, 1000});
    const EventId on = engine.DeclareEvent("on");
    const EventId off = engine.DeclareEvent("off");
    const FluentId f = engine.DeclareFluent("f");
    SimpleFluentSpec spec;
    spec.fluent = f;
    spec.output = true;
    spec.domain = [on, off](const EvalContext& ctx) {
      std::vector<Term> keys;
      for (const auto& i : ctx.Events(on)) keys.push_back(i.subject);
      for (const auto& i : ctx.Events(off)) keys.push_back(i.subject);
      return keys;
    };
    spec.rules = [on, off](const EvalContext& ctx, Term key,
                           PointVec* initiated,
                           PointVec* terminated) {
      for (const auto& i : ctx.Events(on)) {
        if (i.subject == key) initiated->push_back({kTrue, i.t});
      }
      for (const auto& i : ctx.Events(off)) {
        if (i.subject == key) terminated->push_back({kTrue, i.t});
      }
    };
    engine.AddSimpleFluent(std::move(spec));

    if (reversed) {
      engine.AssertEvent(off, kV1, 700);
      engine.AssertEvent(on, kV1, 600);
      engine.AssertEvent(off, kV1, 300);
      engine.AssertEvent(on, kV1, 100);
    } else {
      engine.AssertEvent(on, kV1, 100);
      engine.AssertEvent(off, kV1, 300);
      engine.AssertEvent(on, kV1, 600);
      engine.AssertEvent(off, kV1, 700);
    }
    const auto r = engine.Recognize(1000);
    ASSERT_EQ(r.fluents.size(), 1u) << "reversed=" << reversed;
    EXPECT_EQ(r.fluents[0].intervals,
              (IntervalList{{100, 300}, {600, 700}}))
        << "reversed=" << reversed;
  }
}

TEST(EngineEventObjectTest, BinaryEventsKeepObjectTerm) {
  Engine engine(stream::WindowSpec{1000, 1000});
  const EventId near = engine.DeclareEvent("near");
  const EventId alarm = engine.DeclareEvent("alarm");
  DerivedEventSpec spec;
  spec.event = alarm;
  spec.output = true;
  spec.compute = [near](const EvalContext& ctx,
                        std::vector<EventInstance>* out) {
    for (const auto& i : ctx.Events(near)) out->push_back(i);
  };
  engine.AddDerivedEvent(std::move(spec));
  const Term area{1, 42};
  engine.AssertEvent(near, kV1, 500, area);
  const auto r = engine.Recognize(1000);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].instance.subject, kV1);
  EXPECT_EQ(r.events[0].instance.object, area);
}

}  // namespace
}  // namespace maritime::rtec
