#include <gtest/gtest.h>

#include "rtec/engine.h"

namespace maritime::rtec {
namespace {

const Term kV1{0, 1};
const Term kV2{0, 2};
const Term kA1{1, 10};

/// Test harness: one input marker-event pair driving a simple boolean fluent
/// `active(V)` (initiated by `on`, terminated by `off`), mirroring how the
/// maritime layer models durative input MEs.
class EngineFixture : public ::testing::Test {
 protected:
  void Init(stream::WindowSpec window) {
    engine_ = std::make_unique<Engine>(window);
    on_ = engine_->DeclareEvent("on");
    off_ = engine_->DeclareEvent("off");
    active_ = engine_->DeclareFluent("active");
    SimpleFluentSpec spec;
    spec.fluent = active_;
    spec.output = true;
    const EventId on = on_;
    const EventId off = off_;
    spec.domain = [on, off](const EvalContext& ctx) {
      std::vector<Term> keys;
      for (const auto& e : ctx.Events(on)) keys.push_back(e.subject);
      for (const auto& e : ctx.Events(off)) keys.push_back(e.subject);
      return keys;
    };
    spec.rules = [on, off](const EvalContext& ctx, Term key,
                           PointVec* initiated,
                           PointVec* terminated) {
      for (const auto& e : ctx.Events(on)) {
        if (e.subject == key) initiated->push_back({kTrue, e.t});
      }
      for (const auto& e : ctx.Events(off)) {
        if (e.subject == key) terminated->push_back({kTrue, e.t});
      }
    };
    engine_->AddSimpleFluent(std::move(spec));
  }

  std::unique_ptr<Engine> engine_;
  EventId on_ = -1;
  EventId off_ = -1;
  FluentId active_ = -1;
};

TEST_F(EngineFixture, BasicRecognition) {
  Init(stream::WindowSpec{100, 100});
  engine_->AssertEvent(on_, kV1, 10);
  engine_->AssertEvent(off_, kV1, 40);
  const RecognitionResult r = engine_->Recognize(100);
  ASSERT_EQ(r.fluents.size(), 1u);
  EXPECT_EQ(r.fluents[0].fluent, active_);
  EXPECT_EQ(r.fluents[0].key, kV1);
  ASSERT_EQ(r.fluents[0].intervals.size(), 1u);
  EXPECT_EQ(r.fluents[0].intervals[0], (Interval{10, 40}));
  EXPECT_EQ(r.input_events_in_window, 2u);
}

TEST_F(EngineFixture, PerSubjectSeparation) {
  Init(stream::WindowSpec{100, 100});
  engine_->AssertEvent(on_, kV1, 10);
  engine_->AssertEvent(on_, kV2, 20);
  engine_->AssertEvent(off_, kV1, 30);
  engine_->Recognize(100);
  EXPECT_EQ(engine_->TimelineOf(active_, kV1).IntervalsFor(kTrue),
            (IntervalList{{10, 30}}));
  EXPECT_EQ(engine_->TimelineOf(active_, kV2).IntervalsFor(kTrue),
            (IntervalList{{20, 100}}));
}

TEST_F(EngineFixture, EventsOutsideWindowDiscarded) {
  Init(stream::WindowSpec{60, 60});
  engine_->AssertEvent(on_, kV1, 10);  // will fall out of the (60,120] window
  const RecognitionResult r = engine_->Recognize(120);
  EXPECT_TRUE(r.fluents.empty());
  EXPECT_EQ(r.input_events_in_window, 0u);
  EXPECT_EQ(engine_->buffered_events(), 0u);
}

TEST_F(EngineFixture, InertiaCarriesAcrossSlides) {
  // ω == β (tumbling): the on-event leaves the working memory, yet the
  // fluent keeps holding by inertia via the boundary record.
  Init(stream::WindowSpec{60, 60});
  engine_->AssertEvent(on_, kV1, 30);
  const RecognitionResult r1 = engine_->Recognize(60);
  ASSERT_EQ(r1.fluents.size(), 1u);
  EXPECT_EQ(r1.fluents[0].intervals[0], (Interval{30, 60}));

  const RecognitionResult r2 = engine_->Recognize(120);
  ASSERT_EQ(r2.fluents.size(), 1u);
  EXPECT_EQ(r2.fluents[0].intervals[0], (Interval{60, 120}))
      << "carried interval spans the whole new window";

  // Termination in a later window closes the carried interval.
  engine_->AssertEvent(off_, kV1, 150);
  const RecognitionResult r3 = engine_->Recognize(180);
  ASSERT_EQ(r3.fluents.size(), 1u);
  EXPECT_EQ(r3.fluents[0].intervals[0], (Interval{120, 150}));

  // And after that, nothing holds.
  const RecognitionResult r4 = engine_->Recognize(240);
  EXPECT_TRUE(r4.fluents.empty());
}

TEST_F(EngineFixture, OverlappingWindowsAmalgamateDelayedEvents) {
  // ω = 120, β = 60. An event occurring at t=70 arrives only after the
  // recognition at Q=120; because the window range exceeds the slide, it is
  // still inside the window at Q=180 and its effects are incorporated
  // (paper Figure 5).
  Init(stream::WindowSpec{120, 60});
  engine_->AssertEvent(on_, kV1, 50);
  const RecognitionResult r1 = engine_->Recognize(120);
  ASSERT_EQ(r1.fluents.size(), 1u);
  EXPECT_EQ(r1.fluents[0].intervals[0], (Interval{50, 120}));

  engine_->AssertEvent(off_, kV1, 70);  // delayed arrival
  const RecognitionResult r2 = engine_->Recognize(180);
  ASSERT_EQ(r2.fluents.size(), 1u);
  EXPECT_EQ(r2.fluents[0].intervals[0], (Interval{60, 70}))
      << "the delayed termination revises the previously open interval";
}

TEST_F(EngineFixture, DelayedEventTooOldIsLost) {
  Init(stream::WindowSpec{60, 60});
  engine_->Recognize(120);
  engine_->AssertEvent(on_, kV1, 100);  // occurred in (60,120], arrives late
  const RecognitionResult r = engine_->Recognize(180);
  // t=100 <= 180-60=120, so it is discarded: information loss by design.
  EXPECT_TRUE(r.fluents.empty());
}

TEST_F(EngineFixture, CoordFluent) {
  Init(stream::WindowSpec{100, 100});
  engine_->AssertCoord(kV1, 10, geo::GeoPoint{24.0, 37.0});
  engine_->AssertCoord(kV1, 50, geo::GeoPoint{24.5, 37.5});
  engine_->Recognize(100);
  const auto at5 = engine_->CoordOf(kV1, 5);
  EXPECT_FALSE(at5.has_value());
  const auto at10 = engine_->CoordOf(kV1, 10);
  ASSERT_TRUE(at10.has_value());
  EXPECT_DOUBLE_EQ(at10->lon, 24.0);
  const auto at60 = engine_->CoordOf(kV1, 60);
  ASSERT_TRUE(at60.has_value());
  EXPECT_DOUBLE_EQ(at60->lon, 24.5);
  EXPECT_FALSE(engine_->CoordOf(kV2, 60).has_value());
}

TEST_F(EngineFixture, DerivedEventsComputedAndWindowed) {
  Init(stream::WindowSpec{100, 100});
  const EventId alarm = engine_->DeclareEvent("alarm");
  DerivedEventSpec spec;
  spec.event = alarm;
  spec.output = true;
  const EventId on = on_;
  spec.compute = [on](const EvalContext& ctx,
                      std::vector<EventInstance>* out) {
    for (const auto& e : ctx.Events(on)) {
      out->push_back(EventInstance{e.subject, kA1, e.t + 5});
      out->push_back(EventInstance{e.subject, kA1, e.t + 500});  // out of window
    }
  };
  engine_->AddDerivedEvent(std::move(spec));
  engine_->AssertEvent(on_, kV1, 10);
  const RecognitionResult r = engine_->Recognize(100);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_EQ(r.events[0].event, alarm);
  EXPECT_EQ(r.events[0].instance.t, 15);
  EXPECT_EQ(r.events[0].instance.object, kA1);
}

TEST_F(EngineFixture, StartEndEventSemantics) {
  Init(stream::WindowSpec{100, 100});
  engine_->AssertEvent(on_, kV1, 10);
  engine_->AssertEvent(off_, kV1, 40);
  engine_->Recognize(100);
  const FluentTimeline& tl = engine_->TimelineOf(active_, kV1);
  EXPECT_EQ(std::vector<Timestamp>(tl.StartsFor(kTrue).begin(),
                                   tl.StartsFor(kTrue).end()),
            std::vector<Timestamp>{10});
  EXPECT_EQ(std::vector<Timestamp>(tl.EndsFor(kTrue).begin(),
                                   tl.EndsFor(kTrue).end()),
            std::vector<Timestamp>{40});
}

TEST_F(EngineFixture, RecognizeIsRepeatable) {
  Init(stream::WindowSpec{100, 10});
  engine_->AssertEvent(on_, kV1, 95);
  const RecognitionResult a = engine_->Recognize(100);
  const RecognitionResult b = engine_->Recognize(110);
  ASSERT_EQ(a.fluents.size(), 1u);
  ASSERT_EQ(b.fluents.size(), 1u);
  EXPECT_EQ(a.fluents[0].intervals[0], (Interval{95, 100}));
  EXPECT_EQ(b.fluents[0].intervals[0], (Interval{95, 110}));
}

TEST_F(EngineFixture, MultipleEpisodesAcrossWindow) {
  Init(stream::WindowSpec{200, 200});
  engine_->AssertEvent(on_, kV1, 10);
  engine_->AssertEvent(off_, kV1, 20);
  engine_->AssertEvent(on_, kV1, 50);
  engine_->AssertEvent(off_, kV1, 70);
  const RecognitionResult r = engine_->Recognize(200);
  ASSERT_EQ(r.fluents.size(), 1u);
  EXPECT_EQ(r.fluents[0].intervals,
            (IntervalList{{10, 20}, {50, 70}}));
}

TEST(EngineNamesTest, DeclaredNamesAreRetrievable) {
  Engine e(stream::WindowSpec{60, 60});
  const EventId ev = e.DeclareEvent("gap");
  const FluentId fl = e.DeclareFluent("stopped");
  EXPECT_EQ(e.EventName(ev), "gap");
  EXPECT_EQ(e.FluentName(fl), "stopped");
}

}  // namespace
}  // namespace maritime::rtec
