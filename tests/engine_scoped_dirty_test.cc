#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "ec_oracle.h"
#include "geo/geo_point.h"
#include "rtec/engine.h"
#include "stream/sliding_window.h"

namespace maritime::rtec {
namespace {

// ---------------------------------------------------------------------------
// Dependency-scoped dirty propagation (DESIGN.md §14), differential-tested on
// a skewed fleet: one vessel keeps updating while hundreds sit idle. With a
// KeyProjector on the cross-key definition the incremental engine must
// regenerate only the output keys the active vessel projects to — and remain
// bit-identical to both the naive engine and the incremental engine running
// the same definitions without a projector (the fleet-wide regen floor). The
// naive engine is checked against the Event Calculus reference (ec_oracle.h).
// ---------------------------------------------------------------------------

// Output keys: latitude buckets 0..9 over lat in [0, 1).
constexpr int32_t kBucketKind = 1;

int32_t BucketOf(const geo::GeoPoint& p) {
  return std::clamp(static_cast<int32_t>(p.lat * 10.0), 0, 9);
}

struct Schema {
  EventId ping = -1;
  EventId stop = -1;
  FluentId occupied = -1;  // cross-key: some vessel pinged in the bucket
  EventId echo = -1;       // derived: ping in a bucket while occupied holds
};

/// Registers the definitions; without `with_projector` their cross-key
/// dependencies fall back to the fleet-wide regen floor. With an `oracle`,
/// every definition is captured for the Event Calculus reference.
Schema Register(Engine* eng, bool with_projector = true,
                ec_reference::Oracle* oracle = nullptr) {
  Schema s;
  s.ping = eng->DeclareEvent("ping");
  s.stop = eng->DeclareEvent("stop");
  s.occupied = eng->DeclareFluent("occupied");
  s.echo = eng->DeclareEvent("echo");

  // Vessel→bucket projector: the buckets a dirty vessel's coord fixes in
  // force at some time >= `from` fall into. Conservative both ways — the
  // boundary fix covers the bucket the vessel is leaving, later fixes the
  // ones it enters. Bucket-keyed input marks project to themselves.
  DependencySpec::KeyProjector project =
      [](const EvalContext& ctx, Term in_key, Timestamp from,
         std::vector<Term>* out) {
        if (in_key.kind == kBucketKind) {
          out->push_back(in_key);
          return true;
        }
        if (in_key.kind != 0) return false;
        ctx.ForEachCoordCovering(
            in_key, from, [&](Timestamp, const geo::GeoPoint& pos) {
              out->push_back(Term{kBucketKind, BucketOf(pos)});
            });
        return true;
      };
  if (!with_projector) project = nullptr;

  // occupied(bucket): initiated at any vessel's ping from inside the bucket,
  // terminated at any vessel's stop from inside it. Cross-key with a
  // projector; constant domain (all ten buckets).
  {
    SimpleFluentSpec spec;
    spec.fluent = s.occupied;
    spec.output = true;
    spec.deps = DependencySpec{{s.ping, s.stop}, {}, true, true, project};
    const Schema sc = s;
    spec.domain = [](const EvalContext&) {
      std::vector<Term> keys;
      for (int32_t b = 0; b < 10; ++b) keys.push_back(Term{kBucketKind, b});
      return keys;
    };
    spec.rules = [sc](const EvalContext& ctx, Term key,
                      PointVec* initiated,
                      PointVec* terminated) {
      for (const auto& e : ctx.Events(sc.ping)) {
        if (!ctx.NeedsEval(e.t)) continue;
        const auto pos = ctx.CoordAt(e.subject, e.t);
        if (pos.has_value() && BucketOf(*pos) == key.id) {
          initiated->push_back({kTrue, e.t});
        }
      }
      for (const auto& e : ctx.Events(sc.stop)) {
        if (!ctx.NeedsEval(e.t)) continue;
        const auto pos = ctx.CoordAt(e.subject, e.t);
        if (pos.has_value() && BucketOf(*pos) == key.id) {
          terminated->push_back({kTrue, e.t});
        }
      }
    };
    if (oracle != nullptr) spec = oracle->Capture(std::move(spec));
    eng->AddSimpleFluent(std::move(spec));
  }

  // echo(bucket): derived at pings landing in a bucket while occupied(bucket)
  // already holds at the right limit. The occupied dependency is bucket-keyed,
  // exercising the projector's identity branch.
  {
    DerivedEventSpec spec;
    spec.event = s.echo;
    spec.output = true;
    spec.deps = DependencySpec{{s.ping}, {s.occupied}, true, true, project};
    const Schema sc = s;
    spec.compute = [sc](const EvalContext& ctx,
                        std::vector<EventInstance>* out) {
      for (const auto& e : ctx.Events(sc.ping)) {
        if (!ctx.NeedsEval(e.t)) continue;
        const auto pos = ctx.CoordAt(e.subject, e.t);
        if (!pos.has_value()) continue;
        const Term bucket{kBucketKind, BucketOf(*pos)};
        if (ctx.HoldsRightOf(sc.occupied, bucket, kTrue, e.t)) {
          out->push_back({bucket, Term::None(), e.t});
        }
      }
    };
    if (oracle != nullptr) spec = oracle->Capture(std::move(spec));
    eng->AddDerivedEvent(std::move(spec));
  }
  return s;
}

std::string Dump(const RecognitionResult& r) {
  std::ostringstream os;
  for (const auto& f : r.fluents) {
    os << "  fluent " << f.fluent << " key " << f.key << " = " << f.value
       << " over";
    for (const auto& iv : f.intervals) {
      os << " (" << iv.since << "," << iv.till << "]";
    }
    os << "\n";
  }
  for (const auto& e : r.events) {
    os << "  event " << e.event << " key " << e.instance.subject << " @ "
       << e.instance.t << "\n";
  }
  return os.str();
}

uint64_t TotalRegenSpan(const Engine& eng) {
  uint64_t sum = 0;
  for (const DefRegenStats& d : eng.def_regen_stats()) sum += d.regen_span_sum;
  return sum;
}

TEST(ScopedDirtyDifferentialTest, SkewedFleetBitIdenticalAndNarrowed) {
  const stream::WindowSpec window{60, 10};
  ec_reference::Oracle oracle(window);
  Engine naive(window);
  EngineOptions incr_opts;
  incr_opts.incremental = true;
  Engine scoped(window, incr_opts);
  Engine floor(window, incr_opts);

  const Schema sn = Register(&naive, /*with_projector=*/true, &oracle);
  const Schema ss = Register(&scoped);
  // The fleet-wide regen floor baseline: same rules, no projector.
  const Schema sf = Register(&floor, /*with_projector=*/false);
  ASSERT_EQ(sn.echo, ss.echo);
  ASSERT_EQ(sn.echo, sf.echo);

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  Engine* const engines[] = {&naive, &scoped, &floor};

  // Idle fleet: 300 vessels, each with one coord fix and one ping at the
  // start, spread over every bucket — then silence forever.
  constexpr int kIdle = 300;
  for (int i = 0; i < kIdle; ++i) {
    const Term vessel{0, 100 + i};
    const geo::GeoPoint pos{0.0, (i % 10) * 0.1 + 0.05};
    const Timestamp t = 1 + i % static_cast<int>(window.slide - 1);
    for (Engine* eng : engines) {
      eng->AssertCoord(vessel, t, pos);
      eng->AssertEvent(sn.ping, vessel, t);
    }
  }

  // Active vessel: lives in bucket 3, keeps pinging/stopping every slide with
  // the adversarial timing mix (fresh / delayed / future-dated).
  const Term active{0, 1};
  constexpr int kSlides = 1200;
  for (int slide = 1; slide <= kSlides; ++slide) {
    const Timestamp q = static_cast<Timestamp>(slide) * window.slide;
    const int n = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int i = 0; i < n; ++i) {
      Timestamp t;
      const int when = kind_dist(rng);
      if (when < 80) {
        t = q - window.slide + 1 +
            std::uniform_int_distribution<Timestamp>(0, window.slide - 1)(rng);
      } else if (when < 95) {
        const Timestamp wstart = q > window.range ? q - window.range : 0;
        t = wstart + 1 +
            std::uniform_int_distribution<Timestamp>(
                0, std::max<Timestamp>(0, q - wstart - 1))(rng);
      } else {
        t = q + 1 +
            std::uniform_int_distribution<Timestamp>(0, window.slide)(rng);
      }
      const int what = kind_dist(rng);
      for (Engine* eng : engines) {
        if (what < 25) {
          eng->AssertCoord(active, t,
                           geo::GeoPoint{0.0, 0.3 + (what % 10) * 0.009});
        } else if (what < 85) {
          eng->AssertEvent(sn.ping, active, t);
        } else {
          eng->AssertEvent(sn.stop, active, t);
        }
      }
    }
    const RecognitionResult rn = naive.Recognize(q);
    ASSERT_TRUE(oracle.Check(naive, rn));
    const RecognitionResult rs = scoped.Recognize(q);
    const RecognitionResult rf = floor.Recognize(q);
    ASSERT_TRUE(rn == rs) << "scoped diverged at q=" << q << "\nnaive:\n"
                          << Dump(rn) << "scoped:\n" << Dump(rs);
    ASSERT_TRUE(rn == rf) << "unscoped diverged at q=" << q << "\nnaive:\n"
                          << Dump(rn) << "unscoped:\n" << Dump(rf);
  }

  // The point of the PR: with one active vessel confined to one bucket, the
  // scoped engine narrows (most) cross-key regen spans below the fleet floor
  // and regenerates far less of the window than the floor baseline, which in
  // turn reports the floor fallback on every dirty cross-key evaluation.
  EXPECT_GT(scoped.cache_stats().spans_narrowed, 0u);
  EXPECT_EQ(scoped.cache_stats().fleet_floor_hits, 0u);
  EXPECT_EQ(floor.cache_stats().spans_narrowed, 0u);
  EXPECT_GT(floor.cache_stats().fleet_floor_hits, 0u);
  EXPECT_LT(TotalRegenSpan(scoped), TotalRegenSpan(floor));
  EXPECT_GT(scoped.cache_stats().hits, floor.cache_stats().hits);
  // The naive engine records neither.
  EXPECT_EQ(naive.cache_stats().spans_narrowed, 0u);
  EXPECT_EQ(naive.cache_stats().fleet_floor_hits, 0u);
}

}  // namespace
}  // namespace maritime::rtec
