#include "maritime/ce_definitions.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/arena.h"

namespace maritime::surveillance {
namespace {

/// suspicious(Area) needs at least this many vessels stopped close to the
/// area (paper rule-set (3): "at least four vessels", set by domain
/// experts).
constexpr int kSuspiciousMinVessels = 4;

stream::Mmsi MmsiOf(rtec::Term vessel) {
  return static_cast<stream::Mmsi>(vessel.id);
}

/// Shared environment captured by every rule closure.
struct CeEnv {
  MaritimeSchema schema;
  const KnowledgeBase* kb;
  const SpatialFactTable* facts;
  CeOptions options;

  /// The close(Lon, Lat, Area) predicate at time `t`: on-demand Haversine
  /// reasoning against the knowledge base, or a precomputed-fact lookup in
  /// the Figure 11(b) setting.
  bool IsClose(const rtec::EvalContext& ctx, rtec::Term vessel,
               int32_t area_id, Timestamp t) const {
    if (options.use_spatial_facts) {
      return facts->IsCloseAt(MmsiOf(vessel), area_id, t);
    }
    const auto coord = ctx.CoordAt(vessel, t);
    if (!coord.has_value()) return false;
    return kb->Close(*coord, area_id);
  }

  /// True iff the vessel is close to no port at `t` ("in open water").
  /// In the spatial-facts setting this is derivable from the fact group
  /// (absence of any port fact), so both modes agree.
  bool AwayFromPorts(const rtec::EvalContext& ctx, rtec::Term vessel,
                     Timestamp t) const {
    if (options.use_spatial_facts) {
      for (const int32_t id : facts->AreasCloseAt(MmsiOf(vessel), t)) {
        const AreaInfo* area = kb->FindArea(id);
        if (area != nullptr && area->kind == AreaKind::kPort) return false;
      }
      return true;
    }
    const auto coord = ctx.CoordAt(vessel, t);
    if (!coord.has_value()) return false;  // unknown position: stay silent
    return !kb->AnyAreaCloseTo(*coord, AreaKind::kPort);
  }

  /// Areas of `kind` close to the vessel at `t`.
  std::vector<int32_t> AreasClose(const rtec::EvalContext& ctx,
                                  rtec::Term vessel, Timestamp t,
                                  AreaKind kind) const {
    std::vector<int32_t> out;
    if (options.use_spatial_facts) {
      for (const int32_t id :
           facts->AreasCloseAt(MmsiOf(vessel), t)) {
        const AreaInfo* area = kb->FindArea(id);
        if (area != nullptr && area->kind == kind) out.push_back(id);
      }
      return out;
    }
    const auto coord = ctx.CoordAt(vessel, t);
    if (!coord.has_value()) return out;
    return kb->AreasCloseTo(*coord, kind);
  }

  /// Calls `fn(i)`, ascending, for each index i into ctx.FluentKeys(fluent)
  /// whose vessel can be close to `area` at some window time. On demand that
  /// is every key (the fleet sweep). With spatial facts it is only the keys
  /// the fact table indexes under the area: a vessel no retained fact group
  /// names is never close to it, so skipping it leaves every count and every
  /// emitted point unchanged. The index is ascending by MMSI, a 30-bit AIS
  /// field, so the visit order is the keys' own order too.
  template <typename Fn>
  void ForEachKeyNear(const rtec::EvalContext& ctx, rtec::FluentId fluent,
                      int32_t area, Fn&& fn) const {
    const std::vector<rtec::Term>& keys = ctx.FluentKeys(fluent);
    if (!options.use_spatial_facts) {
      for (size_t i = 0; i < keys.size(); ++i) fn(i);
      return;
    }
    for (const SpatialFactTable::NearVessel& near : facts->VesselsNear(area)) {
      const rtec::Term v = VesselTerm(near.mmsi);
      const auto it = std::lower_bound(keys.begin(), keys.end(), v);
      if (it != keys.end() && *it == v) {
        fn(static_cast<size_t>(it - keys.begin()));
      }
    }
  }
};

/// Per-rule-invocation memoization of the fleet-count predicates for one
/// area. Both counts below scan the vessels carrying the stopped / lowSpeed
/// fluent that CeEnv::ForEachKeyNear yields (the whole fleet on demand, the
/// indexed vessels near the area with spatial facts) and test closeness to
/// the area at each candidate time. Closeness is time-constant for
/// almost every vessel of a mostly-idle fleet (a single position fix or fact
/// group is in force across the whole window), so the memo classifies each
/// vessel once per invocation:
///   - constant and not close: dropped from every candidate's scan (the
///     overwhelming majority — vessels idling far from this area);
///   - constant and close: only the HoldsRight check remains per candidate;
///   - varying (fixes of differing closeness, or a first fix taking force
///     mid-window): the exact per-candidate check, unchanged.
/// The classification evaluates the same closeness predicate the exact path
/// uses at every point where the answer could differ, so each count equals
/// the unmemoized fleet scan bit for bit. Classification is lazy per fluent:
/// an invocation with no candidates (or one that never consults lowSpeed)
/// pays nothing. Entry storage bumps the invocation's slide arena (the same
/// scratch backing the rule's output points), so the memo adds no per-slide
/// heap traffic.
class MARITIME_ARENA_SCOPED CloseCountMemo {
 public:
  CloseCountMemo(const CeEnv& env, const rtec::EvalContext& ctx,
                 int32_t area_id, common::Arena* scratch)
      : env_(env),
        ctx_(ctx),
        area_(area_id),
        stopped_(common::ArenaAllocator<Entry>(scratch)),
        low_speed_(common::ArenaAllocator<Entry>(scratch)) {}

  /// vesselsStoppedIn(Area) at the right limit of `t`: vessels whose
  /// stopped=true interval covers t+1 (so an episode starting exactly at t
  /// counts, one ending exactly at t does not) and which are close to the
  /// area.
  int CountStoppedClose(Timestamp t) {
    int count = 0;
    for (const Entry& e : StoppedEntries()) {
      if (ctx_.HoldsRightOf(env_.schema.stopped, e.vessel, rtec::kTrue, t) &&
          (!e.exact || env_.IsClose(ctx_, e.vessel, area_, t))) {
        ++count;
      }
    }
    return count;
  }

  /// Number of fishing vessels still engaged (stopped or in slow motion)
  /// close to the area right after `t`.
  int CountFishingEngaged(Timestamp t) {
    int count = 0;
    for (const Entry& e : StoppedEntries()) {
      if (!e.fishing) continue;
      if (ctx_.HoldsRightOf(env_.schema.stopped, e.vessel, rtec::kTrue, t) &&
          (!e.exact || env_.IsClose(ctx_, e.vessel, area_, t))) {
        ++count;
      }
    }
    for (const Entry& e : LowSpeedEntries()) {
      if (!e.fishing) continue;
      if (ctx_.HoldsRightOf(env_.schema.stopped, e.vessel, rtec::kTrue, t)) {
        continue;  // already counted above
      }
      if (ctx_.HoldsRightOf(env_.schema.low_speed, e.vessel, rtec::kTrue, t) &&
          (!e.exact || env_.IsClose(ctx_, e.vessel, area_, t))) {
        ++count;
      }
    }
    return count;
  }

 private:
  struct Entry {
    rtec::Term vessel;
    bool fishing;  ///< kb->IsFishing, hoisted out of the per-candidate scan.
    bool exact;    ///< Closeness varies over the window: re-check at each t.
  };

  const common::ArenaVector<Entry>& StoppedEntries() {
    if (!stopped_built_) {
      stopped_built_ = true;
      Classify(env_.schema.stopped, &stopped_);
    }
    return stopped_;
  }

  const common::ArenaVector<Entry>& LowSpeedEntries() {
    if (!low_speed_built_) {
      low_speed_built_ = true;
      Classify(env_.schema.low_speed, &low_speed_);
    }
    return low_speed_;
  }

  void Classify(rtec::FluentId fluent, common::ArenaVector<Entry>* out) {
    const std::vector<rtec::Term>& keys = ctx_.FluentKeys(fluent);
    env_.ForEachKeyNear(ctx_, fluent, area_, [&](size_t i) {
      const rtec::Term v = keys[i];
      bool close = false;
      const bool constant =
          env_.options.use_spatial_facts
              ? env_.facts->ConstantCloseOver(MmsiOf(v), area_,
                                              ctx_.window_start(),
                                              ctx_.query_time(), &close)
              : ConstantCloseOnDemand(v, &close);
      if (constant && !close) return;
      out->push_back(Entry{v, env_.kb->IsFishing(MmsiOf(v)), !constant});
    });
  }

  /// On-demand analogue of SpatialFactTable::ConstantCloseOver: closeness to
  /// the area is the same at every window time iff every coord fix in force
  /// over it agrees — including the implicit "no position yet" (never close)
  /// before a vessel's first fix. A vessel with many fixes is reported
  /// varying without scanning them all: the exact per-candidate check is
  /// cheaper than full classification there.
  bool ConstantCloseOnDemand(rtec::Term vessel, bool* close) const {
    constexpr int kMaxFixes = 8;
    // All scan state lives in one local struct so the callback captures a
    // single pointer and stays inside std::function's small-buffer slot —
    // this runs once per candidate vessel per rule invocation.
    struct Scan {
      const KnowledgeBase* kb;
      int32_t area;
      Timestamp window_start;
      Timestamp query_time;
      int fixes = 0;
      bool mixed = false;
      bool first_covers = false;
      bool val = false;
    };
    Scan scan{env_.kb, area_, ctx_.window_start(), ctx_.query_time()};
    ctx_.ForEachCoordCovering(
        vessel, scan.window_start,
        [&scan](Timestamp t, const geo::GeoPoint& pos) {
          // Fixes past the query time are never consulted by a candidate.
          if (scan.mixed || t > scan.query_time) return;
          if (++scan.fixes > kMaxFixes) {
            scan.mixed = true;
            return;
          }
          const bool c = scan.kb->Close(pos, scan.area);
          if (scan.fixes == 1) {
            scan.first_covers = t <= scan.window_start;
            scan.val = c;
          } else if (c != scan.val) {
            scan.mixed = true;
          }
        });
    if (scan.fixes == 0) {
      *close = false;
      return true;
    }
    if (scan.mixed) return false;
    // False before the fix, then true: varies over the window.
    if (!scan.first_covers && scan.val) return false;
    *close = scan.val;
    return true;
  }

  const CeEnv& env_;
  const rtec::EvalContext& ctx_;
  const int32_t area_;
  bool stopped_built_ = false;
  bool low_speed_built_ = false;
  common::ArenaVector<Entry> stopped_;
  common::ArenaVector<Entry> low_speed_;
};

/// Domain helper: subjects of either marker event in the window, sorted and
/// unique (the union of the two subject indexes, so the engine skips its
/// domain sort).
std::vector<rtec::Term> SubjectsOf(const rtec::EvalContext& ctx,
                                   rtec::EventId a, rtec::EventId b) {
  const std::vector<rtec::Term>& sa = ctx.Subjects(a);
  const std::vector<rtec::Term>& sb = ctx.Subjects(b);
  std::vector<rtec::Term> out;
  out.reserve(sa.size() + sb.size());
  std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                 std::back_inserter(out));
  return out;
}

/// Domain helper: the terms of every area `keep` accepts, sorted and
/// unique. Built once, at registration (the area registry is complete by
/// then, see CERecognizer), so a slide copies the list and the engine skips
/// its domain sort.
template <typename Keep>
std::vector<rtec::Term> SortedAreaTerms(const KnowledgeBase* kb, Keep keep) {
  std::vector<rtec::Term> out;
  for (const AreaInfo& a : kb->areas()) {
    if (keep(a)) out.push_back(AreaTerm(a.id));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Registers a durative input ME as a simple fluent driven by its start/end
/// marker events: initiatedAt(F(V)=true, T) iff happensAt(startMarker(V), T),
/// terminatedAt(F(V)=true, T) iff happensAt(endMarker(V), T).
void RegisterInputDurativeMe(rtec::Engine& engine, rtec::FluentId fluent,
                             rtec::EventId start_marker,
                             rtec::EventId end_marker) {
  rtec::SimpleFluentSpec spec;
  spec.fluent = fluent;
  spec.domain = [start_marker, end_marker](const rtec::EvalContext& ctx) {
    return SubjectsOf(ctx, start_marker, end_marker);
  };
  // The key's own markers come from the subject index, and only those the
  // regeneration region needs: O(own markers), not O(window).
  spec.rules = [start_marker, end_marker](
                   const rtec::EvalContext& ctx, rtec::Term key,
                   rtec::PointVec* initiated,
                   rtec::PointVec* terminated) {
    for (const rtec::EventInstance& e :
         ctx.NeedsEvalSuffix(ctx.EventsOf(start_marker, key))) {
      initiated->push_back({rtec::kTrue, e.t});
    }
    for (const rtec::EventInstance& e :
         ctx.NeedsEvalSuffix(ctx.EventsOf(end_marker, key))) {
      terminated->push_back({rtec::kTrue, e.t});
    }
  };
  spec.output = false;
  // Points fall exactly at the key's own marker occurrences.
  spec.deps = rtec::DependencySpec{{start_marker, end_marker}, {}, false,
                                   false, {}};
  engine.AddSimpleFluent(std::move(spec));
}

}  // namespace

void RegisterMaritimeCes(rtec::Engine& engine, const MaritimeSchema& schema,
                         const KnowledgeBase* kb,
                         const SpatialFactTable* facts, CeOptions options) {
  assert(kb != nullptr);
  assert(!options.use_spatial_facts || facts != nullptr);
  const CeEnv env{schema, kb, facts, options};

  // Vessel→area dependency projector shared by the four area-keyed CE
  // definitions: a dirty vessel can only affect the areas it is (or was)
  // close to at some time in force >= `from`. In the spatial-facts setting
  // that is the union over its fact groups from the boundary group onward;
  // in the on-demand setting, every area close to a coord fix in force over
  // the same span. Both walks start from the position in force just before
  // `from`: a delayed fix or fact group inserted at exactly `from` shadows
  // the one that was in force there, and that older position is the
  // pre-change closeness. Both are conservative supersets (so a vessel
  // *ceasing* to be close still dirties the area it left — see DESIGN.md
  // §14). A vessel with no position at all
  // projects to no areas: every `close` read involving it is false/empty
  // before and after, so no output key can change.
  // Scratch vectors are captured by value and reused across calls (the
  // projector runs serially at evaluation time, and each definition's
  // DependencySpec owns its own copy), so a steady-state projection touches
  // the heap only when a vessel reaches more areas than ever before.
  const auto project_vessel_to_areas =
      [env, areas = std::vector<int32_t>(), close = std::vector<int32_t>()](
          const rtec::EvalContext& ctx, rtec::Term in_key, Timestamp from,
          std::vector<rtec::Term>* out) mutable {
        if (in_key.kind != kVesselTermKind) return false;
        if (env.options.use_spatial_facts) {
          env.facts->AreasCoveringFrom(MmsiOf(in_key), from - 1, &areas);
        } else {
          areas.clear();
          // One-pointer capture keeps the callback in std::function's
          // small-buffer slot (no per-call heap traffic).
          struct Sweep {
            const KnowledgeBase* kb;
            std::vector<int32_t>* areas;
            std::vector<int32_t>* close;
          };
          Sweep sweep{env.kb, &areas, &close};
          ctx.ForEachCoordCovering(
              in_key, from - 1, [&sweep](Timestamp, const geo::GeoPoint& pos) {
                sweep.kb->AreasCloseTo(pos, sweep.close);
                sweep.areas->insert(sweep.areas->end(), sweep.close->begin(),
                                    sweep.close->end());
              });
          std::sort(areas.begin(), areas.end());
          areas.erase(std::unique(areas.begin(), areas.end()), areas.end());
        }
        out->reserve(out->size() + areas.size());
        for (const int32_t id : areas) out->push_back(AreaTerm(id));
        return true;
      };

  // --- durative input MEs ---------------------------------------------------
  RegisterInputDurativeMe(engine, schema.stopped, schema.stop_start,
                          schema.stop_end);
  RegisterInputDurativeMe(engine, schema.low_speed, schema.slow_start,
                          schema.slow_end);

  // --- suspicious(Area) — rule-set (3) ---------------------------------------
  {
    rtec::SimpleFluentSpec spec;
    spec.fluent = schema.suspicious;
    // Officials monitor every non-port area for loitering.
    spec.domain = [areas = SortedAreaTerms(kb, [](const AreaInfo& a) {
                     return a.kind != AreaKind::kPort;
                   })](const rtec::EvalContext&) { return areas; };
    spec.rules = [env](const rtec::EvalContext& ctx, rtec::Term key,
                       rtec::PointVec* initiated,
                       rtec::PointVec* terminated) {
      const int32_t area = key.id;
      CloseCountMemo memo(env, ctx, area, initiated->get_allocator().arena());
      const auto& vessels = ctx.FluentKeys(env.schema.stopped);
      const auto& timelines = ctx.FluentTimelines(env.schema.stopped);
      env.ForEachKeyNear(ctx, env.schema.stopped, area, [&](size_t i) {
        const rtec::Term v = vessels[i];
        const rtec::FluentTimeline& tl = *timelines[i];
        for (const Timestamp t :
             ctx.NeedsEvalSuffix(tl.StartsFor(rtec::kTrue))) {
          if (env.IsClose(ctx, v, area, t) &&
              memo.CountStoppedClose(t) >= kSuspiciousMinVessels) {
            initiated->push_back({rtec::kTrue, t});
          }
        }
        for (const Timestamp t : ctx.NeedsEvalSuffix(tl.EndsFor(rtec::kTrue))) {
          if (env.IsClose(ctx, v, area, t) &&
              memo.CountStoppedClose(t) < kSuspiciousMinVessels) {
            terminated->push_back({rtec::kTrue, t});
          }
        }
      });
    };
    spec.output = true;
    // Reads every vessel's stopped timeline and position (the loitering
    // count scans the fleet on demand); the projector scopes a vessel's
    // changes to the areas it could be close to instead of dirtying the
    // whole area set.
    spec.deps = rtec::DependencySpec{{}, {schema.stopped}, true, true, {}};
    spec.deps->project = project_vessel_to_areas;
    engine.AddSimpleFluent(std::move(spec));
  }

  // --- illegalFishing(Area) — rule-set (4) ------------------------------------
  {
    rtec::SimpleFluentSpec spec;
    spec.fluent = schema.illegal_fishing;
    spec.domain = [areas = SortedAreaTerms(kb, [](const AreaInfo& a) {
                     return a.kind == AreaKind::kForbiddenFishing;
                   })](const rtec::EvalContext&) { return areas; };
    spec.rules = [env](const rtec::EvalContext& ctx, rtec::Term key,
                       rtec::PointVec* initiated,
                       rtec::PointVec* terminated) {
      const int32_t area = key.id;
      CloseCountMemo memo(env, ctx, area, initiated->get_allocator().arena());
      const auto& stopped_vessels = ctx.FluentKeys(env.schema.stopped);
      const auto& stopped_timelines =
          ctx.FluentTimelines(env.schema.stopped);
      // Initiation (a): a fishing vessel stops close to the area.
      env.ForEachKeyNear(ctx, env.schema.stopped, area, [&](size_t i) {
        const rtec::Term v = stopped_vessels[i];
        if (!env.kb->IsFishing(MmsiOf(v))) return;
        for (const Timestamp t : ctx.NeedsEvalSuffix(
                 stopped_timelines[i]->StartsFor(rtec::kTrue))) {
          if (env.IsClose(ctx, v, area, t)) {
            initiated->push_back({rtec::kTrue, t});
          }
        }
      });
      // Initiation (b): a fishing vessel moves "too" slowly close to it.
      for (const rtec::EventInstance& e :
           ctx.NeedsEvalSuffix(ctx.Events(env.schema.slow_motion))) {
        if (!env.kb->IsFishing(MmsiOf(e.subject))) continue;
        if (env.IsClose(ctx, e.subject, area, e.t)) {
          initiated->push_back({rtec::kTrue, e.t});
        }
      }
      // Termination: fishing activity in the area ceases — a fishing
      // vessel's stop or slow-motion episode ends and no fishing vessel
      // remains engaged close to the area (the paper describes these
      // conditions but omits the rules to save space).
      const auto try_terminate = [&](rtec::FluentId fluent) {
        const auto& vessels = ctx.FluentKeys(fluent);
        const auto& timelines = ctx.FluentTimelines(fluent);
        env.ForEachKeyNear(ctx, fluent, area, [&](size_t i) {
          const auto ends =
              ctx.NeedsEvalSuffix(timelines[i]->EndsFor(rtec::kTrue));
          if (ends.empty() || !env.kb->IsFishing(MmsiOf(vessels[i]))) {
            return;
          }
          for (const Timestamp t : ends) {
            if (env.IsClose(ctx, vessels[i], area, t) &&
                memo.CountFishingEngaged(t) == 0) {
              terminated->push_back({rtec::kTrue, t});
            }
          }
        });
      };
      try_terminate(env.schema.stopped);
      try_terminate(env.schema.low_speed);
    };
    spec.output = true;
    spec.deps = rtec::DependencySpec{
        {schema.slow_motion}, {schema.stopped, schema.low_speed}, true, true, {}};
    spec.deps->project = project_vessel_to_areas;
    engine.AddSimpleFluent(std::move(spec));
  }

  // --- illegalShipping(Area) — rule (5) ----------------------------------------
  {
    rtec::DerivedEventSpec spec;
    spec.event = schema.illegal_shipping;
    spec.compute = [env](const rtec::EvalContext& ctx,
                         std::vector<rtec::EventInstance>* out) {
      for (const rtec::EventInstance& e :
           ctx.NeedsEvalSuffix(ctx.Events(env.schema.gap))) {
        for (const int32_t area :
             env.AreasClose(ctx, e.subject, e.t, AreaKind::kProtected)) {
          out->push_back(
              rtec::EventInstance{e.subject, AreaTerm(area), e.t});
        }
      }
    };
    spec.output = true;
    // Keyless output: the projector still helps — an idle fleet projects to
    // nothing, leaving the derivation clean, and otherwise the regen region
    // starts at the earliest *projected* mark.
    spec.deps = rtec::DependencySpec{{schema.gap}, {}, true, true, {}};
    spec.deps->project = project_vessel_to_areas;
    engine.AddDerivedEvent(std::move(spec));
  }

  // --- adrift(Vessel) — extension CE (see MaritimeSchema::adrift) -------------
  if (options.enable_adrift) {
    rtec::SimpleFluentSpec spec;
    spec.fluent = schema.adrift;
    const auto stop_start = schema.stop_start;
    const auto stop_end = schema.stop_end;
    spec.domain = [stop_start, stop_end](const rtec::EvalContext& ctx) {
      return SubjectsOf(ctx, stop_start, stop_end);
    };
    spec.rules = [env](const rtec::EvalContext& ctx, rtec::Term key,
                       rtec::PointVec* initiated,
                       rtec::PointVec* terminated) {
      const rtec::FluentTimeline& tl = ctx.Timeline(env.schema.stopped, key);
      for (const Timestamp t : tl.StartsFor(rtec::kTrue)) {
        if (!ctx.NeedsEval(t)) continue;
        if (env.AwayFromPorts(ctx, key, t)) {
          initiated->push_back({rtec::kTrue, t});
        }
      }
      for (const Timestamp t : tl.EndsFor(rtec::kTrue)) {
        if (!ctx.NeedsEval(t)) continue;
        terminated->push_back({rtec::kTrue, t});
      }
    };
    spec.output = true;
    // Only the key's own stopped episodes and own position are read.
    spec.deps =
        rtec::DependencySpec{{}, {schema.stopped}, true, false, {}};
    engine.AddSimpleFluent(std::move(spec));
  }

  // --- dangerousShipping(Area) — rule (6) ---------------------------------------
  {
    rtec::DerivedEventSpec spec;
    spec.event = schema.dangerous_shipping;
    spec.compute = [env](const rtec::EvalContext& ctx,
                         std::vector<rtec::EventInstance>* out) {
      for (const rtec::EventInstance& e :
           ctx.NeedsEvalSuffix(ctx.Events(env.schema.slow_motion))) {
        for (const int32_t area :
             env.AreasClose(ctx, e.subject, e.t, AreaKind::kShallow)) {
          if (env.kb->IsShallowFor(area, MmsiOf(e.subject))) {
            out->push_back(
                rtec::EventInstance{e.subject, AreaTerm(area), e.t});
          }
        }
      }
    };
    spec.output = true;
    spec.deps = rtec::DependencySpec{{schema.slow_motion}, {}, true, true, {}};
    spec.deps->project = project_vessel_to_areas;
    engine.AddDerivedEvent(std::move(spec));
  }
}

}  // namespace maritime::surveillance
