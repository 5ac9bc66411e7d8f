// Fuzz target for the checkpoint subsystem: hostile bytes are thrown at
// every RestoreFrom entry point and at the file-container decoder. The
// contract under test is the one DESIGN.md §9 promises for corrupt input —
// a clean Status (Corruption / InvalidArgument / Unimplemented), never a
// crash, OOM, or half-restored component. After a restore that *succeeds*
// the component is exercised to prove the accepted state is internally
// consistent, not merely parseable.
//
// Input grammar: first byte selects the target, the rest is the payload.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "maritime/knowledge.h"
#include "maritime/me_stream.h"
#include "maritime/pipeline.h"
#include "mod/hermes.h"
#include "mod/store.h"
#include "rtec/engine.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "tracker/sharded_tracker.h"

namespace {

using maritime::Status;
using maritime::StatusCode;

/// A restore must fail with one of the documented error codes or succeed —
/// anything else (NotFound, Internal, ...) is a contract violation.
void CheckStatus(const Status& s) {
  MARITIME_DCHECK(s.ok() || s.code() == StatusCode::kCorruption ||
                  s.code() == StatusCode::kInvalidArgument ||
                  s.code() == StatusCode::kUnimplemented);
}

/// Minimal knowledge base shared by the archiver and pipeline targets
/// (construction is deterministic, so reuse across inputs is sound).
const maritime::surveillance::KnowledgeBase& Kb() {
  static const maritime::surveillance::KnowledgeBase* kb = [] {
    auto* k = new maritime::surveillance::KnowledgeBase(1000.0);
    maritime::surveillance::AreaInfo a;
    a.id = 1000;
    a.name = "port";
    a.kind = maritime::surveillance::AreaKind::kPort;
    a.polygon = maritime::geo::Polygon::RegularPolygon(
        maritime::geo::GeoPoint{24.0, 37.0}, 800.0, 8);
    k->AddArea(a);
    return k;
  }();
  return *kb;
}

/// The tiny schema every engine-target restore is attempted against.
struct TinyEngine {
  explicit TinyEngine(bool incremental) {
    maritime::rtec::EngineOptions opts;
    opts.incremental = incremental;
    engine = std::make_unique<maritime::rtec::Engine>(
        maritime::stream::WindowSpec{120, 60}, nullptr, opts);
    const maritime::rtec::EventId on = engine->DeclareEvent("on");
    const maritime::rtec::EventId off = engine->DeclareEvent("off");
    const maritime::rtec::FluentId active = engine->DeclareFluent("active");
    maritime::rtec::SimpleFluentSpec spec;
    spec.fluent = active;
    spec.output = true;
    spec.domain = [on, off](const maritime::rtec::EvalContext& ctx) {
      std::vector<maritime::rtec::Term> keys;
      for (const auto& e : ctx.Events(on)) keys.push_back(e.subject);
      for (const auto& e : ctx.Events(off)) keys.push_back(e.subject);
      return keys;
    };
    spec.rules = [on, off](const maritime::rtec::EvalContext& ctx,
                           maritime::rtec::Term key,
                           maritime::rtec::PointVec* initiated,
                           maritime::rtec::PointVec*
                               terminated) {
      for (const auto& e : ctx.Events(on)) {
        if (e.subject == key) initiated->push_back({maritime::rtec::kTrue, e.t});
      }
      for (const auto& e : ctx.Events(off)) {
        if (e.subject == key) {
          terminated->push_back({maritime::rtec::kTrue, e.t});
        }
      }
    };
    maritime::rtec::DependencySpec deps;
    deps.events = {on, off};
    spec.deps = deps;
    engine->AddSimpleFluent(std::move(spec));
  }
  std::unique_ptr<maritime::rtec::Engine> engine;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t target = data[0] % 8;
  const std::string_view payload(reinterpret_cast<const char*>(data + 1),
                                 size - 1);
  maritime::snapshot::Reader r(payload);

  switch (target) {
    case 0: {  // file container
      const auto decoded = maritime::snapshot::DecodeSnapshotFile(payload);
      CheckStatus(decoded.status());
      if (decoded.ok()) {
        // A payload that passed the CRC decodes to exactly the bytes that
        // were framed — re-encoding must reproduce the file.
        MARITIME_DCHECK(maritime::snapshot::EncodeSnapshotFile(
                            decoded.value()) == std::string(payload));
      }
      break;
    }
    case 1: {  // spatial fact table
      maritime::surveillance::SpatialFactTable table;
      const Status s = table.RestoreFrom(r);
      CheckStatus(s);
      if (!s.ok()) {
        MARITIME_DCHECK(table.fact_count() == 0);  // never half-filled
      } else {
        table.AreasCloseAt(1, 100);
        table.PurgeBefore(50);
      }
      break;
    }
    case 3: {  // sharded mobility tracker
      maritime::tracker::ShardedMobilityTracker tracker(
          maritime::tracker::TrackerParams{}, 2);
      const Status s = tracker.RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) {
        std::vector<maritime::tracker::CriticalPoint> out;
        tracker.Finish(&out);
      }
      break;
    }
    case 4: {  // trajectory store
      maritime::mod::TrajectoryStore store;
      const Status s = store.RestoreFrom(r);
      CheckStatus(s);
      if (!s.ok()) {
        MARITIME_DCHECK(store.trip_count() == 0);
      } else {
        store.OriginDestinationMatrix();
        store.TripsOverlapping(0, maritime::kHour);
      }
      break;
    }
    case 5: {  // archival path
      maritime::mod::HermesArchiver archiver(&Kb());
      const Status s = archiver.RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) archiver.Statistics();
      break;
    }
    case 6: {  // RTEC engine (naive and incremental schema variants)
      TinyEngine e(payload.size() % 2 == 0);
      const Status s = e.engine->RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) {
        e.engine->Recognize(180);
      } else {
        // Never half-restored: a rejected engine saves what a fresh one
        // does.
        TinyEngine fresh(payload.size() % 2 == 0);
        maritime::snapshot::Writer rejected, expected;
        e.engine->SaveTo(rejected);
        fresh.engine->SaveTo(expected);
        MARITIME_DCHECK(rejected.bytes() == expected.bytes());
      }
      break;
    }
    default: {  // whole pipeline (selectors 2 and 7)
      maritime::surveillance::PipelineConfig cfg;
      cfg.window = maritime::stream::WindowSpec{maritime::kHour,
                                                10 * maritime::kMinute};
      cfg.partitions = 1;
      cfg.archive = true;
      maritime::surveillance::SurveillancePipeline pipeline(&Kb(), cfg);
      const Status s = pipeline.RestoreFrom(r);
      CheckStatus(s);
      break;
    }
  }
  return 0;
}
