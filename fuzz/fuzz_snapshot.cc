// Fuzz target for the checkpoint subsystem: hostile bytes are thrown at
// every RestoreFrom entry point and at the file-container decoder. The
// contract under test is the one DESIGN.md §9 promises for corrupt input —
// a clean Status (Corruption / InvalidArgument / Unimplemented), never a
// crash, OOM, or half-restored component. A restore that *succeeds* must
// have read bytes SaveTo writes: saving the restored component gives back
// exactly the bytes it consumed (the round-trip oracle). The component is
// then exercised to prove the accepted state is internally consistent, not
// merely parseable.
//
// Input grammar: first byte selects the target, the rest is the payload.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
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
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "tracker/sharded_tracker.h"
#include "snapshot_corpus.h"

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

template <typename Component>
std::string Saved(const Component& c) {
  maritime::snapshot::Writer w;
  c.SaveTo(w);
  return std::string(w.bytes());
}

/// The round-trip oracle for a component restored from `consumed`, the
/// bytes its RestoreFrom read. Its re-save must be those bytes, except when
/// they hold a record of an older format this build still reads (`legacy`:
/// a v1 sharded tracker or archiver, the formats of the committed fixture).
/// That re-save is the newest format, and must be a fixed point: restored
/// into `fresh()`, it saves the same bytes again.
template <typename Component, typename Fresh>
void CheckRoundTrip(const Component& restored, std::string_view consumed,
                    bool legacy, Fresh fresh) {
  const std::string resaved = Saved(restored);
  if (!legacy) {
    MARITIME_DCHECK(resaved == consumed);
    return;
  }
  auto again = fresh();
  maritime::snapshot::Reader r(resaved);
  const Status s = again->RestoreFrom(r);
  MARITIME_DCHECK(s.ok() && r.AtEnd());
  MARITIME_DCHECK(Saved(*again) == resaved);
}

/// Whether a pipeline payload that restored holds a v1 sharded-tracker or
/// archiver record. Its frames are MANI, TRKS, RCGP, PIPE, ARCH, each a u32
/// tag, a u8 version and a u64 body length; the TRKS body leads with the
/// sharded tracker's version, the ARCH body with the has-archiver flag and
/// then the archiver's version.
bool HoldsLegacyRecord(std::string_view payload) {
  constexpr size_t kFrameHeader = 4 + 1 + 8;
  bool legacy = false;
  size_t at = 0;
  for (int section = 0; section < 5; ++section) {
    uint64_t length = 0;
    std::memcpy(&length, payload.data() + at + 5, sizeof(length));
    const size_t body = at + kFrameHeader;
    if (section == 1) legacy |= payload[body] == 1;
    if (section == 4) legacy |= payload[body] == 1 && payload[body + 1] == 1;
    at = body + length;
  }
  return legacy;
}

/// The knowledge base of the corpus world, shared by the archiver and
/// pipeline targets: the pipeline seed was saved over it, so mutations of
/// that seed reach past the config fingerprint into every section.
/// Construction is deterministic, so reuse across inputs is sound.
const maritime::surveillance::KnowledgeBase& Kb() {
  static const maritime::sim::World* world = new maritime::sim::World(
      maritime::sim::BuildWorld(maritime::fuzz::kCorpusWorldSeed));
  return world->knowledge;
}

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
      using maritime::surveillance::SpatialFactTable;
      SpatialFactTable table;
      const Status s = table.RestoreFrom(r);
      CheckStatus(s);
      if (!s.ok()) {
        MARITIME_DCHECK(table.fact_count() == 0);  // never half-filled
      } else {
        CheckRoundTrip(table, payload.substr(0, r.offset()), false,
                       [] { return std::make_unique<SpatialFactTable>(); });
        table.AreasCloseAt(1, 100);
        table.PurgeBefore(50);
      }
      break;
    }
    case 3: {  // sharded mobility tracker
      using maritime::tracker::ShardedMobilityTracker;
      const auto fresh = [] {
        return std::make_unique<ShardedMobilityTracker>(
            maritime::tracker::TrackerParams{}, 2);
      };
      const auto tracker = fresh();
      const Status s = tracker->RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) {
        CheckRoundTrip(*tracker, payload.substr(0, r.offset()),
                       payload[0] == 1, fresh);
        std::vector<maritime::tracker::CriticalPoint> out;
        tracker->Finish(&out);
      }
      break;
    }
    case 4: {  // trajectory store
      using maritime::mod::TrajectoryStore;
      TrajectoryStore store;
      const Status s = store.RestoreFrom(r);
      CheckStatus(s);
      if (!s.ok()) {
        MARITIME_DCHECK(store.trip_count() == 0);
      } else {
        CheckRoundTrip(store, payload.substr(0, r.offset()), false,
                       [] { return std::make_unique<TrajectoryStore>(); });
        store.OriginDestinationMatrix();
        store.TripsOverlapping(0, maritime::kHour);
      }
      break;
    }
    case 5: {  // archival path
      using maritime::mod::HermesArchiver;
      HermesArchiver archiver(&Kb());
      const Status s = archiver.RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) {
        CheckRoundTrip(archiver, payload.substr(0, r.offset()),
                       payload[0] == 1,
                       [] { return std::make_unique<HermesArchiver>(&Kb()); });
        archiver.Statistics();
      }
      break;
    }
    case 6: {  // RTEC engine, in the evaluation mode the record names
      using maritime::fuzz::MakeTinyEngine;
      const bool incremental =
          payload.size() > maritime::fuzz::kEngineModeOffset &&
          payload[maritime::fuzz::kEngineModeOffset] == 1;
      const auto engine = MakeTinyEngine(incremental);
      const Status s = engine->RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) {
        CheckRoundTrip(*engine, payload.substr(0, r.offset()), false,
                       [incremental] { return MakeTinyEngine(incremental); });
        engine->Recognize(180);
      } else {
        // Never half-restored: a rejected engine saves what a fresh one
        // does.
        MARITIME_DCHECK(Saved(*engine) == Saved(*MakeTinyEngine(incremental)));
      }
      break;
    }
    default: {  // whole pipeline (selectors 2 and 7)
      maritime::surveillance::PipelineConfig cfg;
      cfg.window = maritime::stream::WindowSpec{maritime::kHour,
                                                10 * maritime::kMinute};
      cfg.partitions = 1;
      cfg.archive = true;
      using maritime::surveillance::SurveillancePipeline;
      SurveillancePipeline pipeline(&Kb(), cfg);
      const Status s = pipeline.RestoreFrom(r);
      CheckStatus(s);
      if (s.ok()) {
        const std::string_view consumed = payload.substr(0, r.offset());
        CheckRoundTrip(pipeline, consumed, HoldsLegacyRecord(consumed), [cfg] {
          return std::make_unique<SurveillancePipeline>(&Kb(), cfg);
        });
      }
      break;
    }
  }
  return 0;
}
