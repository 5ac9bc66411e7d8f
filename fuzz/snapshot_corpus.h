// What fuzz_make_corpus and fuzz_snapshot share, so that every snapshot seed
// restores into the target it is written for: the world the pipeline and
// archiver seeds are saved over, the tiny engine schema, and the input
// length budget every seed must fit with room left for insertions.

#ifndef MARITIME_FUZZ_SNAPSHOT_CORPUS_H_
#define MARITIME_FUZZ_SNAPSHOT_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "rtec/engine.h"

namespace maritime::fuzz {

/// sim::BuildWorld seed of the corpus world.
inline constexpr uint64_t kCorpusWorldSeed = 7;

/// Snapshot seeds stay under this many bytes, below the -max_len=4096 the
/// smoke and CI runs pass, so a mutation is not cut short every time.
inline constexpr size_t kMaxSnapshotSeedBytes = 3584;

/// The event ids of the tiny schema: declared first, they are 0 and 1.
inline constexpr rtec::EventId kTinyOn = 0;
inline constexpr rtec::EventId kTinyOff = 1;

/// The on/off/active schema of the engine target: one simple fluent,
/// initiated by `on` and terminated by `off` for the event's subject.
inline std::unique_ptr<rtec::Engine> MakeTinyEngine(bool incremental) {
  rtec::EngineOptions opts;
  opts.incremental = incremental;
  auto engine = std::make_unique<rtec::Engine>(stream::WindowSpec{120, 60},
                                               opts);
  const rtec::EventId on = engine->DeclareEvent("on");
  const rtec::EventId off = engine->DeclareEvent("off");
  MARITIME_DCHECK(on == kTinyOn && off == kTinyOff);
  rtec::SimpleFluentSpec spec;
  spec.fluent = engine->DeclareFluent("active");
  spec.output = true;
  spec.domain = [on, off](const rtec::EvalContext& ctx) {
    std::vector<rtec::Term> keys;
    for (const auto& e : ctx.Events(on)) keys.push_back(e.subject);
    for (const auto& e : ctx.Events(off)) keys.push_back(e.subject);
    return keys;
  };
  spec.rules = [on, off](const rtec::EvalContext& ctx, rtec::Term key,
                         rtec::PointVec* initiated,
                         rtec::PointVec* terminated) {
    for (const auto& e : ctx.Events(on)) {
      if (e.subject == key) initiated->push_back({rtec::kTrue, e.t});
    }
    for (const auto& e : ctx.Events(off)) {
      if (e.subject == key) terminated->push_back({rtec::kTrue, e.t});
    }
  };
  rtec::DependencySpec deps;
  deps.events = {on, off};
  spec.deps = deps;
  engine->AddSimpleFluent(std::move(spec));
  return engine;
}

/// Offset of the evaluation-mode flag in an engine record: after its u8
/// version and the i64 range and slide of its window.
inline constexpr size_t kEngineModeOffset = 1 + 2 * sizeof(int64_t);

}  // namespace maritime::fuzz

#endif  // MARITIME_FUZZ_SNAPSHOT_CORPUS_H_
