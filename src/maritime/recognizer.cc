#include "maritime/recognizer.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace maritime::surveillance {

CERecognizer::CERecognizer(const KnowledgeBase* kb, RecognizerConfig config)
    : kb_(kb), config_(config) {
  assert(kb_ != nullptr);
  rtec::EngineOptions opts;
  switch (config_.engine) {
    case EngineMode::kNaive:
      break;
    case EngineMode::kIncremental:
      opts.incremental = true;
      break;
    case EngineMode::kAuto:
      // Suffix reuse only pays when the window outlives the slide; at
      // ω close to β every slide dirties (almost) the whole window.
      opts.incremental = config_.window.range >= 3 * config_.window.slide;
      break;
  }
  engine_ = std::make_unique<rtec::Engine>(config_.window, opts);
  schema_ = MaritimeSchema::Declare(*engine_);
  RegisterMaritimeCes(*engine_, schema_, kb_,
                      config_.ce.use_spatial_facts ? &facts_ : nullptr,
                      config_.ce);
}

void CERecognizer::Feed(const tracker::CriticalPoint& cp) {
  ++feed_stats_.critical_points;
  feed_stats_.me_events += FeedCriticalPoint(*engine_, schema_, cp);
  if (config_.ce.use_spatial_facts) {
    // The trajectory detection side accompanies each ME with facts naming
    // the areas the vessel is currently close to (Figure 11(b) setting);
    // recognition then skips on-demand spatial reasoning entirely.
    kb_->AreasCloseTo(cp.pos, &close_scratch_);
    feed_stats_.spatial_facts += close_scratch_.size();
    facts_.AddFactGroup(cp.mmsi, cp.tau, close_scratch_);
  }
}

void CERecognizer::Feed(std::span<const tracker::CriticalPoint> cps) {
  for (const tracker::CriticalPoint& cp : cps) Feed(cp);
}

rtec::RecognitionResult CERecognizer::Recognize(Timestamp q) {
  rtec::RecognitionResult result = engine_->Recognize(q);
  if (config_.ce.use_spatial_facts) {
    // After evaluation, like the engine's coord purge: a delayed fact group
    // that shadows a vessel's boundary group leaves the shadowed areas
    // visible to the vessel→area projector of this step.
    facts_.PurgeBefore(q - config_.window.range);
    result.input_events_in_window += facts_.fact_count();
  }
  return result;
}

std::string CERecognizer::Describe(const rtec::RecognizedEvent& e) const {
  return StrPrintf("%s(%s, %s) @ %lld", engine_->EventName(e.event).c_str(),
                   TermLabel(e.instance.object).c_str(),
                   TermLabel(e.instance.subject).c_str(),
                   static_cast<long long>(e.instance.t));
}

std::string CERecognizer::Describe(const rtec::RecognizedFluent& f) const {
  std::string out = StrPrintf("%s(%s)=%d",
                              engine_->FluentName(f.fluent).c_str(),
                              TermLabel(f.key).c_str(), f.value);
  for (const rtec::Interval& i : f.intervals) {
    out += StrPrintf(" (%lld,%lld]", static_cast<long long>(i.since),
                     static_cast<long long>(i.till));
  }
  return out;
}

PartitionedRecognizer::PartitionedRecognizer(const KnowledgeBase& kb,
                                             RecognizerConfig config,
                                             int partitions,
                                             common::ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &common::ThreadPool::Shared()) {
  assert(partitions >= 1);
  // Order areas west to east by polygon centroid and cut into equal bands
  // (the paper splits the surveillance region into a west and an east part).
  std::vector<std::pair<double, int32_t>> by_lon;
  for (const AreaInfo& a : kb.areas()) {
    by_lon.emplace_back(a.polygon.VertexCentroid().lon, a.id);
  }
  std::sort(by_lon.begin(), by_lon.end());
  const size_t n = by_lon.size();
  const size_t per =
      (n + static_cast<size_t>(partitions) - 1) /
      std::max<size_t>(1, static_cast<size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    const size_t lo = std::min(n, static_cast<size_t>(p) * per);
    const size_t hi = std::min(n, lo + per);
    std::vector<int32_t> ids;
    for (size_t i = lo; i < hi; ++i) ids.push_back(by_lon[i].second);
    Partition part;
    part.min_lon = p == 0 || lo >= n ? -180.0 : by_lon[lo].first;
    part.kb = std::make_unique<KnowledgeBase>(kb.Restricted(ids));
    part.rec = std::make_unique<CERecognizer>(part.kb.get(), config);
    parts_.push_back(std::move(part));
  }
}

size_t PartitionedRecognizer::PartitionFor(const geo::GeoPoint& p) const {
  size_t chosen = 0;
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (p.lon >= parts_[i].min_lon) chosen = i;
  }
  return chosen;
}

void PartitionedRecognizer::Feed(const tracker::CriticalPoint& cp) {
  parts_[PartitionFor(cp.pos)].rec->Feed(cp);
}

void PartitionedRecognizer::Feed(std::span<const tracker::CriticalPoint> cps) {
  for (const tracker::CriticalPoint& cp : cps) Feed(cp);
}

std::vector<rtec::RecognitionResult> PartitionedRecognizer::Recognize(
    Timestamp q) {
  std::vector<rtec::RecognitionResult> results(parts_.size());
  // One task per partition on the long-lived shared pool; spawning fresh
  // std::threads every slide used to dominate recognition at small slides.
  pool_->ParallelFor(parts_.size(), [this, q, &results](size_t i) {
    results[i] = parts_[i].rec->Recognize(q);
  });
  ++recognize_calls_;
  for (const rtec::RecognitionResult& r : results) {
    recognized_items_ += r.RecognizedCount();
    input_events_ += r.input_events_in_window;
  }
  return results;
}

PartitionedRecognizer::RecognizeTotals PartitionedRecognizer::totals() const {
  RecognizeTotals out;
  out.recognize_calls = recognize_calls_;
  out.recognized_items = recognized_items_;
  out.input_events = input_events_;
  // Cache and allocation counters live in the per-partition engines.
  for (const Partition& p : parts_) {
    const rtec::EngineCacheStats& cs = p.rec->engine().cache_stats();
    out.cache_hits += cs.hits;
    out.cache_misses += cs.misses;
    out.cache_evictions += cs.evictions;
    out.spans_narrowed += cs.spans_narrowed;
    out.fleet_floor_hits += cs.fleet_floor_hits;
    const rtec::EngineAllocStats& as = p.rec->engine().alloc_stats();
    out.arena_bytes += as.arena_bytes;
    out.arena_chunks += as.arena_chunks;
    out.fallback_allocs += as.fallback_allocs;
  }
  return out;
}

}  // namespace maritime::surveillance
