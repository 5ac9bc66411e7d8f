#ifndef MARITIME_MARITIME_RECOGNIZER_H_
#define MARITIME_MARITIME_RECOGNIZER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "maritime/ce_definitions.h"
#include "maritime/knowledge.h"
#include "maritime/me_stream.h"
#include "rtec/engine.h"
#include "stream/sliding_window.h"
#include "tracker/critical_point.h"

namespace maritime::surveillance {

/// Evaluation-engine selection for RecognizerConfig::engine. Every mode
/// produces bit-identical CE output; they differ only in cost.
enum class EngineMode {
  kNaive,
  kIncremental,
  /// Decide from the window shape at construction: incremental pays only
  /// when the window outlives the slide, so it is chosen when ω >= 3β
  /// (BENCH_rtec.json `window_shape_rows`).
  kAuto,
};

/// Configuration of the CE recognition module.
struct RecognizerConfig {
  stream::WindowSpec window{kHour, kHour};  ///< RTEC working memory ω / slide.
  CeOptions ce;
  /// Engine selection. Incremental RTEC evaluation caches per-(definition,
  /// key) evidence across window slides and re-runs rules only for dirty
  /// window regions; results are bit-identical to the naive engine. The
  /// choice is resolved deterministically at construction (it depends only
  /// on this config), so snapshot save/restore pairs agree on the mode.
  EngineMode engine = EngineMode::kNaive;
};

/// The Complex Event Recognition module of Figure 1: wraps an RTEC engine
/// loaded with the maritime CE definitions, converts incoming critical
/// points into ME assertions (plus precomputed spatial facts in the
/// Figure 11(b) mode), and recognizes CEs at each query time.
class CERecognizer {
 public:
  /// `kb` must outlive the recognizer, and its area registry must be
  /// complete: the area-keyed CE domains are built from it here, so an area
  /// added afterwards is never monitored.
  CERecognizer(const KnowledgeBase* kb, RecognizerConfig config);

  CERecognizer(const CERecognizer&) = delete;
  CERecognizer& operator=(const CERecognizer&) = delete;

  /// Feeds one critical point (possibly delayed) into the working memory.
  void Feed(const tracker::CriticalPoint& cp);

  /// Feeds a run of critical points in order. In the Figure 11(b) mode,
  /// consecutive points of a run mostly share a spatial-index cell, so the
  /// closeness lookups behind their fact groups hit the knowledge base's
  /// locality cache.
  void Feed(std::span<const tracker::CriticalPoint> cps);

  /// Runs recognition at query time `q`.
  rtec::RecognitionResult Recognize(Timestamp q);

  const MaritimeSchema& schema() const { return schema_; }
  rtec::Engine& engine() { return *engine_; }
  const rtec::Engine& engine() const { return *engine_; }
  const MeFeedStats& feed_stats() const { return feed_stats_; }
  const KnowledgeBase& knowledge() const { return *kb_; }

  /// Renders a recognized CE in a log-friendly form, e.g.
  /// "illegalShipping(area=12, vessel=205) @ 3600" or
  /// "suspicious(area=3)=true (7200,9000]".
  std::string Describe(const rtec::RecognizedEvent& e) const;
  std::string Describe(const rtec::RecognizedFluent& f) const;

  // --- checkpointing -------------------------------------------------------
  /// Serializes the recognizer's cross-slide state: the spatial-fact table,
  /// the full RTEC engine state (see rtec::Engine::SaveTo), and the feed
  /// counters. Call between slides.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a recognizer built with the same knowledge base and
  /// config; the engine's schema fingerprint guards against mismatches.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  const KnowledgeBase* kb_;
  RecognizerConfig config_;
  SpatialFactTable facts_;
  std::vector<int32_t> close_scratch_;  ///< One fact group, reused per Feed.
  std::unique_ptr<rtec::Engine> engine_;
  MaritimeSchema schema_;
  MeFeedStats feed_stats_;
};

/// Distributed CE recognition (paper Section 5.2): the monitored region is
/// split into longitude bands; each partition gets its own RTEC engine with
/// only the areas located in its band, input MEs are routed by vessel
/// location, and the partitions recognize in parallel on the shared thread
/// pool (long-lived workers, not per-call threads).
class PartitionedRecognizer {
 public:
  /// Splits `kb`'s areas into `partitions` longitude bands of roughly equal
  /// area count. `partitions` >= 1. `pool` defaults to the process-wide
  /// shared pool and must outlive the recognizer.
  PartitionedRecognizer(const KnowledgeBase& kb, RecognizerConfig config,
                        int partitions, common::ThreadPool* pool = nullptr);

  /// Routes a critical point to the partition covering its position.
  void Feed(const tracker::CriticalPoint& cp);

  /// Routes a run of critical points, point by point (order preserved per
  /// partition).
  void Feed(std::span<const tracker::CriticalPoint> cps);

  /// Recognizes on all partitions in parallel; returns one result per
  /// partition.
  std::vector<rtec::RecognitionResult> Recognize(Timestamp q);

  /// Lifetime recognition totals, summed over partitions and query times.
  struct RecognizeTotals {
    size_t recognize_calls = 0;   ///< Recognize() invocations.
    size_t recognized_items = 0;  ///< CE instances/intervals produced.
    size_t input_events = 0;      ///< MEs (and SFs) considered in-window.
    size_t cache_hits = 0;        ///< Incremental-engine key reuses.
    size_t cache_misses = 0;      ///< Keys whose rules were (re-)run.
    size_t cache_evictions = 0;   ///< Cache entries dropped with their key.
    /// Dependency-scoped dirty propagation telemetry (DESIGN.md §14): regen
    /// spans narrowed below the fleet floor, and cross-key regions that fell
    /// back to the fleet-wide `DirtyMap::any` floor.
    size_t spans_narrowed = 0;
    size_t fleet_floor_hits = 0;
    // Slide-arena allocation telemetry, summed over the partitions' engines
    // (see rtec::EngineAllocStats and DESIGN.md §10).
    uint64_t arena_bytes = 0;      ///< Arena bytes bumped, all slides.
    uint64_t arena_chunks = 0;     ///< Arena chunks currently reserved.
    uint64_t fallback_allocs = 0;  ///< Large-object heap fallbacks, ever.
  };
  RecognizeTotals totals() const;

  int partition_count() const { return static_cast<int>(parts_.size()); }
  CERecognizer& partition(int i) { return *parts_[static_cast<size_t>(i)].rec; }

  // --- checkpointing -------------------------------------------------------
  /// Serializes every partition (band bound + recognizer state) and the
  /// cumulative totals. Call between slides, never during Recognize.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a recognizer partitioned the same way over the same
  /// knowledge base (partition count and band bounds are verified;
  /// InvalidArgument on mismatch).
  Status RestoreFrom(snapshot::Reader& r);

 private:
  struct Partition {
    double min_lon;  ///< Inclusive lower bound of the band.
    std::unique_ptr<KnowledgeBase> kb;
    std::unique_ptr<CERecognizer> rec;
  };
  size_t PartitionFor(const geo::GeoPoint& p) const;
  common::ThreadPool* pool_;
  std::vector<Partition> parts_;  // sorted by min_lon ascending
  // Cumulative counters, added on the calling thread once every
  // partition's task has returned.
  uint64_t recognize_calls_ = 0;
  uint64_t recognized_items_ = 0;
  uint64_t input_events_ = 0;
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_RECOGNIZER_H_
