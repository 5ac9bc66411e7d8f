#ifndef MARITIME_TRACKER_SHARDED_TRACKER_H_
#define MARITIME_TRACKER_SHARDED_TRACKER_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "snapshot/codec.h"
#include "stream/position.h"
#include "tracker/compressor.h"
#include "tracker/critical_point.h"
#include "tracker/mobility_tracker.h"
#include "tracker/params.h"

namespace maritime::tracker {

/// Per-shard accounting for one window slide (the "threads axis" of the
/// paper's scalability experiments, Section 5.2).
struct ShardSlideStats {
  double seconds = 0.0;         ///< Wall time the shard's task took.
  size_t tuples = 0;            ///< Fresh positions routed to the shard.
  size_t critical_points = 0;   ///< Critical points the shard emitted.
};

/// Lifetime totals over every ProcessSlide call, summed across shards.
/// Accumulated concurrently by the shard tasks, so reads go through
/// `slide_totals()` under the tracker's stats mutex.
struct SlideTotals {
  size_t slides = 0;            ///< ProcessSlide calls completed.
  /// Sum of per-shard task wall time in this process: a snapshot does not
  /// carry it, so a restored tracker counts from zero.
  double busy_seconds = 0.0;
  size_t tuples = 0;            ///< Positions processed by all shards.
  size_t critical_points = 0;   ///< Critical points emitted by all shards.
};

/// Parallel mobility tracking by MMSI sharding. Per-vessel tracker state is
/// independent (MobilityTracker is "not thread-safe; partition vessels
/// across instances"), so the positional stream is hashed MMSI -> N shards,
/// each owning its own MobilityTracker + Compressor. A slide's batch is
/// processed with one task per shard on a shared ThreadPool; the per-shard
/// compressed outputs are then merged in stream (tau, mmsi) order.
///
/// The merged critical-point sequence is bit-identical at every shard count
/// (including 1, which reproduces the serial tracker exactly): coalescing
/// groups points by (mmsi, tau), a vessel lives in exactly one shard, and
/// the final ordering is a total order over the coalesced keys.
class ShardedMobilityTracker {
 public:
  /// `pool` may be nullptr (or the pool may have zero workers), in which
  /// case shards run serially on the calling thread. The pool must outlive
  /// the tracker.
  ShardedMobilityTracker(TrackerParams params, int shards,
                         common::ThreadPool* pool = nullptr);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const TrackerParams& params() const { return shards_.front().tracker.params(); }

  /// Shard owning `mmsi` (deterministic, platform-independent).
  size_t ShardOf(stream::Mmsi mmsi) const {
    return static_cast<size_t>(mmsi) % shards_.size();
  }

  /// Routes one fresh position into its shard's lock-free ring inbox as it
  /// arrives (single producer: one stream thread at a time). The tuple is
  /// processed by the next ProcessSlide / Finish call.
  void Ingest(const stream::PositionTuple& tuple) {
    shards_[ShardOf(tuple.mmsi)].ring->Push(tuple);
  }

  /// Processes one slide over everything Ingested since the previous slide:
  /// every shard's task drains its own ring inbox (no serial MMSI scatter on
  /// the caller thread), runs Process + AdvanceTo(query_time) + Compress
  /// concurrently, and returns the merged critical points in stream order.
  /// `per_shard` (optional) receives one timing entry per shard.
  std::vector<CriticalPoint> ProcessSlide(
      Timestamp query_time, std::vector<ShardSlideStats>* per_shard = nullptr);

  /// Convenience overload: Ingests `batch`, then runs the slide. Produces
  /// the identical critical-point sequence (ring order preserves the batch
  /// order within each shard).
  std::vector<CriticalPoint> ProcessSlide(
      std::span<const stream::PositionTuple> batch, Timestamp query_time,
      std::vector<ShardSlideStats>* per_shard = nullptr);

  /// Serial drop-in surface matching MobilityTracker, for callers that do
  /// their own batching. These bypass the pool and the compressors.
  void Process(const stream::PositionTuple& tuple,
               std::vector<CriticalPoint>* out);
  void AdvanceTo(Timestamp now, std::vector<CriticalPoint>* out);

  /// Flushes open episodes of every shard at end of stream; the emitted tail
  /// is sorted in stream order so the sequence does not depend on the shard
  /// count (or on unordered_map iteration order).
  void Finish(std::vector<CriticalPoint>* out);

  /// Lifetime totals across all ProcessSlide calls (thread-safe snapshot).
  SlideTotals slide_totals() const MARITIME_EXCLUDES(totals_mu_);

  /// Tracker counters summed over all shards.
  TrackerStats stats() const;
  /// Compression counters summed over all shards.
  CompressionStats compression_stats() const;

  size_t vessel_count() const;
  const VesselState* FindVessel(stream::Mmsi mmsi) const;
  double OdometerMeters(stream::Mmsi mmsi) const;

  /// Direct access to one shard's tracker (tests and diagnostics).
  const MobilityTracker& shard(int i) const {
    return shards_[static_cast<size_t>(i)].tracker;
  }

  // --- checkpointing ------------------------------------------------------
  /// Serializes every shard's tracker + compressor plus the slide totals
  /// (format v1). Precondition: called at a slide boundary — after
  /// ProcessSlide and before the next Ingest — so the ring inboxes are
  /// empty; positions ingested past the boundary belong to the next slide
  /// and are re-ingested by the replay driver.
  void SaveTo(snapshot::Writer& w) const MARITIME_EXCLUDES(totals_mu_);
  /// Restores into a tracker constructed with the same params and shard
  /// count (shard-count mismatch is InvalidArgument: MMSI routing would
  /// scatter restored vessels to the wrong shards).
  Status RestoreFrom(snapshot::Reader& r) MARITIME_EXCLUDES(totals_mu_);

 private:
  struct Shard {
    explicit Shard(const TrackerParams& params)
        : tracker(params),
          ring(std::make_unique<common::SpscQueue<stream::PositionTuple>>()) {}
    MobilityTracker tracker;
    Compressor compressor;
    /// Lock-free inbox filled by Ingest, drained by the shard's slide task
    /// (the pool barrier orders the hand-off between slides).
    std::unique_ptr<common::SpscQueue<stream::PositionTuple>> ring;
    // Per-slide buffers, cleared but never shrunk, so a steady slide does
    // not allocate for them.
    std::vector<stream::PositionTuple> inbox;  ///< Drained slide batch.
    std::vector<CriticalPoint> slide_out;  ///< Raw, then compressed, output.
  };

  common::ThreadPool* pool_;
  std::vector<Shard> shards_;
  /// Guards the cumulative counters: every shard task of a slide adds its
  /// own contribution, so the accumulation itself is cross-thread.
  mutable std::mutex totals_mu_;
  SlideTotals totals_ MARITIME_GUARDED_BY(totals_mu_);
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_SHARDED_TRACKER_H_
