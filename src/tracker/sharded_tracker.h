#ifndef MARITIME_TRACKER_SHARDED_TRACKER_H_
#define MARITIME_TRACKER_SHARDED_TRACKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
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

  /// Processes one slide: tracks `batch` (fresh positions in stream order),
  /// runs AdvanceTo(query_time) and compresses, with one task per shard on
  /// the pool, and returns the merged critical points in stream order. With
  /// one shard the batch is tracked in place; with more, the caller thread
  /// scatters it by MMSI into the shards' reused inboxes first, keeping each
  /// shard's tuples in batch order. `per_shard` (optional) receives one
  /// timing entry per shard.
  std::vector<CriticalPoint> ProcessSlide(
      std::span<const stream::PositionTuple> batch, Timestamp query_time,
      std::vector<ShardSlideStats>* per_shard = nullptr);

  /// Flushes open episodes of every shard at end of stream; the emitted tail
  /// is sorted in stream order so the sequence does not depend on the shard
  /// count (or on unordered_map iteration order).
  void Finish(std::vector<CriticalPoint>* out);

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
  /// Serializes every shard's tracker + compressor, the slide count and the
  /// compressors' summed totals (format v2). The tracker holds no inbound
  /// positions between calls, so any point between two ProcessSlide calls
  /// is a slide boundary.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a tracker constructed with the same params and shard
  /// count (shard-count mismatch is InvalidArgument: MMSI routing would
  /// scatter restored vessels to the wrong shards). Trailing totals other
  /// than the restored compressors' sums are Corruption. On any error the
  /// tracker is left empty, as constructed, never partly restored.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  struct Shard {
    explicit Shard(const TrackerParams& params) : tracker(params) {}
    MobilityTracker tracker;
    Compressor compressor;
    // Per-slide buffers, cleared but never shrunk, so a steady slide does
    // not allocate for them.
    std::vector<stream::PositionTuple> inbox;  ///< This shard's batch share.
    std::vector<CriticalPoint> slide_out;  ///< Raw, then compressed, output.
  };

  common::ThreadPool* pool_;
  std::vector<Shard> shards_;
  uint64_t slides_ = 0;  ///< ProcessSlide calls completed.
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_SHARDED_TRACKER_H_
