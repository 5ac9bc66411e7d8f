// Checkpoint serialization of the tracking layer: MobilityTracker,
// Compressor, and ShardedMobilityTracker. Kept out of the hot-path
// translation units; the wire layout notes and the versions each record
// reads live in DESIGN.md §9.

#include <algorithm>
#include <vector>

#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"
#include "tracker/sharded_tracker.h"

namespace maritime::tracker {
namespace {

// v2: per-vessel rings plus stop aggregates (DESIGN.md §9).
constexpr uint8_t kTrackerFormatVersion = 2;
constexpr uint8_t kCompressorFormatVersion = 1;
// v2 dropped `busy_seconds`: a wall-clock reading made the same run write
// different bytes. v1 still restores, its reading discarded, because the
// committed fixture tests/data/checkpoint_6_slides.msnp holds it.
constexpr uint8_t kShardedFormatVersion = 2;
constexpr uint8_t kShardedOldestVersion = 1;

}  // namespace

void MobilityTracker::SaveTo(snapshot::Writer& w) const {
  w.U8(kTrackerFormatVersion);
  std::vector<const VesselState*> sorted;
  sorted.reserve(vessels_.size());
  for (const VesselState& vs : vessels_) sorted.push_back(&vs);
  std::sort(sorted.begin(), sorted.end(),
            [](const VesselState* a, const VesselState* b) {
              return a->mmsi < b->mmsi;
            });
  w.U64(sorted.size());
  for (const VesselState* vs : sorted) {
    w.U32(vs->mmsi);
    vs->SaveTo(w);
  }
  w.U64(stats_.processed);
  w.U64(stats_.accepted);
  w.U64(stats_.stale_discarded);
  w.U64(stats_.outliers_discarded);
  w.U64(stats_.outlier_resets);
  w.U64(stats_.critical_points);
}

void MobilityTracker::Clear() {
  vessels_.clear();
  slot_of_.clear();
  stats_ = TrackerStats{};
}

Status MobilityTracker::RestoreFrom(snapshot::Reader& r) {
  const auto fail = [this](Status s) {
    Clear();
    return s;
  };
  Clear();
  if (const Status s =
          snapshot::ReadVersion(r, kTrackerFormatVersion, "mobility tracker");
      !s.ok()) {
    return s;
  }
  uint64_t n = 0;
  if (!r.Count(&n, sizeof(uint32_t))) {
    return snapshot::CorruptionIn("mobility tracker");
  }
  vessels_.reserve(n);
  slot_of_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    stream::Mmsi mmsi = 0;
    if (!r.U32(&mmsi)) return fail(snapshot::CorruptionIn("mobility tracker"));
    // SaveTo writes each vessel once, in ascending MMSI order.
    if (!vessels_.empty() && vessels_.back().mmsi >= mmsi) {
      return fail(
          snapshot::CorruptionIn("mobility tracker (MMSIs out of order)"));
    }
    VesselState& vs = vessels_[SlotFor(mmsi)];
    if (const Status s = vs.RestoreFrom(r); !s.ok()) return fail(s);
    // Process resets an outlier run when it reaches outlier_reset_count.
    if (vs.consecutive_outliers < 0 ||
        vs.consecutive_outliers >= std::max(1, params_.outlier_reset_count)) {
      return fail(snapshot::CorruptionIn("mobility tracker (outlier run)"));
    }
  }
  const bool ok =
      r.Get(&stats_.processed, &stats_.accepted, &stats_.stale_discarded,
            &stats_.outliers_discarded, &stats_.outlier_resets,
            &stats_.critical_points);
  if (!ok) return fail(snapshot::CorruptionIn("mobility tracker"));
  return Status::OK();
}

void Compressor::SaveTo(snapshot::Writer& w) const {
  w.U8(kCompressorFormatVersion);
  w.U64(stats_.raw_positions);
  w.U64(stats_.critical_points);
}

Status Compressor::RestoreFrom(snapshot::Reader& r) {
  stats_ = CompressionStats{};
  if (const Status s =
          snapshot::ReadVersion(r, kCompressorFormatVersion, "compressor");
      !s.ok()) {
    return s;
  }
  if (!r.U64(&stats_.raw_positions) || !r.U64(&stats_.critical_points)) {
    stats_ = CompressionStats{};
    return snapshot::CorruptionIn("compressor");
  }
  return Status::OK();
}

void ShardedMobilityTracker::SaveTo(snapshot::Writer& w) const {
  w.U8(kShardedFormatVersion);
  w.U32(static_cast<uint32_t>(shards_.size()));
  for (const Shard& s : shards_) {
    s.tracker.SaveTo(w);
    s.compressor.SaveTo(w);
  }
  // The trailing totals are the compressors' sums: each slide adds the same
  // per-shard tuple and point counts to both.
  const CompressionStats totals = compression_stats();
  w.U64(slides_);
  w.U64(totals.raw_positions);
  w.U64(totals.critical_points);
}

Status ShardedMobilityTracker::RestoreFrom(snapshot::Reader& r) {
  // A failed restore leaves no shard restored: every shard, read or not,
  // goes back to empty, and so does the slide count (DESIGN.md §9).
  const auto fail = [this](Status s) {
    for (Shard& shard : shards_) {
      shard.tracker.Clear();
      shard.compressor.ResetStats();
    }
    slides_ = 0;
    return s;
  };
  uint8_t version = 0;
  if (const Status s =
          snapshot::ReadVersion(r, kShardedOldestVersion, kShardedFormatVersion,
                                "sharded tracker", &version);
      !s.ok()) {
    return fail(s);
  }
  uint32_t count = 0;
  if (!r.U32(&count)) return fail(snapshot::CorruptionIn("sharded tracker"));
  if (count != shards_.size()) {
    return fail(Status::InvalidArgument(
        "snapshot: shard count mismatch (MMSI routing would change)"));
  }
  for (Shard& s : shards_) {
    if (const Status st = s.tracker.RestoreFrom(r); !st.ok()) return fail(st);
    if (const Status st = s.compressor.RestoreFrom(r); !st.ok()) {
      return fail(st);
    }
  }
  // v1's busy time is discarded: this process counts its own.
  uint64_t slides = 0, tuples = 0, critical_points = 0;
  double v1_busy_seconds = 0.0;
  if (!r.U64(&slides) || (version < 2 && !r.F64(&v1_busy_seconds)) ||
      !r.U64(&tuples) || !r.U64(&critical_points)) {
    return fail(snapshot::CorruptionIn("sharded tracker"));
  }
  // SaveTo writes the compressors' sums here, so other totals are not its
  // bytes.
  const CompressionStats sums = compression_stats();
  if (tuples != sums.raw_positions || critical_points != sums.critical_points) {
    return fail(snapshot::CorruptionIn(
        "sharded tracker (totals differ from the compressors')"));
  }
  slides_ = slides;
  return Status::OK();
}

}  // namespace maritime::tracker
