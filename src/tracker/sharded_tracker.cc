#include "tracker/sharded_tracker.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/check.h"

namespace maritime::tracker {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stream order over coalesced critical points. Keys are unique across the
/// merged outputs (one vessel lives in one shard; each shard's Compress
/// leaves at most one point per (mmsi, tau)), so this comparator induces a
/// single deterministic sequence at any shard count.
bool StreamOrder(const CriticalPoint& a, const CriticalPoint& b) {
  if (a.tau != b.tau) return a.tau < b.tau;
  return a.mmsi < b.mmsi;
}

/// The ProcessSlide contract: merged output strictly increasing by
/// (tau, mmsi) — duplicate keys would mean a vessel leaked into two shards
/// or a shard emitted uncoalesced points.
bool StrictlyStreamOrdered(const std::vector<CriticalPoint>& points) {
  for (size_t i = 1; i < points.size(); ++i) {
    if (!StreamOrder(points[i - 1], points[i])) return false;
  }
  return true;
}

}  // namespace

ShardedMobilityTracker::ShardedMobilityTracker(TrackerParams params,
                                               int shards,
                                               common::ThreadPool* pool)
    : pool_(pool) {
  assert(shards >= 1);
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.emplace_back(params);
}

std::vector<CriticalPoint> ShardedMobilityTracker::ProcessSlide(
    std::span<const stream::PositionTuple> batch, Timestamp query_time,
    std::vector<ShardSlideStats>* per_shard) {
  const size_t n = shards_.size();
  if (per_shard != nullptr) {
    per_shard->assign(n, ShardSlideStats{});
  }
  if (n > 1) {
    for (const stream::PositionTuple& tuple : batch) {
      shards_[ShardOf(tuple.mmsi)].inbox.push_back(tuple);
    }
  }
  const auto run_shard = [&](size_t i) {
    Shard& s = shards_[i];
    const std::span<const stream::PositionTuple> tuples =
        n == 1 ? batch : std::span<const stream::PositionTuple>(s.inbox);
    const double t0 = NowSeconds();
    s.slide_out.clear();
    s.tracker.ProcessBatch(tuples, &s.slide_out);
    s.tracker.AdvanceTo(query_time, &s.slide_out);
    s.compressor.Compress(&s.slide_out, tuples.size());
    if (per_shard != nullptr) {
      ShardSlideStats& st = (*per_shard)[i];
      st.seconds = NowSeconds() - t0;
      st.tuples = tuples.size();
      st.critical_points = s.slide_out.size();
    }
    s.inbox.clear();
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(n, run_shard);
  } else {
    for (size_t i = 0; i < n; ++i) run_shard(i);
  }
  ++slides_;

  // Merge barrier: per-shard outputs are already in stream order; a single
  // sort over the concatenation yields the canonical sequence. The result
  // is a copy, so the shard buffers keep their capacity.
  if (n == 1) {
    MARITIME_DCHECK(StrictlyStreamOrdered(shards_[0].slide_out));
    return shards_[0].slide_out;
  }
  std::vector<CriticalPoint> merged;
  size_t total = 0;
  for (const Shard& s : shards_) total += s.slide_out.size();
  merged.reserve(total);
  for (const Shard& s : shards_) {
    merged.insert(merged.end(), s.slide_out.begin(), s.slide_out.end());
  }
  std::sort(merged.begin(), merged.end(), StreamOrder);
  MARITIME_DCHECK(StrictlyStreamOrdered(merged));
  return merged;
}

void ShardedMobilityTracker::Finish(std::vector<CriticalPoint>* out) {
  std::vector<CriticalPoint> tail;
  for (Shard& s : shards_) s.tracker.Finish(&tail);
  // A vessel's closing points (stop end, last anchor) share its final tau;
  // stable_sort keeps their per-vessel emission order while making the
  // cross-vessel order independent of shard count and map iteration.
  std::stable_sort(tail.begin(), tail.end(), StreamOrder);
  out->insert(out->end(), tail.begin(), tail.end());
}

TrackerStats ShardedMobilityTracker::stats() const {
  TrackerStats total;
  for (const Shard& s : shards_) {
    const TrackerStats& t = s.tracker.stats();
    total.processed += t.processed;
    total.accepted += t.accepted;
    total.stale_discarded += t.stale_discarded;
    total.outliers_discarded += t.outliers_discarded;
    total.outlier_resets += t.outlier_resets;
    total.critical_points += t.critical_points;
  }
  return total;
}

CompressionStats ShardedMobilityTracker::compression_stats() const {
  CompressionStats total;
  for (const Shard& s : shards_) {
    total.raw_positions += s.compressor.stats().raw_positions;
    total.critical_points += s.compressor.stats().critical_points;
  }
  return total;
}

size_t ShardedMobilityTracker::vessel_count() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.tracker.vessel_count();
  return total;
}

const VesselState* ShardedMobilityTracker::FindVessel(
    stream::Mmsi mmsi) const {
  return shards_[ShardOf(mmsi)].tracker.FindVessel(mmsi);
}

double ShardedMobilityTracker::OdometerMeters(stream::Mmsi mmsi) const {
  return shards_[ShardOf(mmsi)].tracker.OdometerMeters(mmsi);
}

}  // namespace maritime::tracker
