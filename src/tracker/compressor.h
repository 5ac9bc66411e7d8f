#ifndef MARITIME_TRACKER_COMPRESSOR_H_
#define MARITIME_TRACKER_COMPRESSOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "snapshot/codec.h"
#include "tracker/critical_point.h"

namespace maritime::tracker {

/// Aggregate compression statistics (paper Figure 9).
struct CompressionStats {
  uint64_t raw_positions = 0;     ///< Original relayed locations.
  uint64_t critical_points = 0;   ///< Points surviving as critical.

  /// Fraction of original locations discarded; close to 1 means strong
  /// reduction (the paper reports ~94%).
  double ratio() const {
    if (raw_positions == 0) return 0.0;
    return 1.0 - static_cast<double>(critical_points) /
                     static_cast<double>(raw_positions);
  }
};

/// The Compressor of Figure 1: takes the per-slide batch of trajectory
/// events emitted by the mobility tracker, coalesces multiple annotations of
/// the same vessel/time into single critical points, orders them in stream
/// order, and maintains compression statistics against the raw input volume.
///
/// (Outlier filtering happens upstream inside the MobilityTracker, which has
/// the velocity history needed to judge off-course positions.)
class Compressor {
 public:
  /// Coalesces and sorts one batch of critical points in place, so a caller
  /// that reuses the batch vector across slides keeps its capacity.
  /// `raw_count` is the number of raw positions the batch was derived from
  /// (for statistics).
  void Compress(std::vector<CriticalPoint>* batch, uint64_t raw_count);

  const CompressionStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CompressionStats{}; }

  // --- checkpointing ------------------------------------------------------
  void SaveTo(snapshot::Writer& w) const;
  Status RestoreFrom(snapshot::Reader& r);

 private:
  CompressionStats stats_;
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_COMPRESSOR_H_
