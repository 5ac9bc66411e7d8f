#ifndef MARITIME_TRACKER_PARAMS_H_
#define MARITIME_TRACKER_PARAMS_H_

#include "common/status.h"
#include "common/time.h"

namespace maritime::tracker {

/// Calibrated mobility-tracking parameters (paper Table 3). Defaults are the
/// paper's bold defaults; Δθ is swept over {5°, 10°, 15°, 20°} by the
/// compression/accuracy experiments (Figures 8 and 9).
struct TrackerParams {
  /// v_min: minimum speed for asserting movement — below it the vessel is
  /// practically immobile (paper default: 1 knot).
  double min_speed_knots = 1.0;

  /// Upper speed bound of a "slow motion" episode. The paper uses a single
  /// low-speed notion; we expose the slow-motion bound separately so that
  /// trawling-speed fishing vessels (2–4 kn) register as slowMotion MEs
  /// while v_min keeps its collision with pause detection. Documented in
  /// DESIGN.md.
  double slow_speed_knots = 4.0;

  /// α: rate of speed change (fraction, paper default 25%).
  double speed_change_ratio = 0.25;

  /// ΔT: minimum silence before a communication gap is reported
  /// (paper default: 10 minutes).
  Duration gap_period = 10 * kMinute;

  /// Δθ: heading change (degrees) that qualifies as a turn (paper default
  /// for the aggressive data-reduction setting: 5°).
  double turn_threshold_deg = 5.0;

  /// r: radius for long-term stops (paper default: 200 meters).
  double stop_radius_m = 200.0;

  /// m: number of most recent positions inspected by long-lasting event
  /// detection (paper default: 10).
  int history_size = 10;

  /// Off-course outlier detection: a sample is an outlier when the velocity
  /// it implies deviates from the mean velocity over the last m positions by
  /// more than max(outlier_min_speed_knots,
  ///              outlier_speed_factor * mean speed).
  double outlier_speed_factor = 3.0;
  double outlier_min_speed_knots = 30.0;

  /// After this many consecutive outliers the tracker concludes the vessel
  /// really did jump (e.g. corrected GPS fix) and resets its motion state.
  int outlier_reset_count = 3;

  Status Validate() const;
};

}  // namespace maritime::tracker

#endif  // MARITIME_TRACKER_PARAMS_H_
