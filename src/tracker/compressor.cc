#include "tracker/compressor.h"

#include <algorithm>

namespace maritime::tracker {

void Compressor::Compress(std::vector<CriticalPoint>* batch,
                          uint64_t raw_count) {
  std::vector<CriticalPoint>& points = *batch;
  std::stable_sort(points.begin(), points.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
                     return a.tau < b.tau;
                   });
  // Coalesce entries sharing (mmsi, tau) into one annotated point, the
  // first of each run; the write cursor never passes the read cursor.
  size_t kept = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const CriticalPoint& cp = points[i];
    if (kept > 0 && points[kept - 1].mmsi == cp.mmsi &&
        points[kept - 1].tau == cp.tau) {
      points[kept - 1].flags |= cp.flags;
      points[kept - 1].duration = std::max(points[kept - 1].duration,
                                           cp.duration);
      continue;
    }
    points[kept++] = cp;
  }
  points.resize(kept);
  // Re-sort into stream order (time-major) for downstream consumers.
  std::stable_sort(points.begin(), points.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.tau != b.tau) return a.tau < b.tau;
                     return a.mmsi < b.mmsi;
                   });
  stats_.raw_positions += raw_count;
  stats_.critical_points += points.size();
}

}  // namespace maritime::tracker
