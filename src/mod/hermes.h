#ifndef MARITIME_MOD_HERMES_H_
#define MARITIME_MOD_HERMES_H_

#include <deque>
#include <vector>

#include "mod/store.h"
#include "mod/trips.h"

namespace maritime::mod {

/// Wall-clock seconds spent in each offline phase (the stages of paper
/// Figure 10, excluding online tracking which is measured upstream). A
/// snapshot carries only `batches`: the seconds are this process's own, and
/// a restored archiver counts them from zero.
struct ArchiveTimings {
  double staging_s = 0.0;
  double reconstruction_s = 0.0;
  double loading_s = 0.0;
  uint64_t batches = 0;
};

/// The offline archival path of Figure 1: a staging area on "disk"
/// receiving delta critical points evicted from the sliding window, periodic
/// reconstruction of trips between ports, and loading of the reconstructed
/// segments into the trajectory store. Stands in for Hermes MOD on
/// PostgreSQL; the phases and their interfaces mirror the paper's pipeline
/// so Figure 10 can be reproduced.
///
/// Information archived here deliberately lags the live window by ω, so no
/// trajectory portion is ever duplicated between the online (in-memory) and
/// offline (archived) sides (paper Section 3.2).
class HermesArchiver {
 public:
  /// `kb` provides port polygons; must outlive the archiver.
  explicit HermesArchiver(const surveillance::KnowledgeBase* kb);

  /// Phase "staging": appends a batch of delta critical points (those just
  /// evicted from the window) to the staging area.
  void StageBatch(const std::vector<tracker::CriticalPoint>& batch);

  /// Phase "reconstruction": drains the staging area through the trip
  /// builder. Returns the number of trips completed by this batch.
  size_t Reconstruct();

  /// Phase "loading": inserts the reconstructed trips into the store.
  /// Returns the number of trips loaded.
  size_t Load();

  /// Convenience: staging + reconstruction + loading of one batch.
  void ArchiveBatch(const std::vector<tracker::CriticalPoint>& batch);

  const TrajectoryStore& store() const { return store_; }
  const ArchiveTimings& timings() const { return timings_; }

  /// Critical points awaiting assignment to a trip: staged but not yet
  /// reconstructed, plus open segments of still-sailing vessels.
  uint64_t pending_points() const;

  /// Table 4 statistics over the current archive.
  TripStatistics Statistics() const;

  // --- checkpointing -------------------------------------------------------
  /// Serializes the whole archival path: open trip segments, the staging
  /// area, reconstructed trips awaiting Load(), the trajectory store, and
  /// the phase timings (format v1).
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into an archiver over the same knowledge base. On error the
  /// archiver is left empty.
  Status RestoreFrom(snapshot::Reader& r);

 private:
  const surveillance::KnowledgeBase* kb_;
  TripBuilder builder_;
  std::deque<tracker::CriticalPoint> staging_;
  std::vector<Trip> reconstructed_;  ///< Awaiting Load().
  TrajectoryStore store_;
  ArchiveTimings timings_;
};

}  // namespace maritime::mod

#endif  // MARITIME_MOD_HERMES_H_
