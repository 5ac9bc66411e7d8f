#ifndef MARITIME_MARITIME_PIPELINE_H_
#define MARITIME_MARITIME_PIPELINE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "maritime/knowledge.h"
#include "maritime/recognizer.h"
#include "mod/hermes.h"
#include "stream/replayer.h"
#include "stream/sliding_window.h"
#include "tracker/sharded_tracker.h"

namespace maritime::surveillance {

/// End-to-end configuration of the surveillance system (Figure 1).
struct PipelineConfig {
  /// Sliding window (range ω, slide β) shared by online tracking and CE
  /// recognition.
  stream::WindowSpec window{kHour, 10 * kMinute};
  tracker::TrackerParams tracker;
  CeOptions ce;
  /// Number of CE-recognition partitions (1 = single processor; 2
  /// reproduces the paper's distributed setting).
  int partitions = 1;
  /// Number of MMSI-hashed mobility-tracker shards processed concurrently
  /// on the shared thread pool. 1 reproduces the serial tracker bit for
  /// bit; any shard count yields the identical critical-point sequence.
  int tracker_shards = 1;
  /// Enable the offline archival path (staging → reconstruction → loading
  /// into the trajectory store).
  bool archive = true;
  /// RTEC engine selection (kAuto picks from the window shape); passed
  /// through to RecognizerConfig::engine. Every mode yields bit-identical
  /// CEs.
  EngineMode recognition_engine = EngineMode::kNaive;
  /// Thread pool for tracker shards and partition recognition. nullptr
  /// (default) uses the process-wide shared pool; benches inject local pools
  /// to sweep worker counts in one process. Must outlive the pipeline.
  common::ThreadPool* pool = nullptr;
};

/// What happened during one window slide.
struct SlideReport {
  Timestamp query_time = 0;
  size_t raw_positions = 0;  ///< Fresh positions consumed this slide.
  /// Critical points emitted this slide, in stream order: the recognizer's
  /// input and, lagged by ω, the archive's.
  std::vector<tracker::CriticalPoint> critical_points;
  /// Recognition output, one entry per partition.
  std::vector<rtec::RecognitionResult> recognition;
  double tracking_seconds = 0.0;
  double recognition_seconds = 0.0;
  /// Per-tracker-shard wall time and volume for this slide (size =
  /// config.tracker_shards).
  std::vector<tracker::ShardSlideStats> shard_stats;
  /// True for the synthetic report Finish() produces when flushing the
  /// tracker tail at end of stream.
  bool final_flush = false;
};

/// Inspectable summary at the head of every pipeline snapshot: the config
/// fingerprint the restore will be checked against, where the run stood, and
/// rough size indicators. Readable without a KnowledgeBase (see
/// ReadSnapshotManifest), so a checkpoint CLI can describe a snapshot file
/// cheaply.
struct SnapshotManifest {
  Timestamp last_query = kInvalidTimestamp;
  stream::WindowSpec window{0, 0};
  int32_t partitions = 0;
  int32_t tracker_shards = 0;
  bool archive = false;
  /// The engine mode partition 0 resolved to (descriptive: the engine
  /// section itself rejects a restore under a different mode).
  bool incremental_recognition = false;
  uint64_t window_critical_points = 0;  ///< Awaiting archival.
  uint64_t archived_trips = 0;          ///< In the trajectory store.
  /// Dependency-scoped dirty-propagation telemetry summed over the
  /// recognizer partitions (added in manifest v2, the only version read).
  uint64_t spans_narrowed = 0;
  uint64_t fleet_floor_hits = 0;

  bool operator==(const SnapshotManifest&) const = default;
};

/// Decodes only the manifest section of a snapshot payload (the bytes after
/// the file header, i.e. what DecodeSnapshotFile returns).
Result<SnapshotManifest> ReadSnapshotManifest(std::string_view payload);

/// The complete processing scheme of Figure 1: Data-Scanner output (a
/// positional stream) flows through the Mobility Tracker and Compressor into
/// critical points, which feed both the Complex Event Recognition module and
/// (lagged by ω, so online and offline state never overlap) the offline
/// archival path into the trajectory store.
class SurveillancePipeline {
 public:
  /// `kb` must outlive the pipeline.
  SurveillancePipeline(const KnowledgeBase* kb, PipelineConfig config);

  /// Processes the fresh positions of the slide ending at query time `q`
  /// (their tau must be <= q): tracks them, feeds the critical points to the
  /// recognizer, recognizes CEs at `q`, and archives what left the window.
  SlideReport RunSlide(Timestamp q,
                       std::span<const stream::PositionTuple> batch);

  /// Replays an entire recorded stream, sliding the window in step with the
  /// reported timestamps; invokes `on_slide` (if set) after every slide and
  /// once more for the end-of-stream flush when it produced recognition.
  void Run(stream::StreamReplayer& replayer,
           const std::function<void(const SlideReport&)>& on_slide = nullptr);

  /// Closes open episodes, feeds the tracker's tail critical points to the
  /// recognizer, runs one final recognition past the last query time (so
  /// complex events completing in the last partial window are not dropped),
  /// and archives everything still pending. Returns what the flush did.
  SlideReport Finish();

  const tracker::ShardedMobilityTracker& mobility_tracker() const {
    return tracker_;
  }
  /// Compression counters aggregated over all tracker shards.
  tracker::CompressionStats compression_stats() const {
    return tracker_.compression_stats();
  }
  PartitionedRecognizer& recognizer() { return *recognizer_; }
  const mod::HermesArchiver* archiver() const { return archiver_.get(); }
  const PipelineConfig& config() const { return config_; }

  // --- checkpointing -------------------------------------------------------
  /// Serializes the full pipeline state at a slide boundary (call only
  /// between RunSlide calls, never mid-slide): manifest, tracker shards, the
  /// recognizer partitions with their RTEC engines, the window of critical
  /// points awaiting archival, and the archival path. A pipeline restored
  /// from this state produces bit-identical SlideReports for every
  /// subsequent slide.
  void SaveTo(snapshot::Writer& w) const;
  /// Restores into a pipeline built with the same KnowledgeBase and an
  /// equivalent PipelineConfig (window, partitions, tracker shards, archive
  /// flag and each engine's resolved mode are verified — InvalidArgument on
  /// mismatch; malformed input, including a manifest that does not describe
  /// the state after it, yields Corruption, and a format version this build
  /// does not read Unimplemented).
  Status RestoreFrom(snapshot::Reader& r);

  /// Writes the state to `path` as a checksummed snapshot file.
  Status SaveSnapshot(const std::string& path) const;
  /// Restores from a snapshot file written by SaveSnapshot.
  Status LoadSnapshot(const std::string& path);

  /// Continues a replay from the restored position: skips the stream prefix
  /// already consumed before the snapshot (tuples at or before the saved
  /// query time) and processes the remaining slides exactly as Run would
  /// have. On a pipeline that has not restored (or run) anything, this is
  /// identical to Run.
  void Resume(stream::StreamReplayer& replayer,
              const std::function<void(const SlideReport&)>& on_slide =
                  nullptr);

 private:
  void ArchiveEvicted(Timestamp q);
  /// The manifest SaveTo writes: the config fingerprint and the state's
  /// descriptors.
  SnapshotManifest Manifest() const;
  /// Runs RunSlide for every query time up to `last`, then the end-of-stream
  /// flush: the shared replay loop of Run and Resume.
  void DriveLoop(stream::StreamReplayer& replayer,
                 stream::QueryTimeSequence& queries, Timestamp last,
                 const std::function<void(const SlideReport&)>& on_slide);

  const KnowledgeBase* kb_;
  PipelineConfig config_;
  common::ThreadPool* pool_;  ///< config_.pool or the shared pool.
  tracker::ShardedMobilityTracker tracker_;
  std::unique_ptr<PartitionedRecognizer> recognizer_;
  std::unique_ptr<mod::HermesArchiver> archiver_;
  Timestamp last_query_ = kInvalidTimestamp;
  /// Critical points not yet evicted from the window, awaiting archival
  /// (so always empty without an archiver).
  std::deque<tracker::CriticalPoint> window_criticals_;
  /// Payload bytes the last SaveTo wrote; the next one presizes its Writer
  /// from it so the buffer is not regrown (and recopied) about 13 times on
  /// the way to a ~2 MB snapshot. Derived state: never serialized, so a
  /// restored pipeline starts at 0. Relaxed atomic because SaveTo is const.
  mutable std::atomic<size_t> last_save_bytes_{0};
};

}  // namespace maritime::surveillance

#endif  // MARITIME_MARITIME_PIPELINE_H_
