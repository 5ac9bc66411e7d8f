// Checkpoint/restore of the whole surveillance pipeline, plus the replay
// driver that resumes a restored run. The snapshot is a sequence of framed
// sections (manifest, tracker, recognizer, pipeline window, archiver) inside
// the checksummed container of snapshot/snapshot.h; DESIGN.md §9 documents
// the layout and the bit-identical-recovery argument.

#include <utility>
#include <vector>

#include "maritime/pipeline.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "tracker/snapshot_io.h"

namespace maritime::surveillance {
namespace {

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kManifestTag = FourCc('M', 'A', 'N', 'I');
constexpr uint32_t kTrackerTag = FourCc('T', 'R', 'K', 'S');
constexpr uint32_t kRecognizerTag = FourCc('R', 'C', 'G', 'P');
constexpr uint32_t kPipelineTag = FourCc('P', 'I', 'P', 'E');
constexpr uint32_t kArchiverTag = FourCc('A', 'R', 'C', 'H');

// v2 appends the dependency-scoped dirty-propagation counters; v1 snapshots
// still load (the counters read as zero).
constexpr uint8_t kManifestVersion = 2;
constexpr uint8_t kSectionVersion = 1;

void SaveManifest(const SnapshotManifest& m, snapshot::Writer& w) {
  const size_t section = w.BeginSection(kManifestTag, kManifestVersion);
  w.I64(m.last_query);
  w.I64(m.window.range);
  w.I64(m.window.slide);
  w.I32(m.partitions);
  w.I32(m.tracker_shards);
  w.Bool(m.archive);
  w.Bool(m.incremental_recognition);
  w.U64(m.window_critical_points);
  w.U64(m.archived_trips);
  w.U64(m.spans_narrowed);
  w.U64(m.fleet_floor_hits);
  w.EndSection(section);
}

Status LoadManifest(snapshot::Reader& r, SnapshotManifest* m) {
  uint8_t version = 0;
  size_t end = 0;
  if (!r.BeginSection(kManifestTag, kManifestVersion, &version, &end)) {
    return snapshot::SectionError(r, "snapshot manifest");
  }
  uint8_t archive = 0, incremental = 0;
  if (!r.Get(&m->last_query, &m->window.range, &m->window.slide,
             &m->partitions, &m->tracker_shards, &archive, &incremental,
             &m->window_critical_points, &m->archived_trips)) {
    return snapshot::CorruptionIn("snapshot manifest");
  }
  m->archive = archive != 0;
  m->incremental_recognition = incremental != 0;
  if (version >= 2 && !r.Get(&m->spans_narrowed, &m->fleet_floor_hits)) {
    return snapshot::CorruptionIn("snapshot manifest");
  }
  if (!r.EndSection(end)) {
    return snapshot::CorruptionIn("snapshot manifest");
  }
  return Status::OK();
}

}  // namespace

Result<SnapshotManifest> ReadSnapshotManifest(std::string_view payload) {
  snapshot::Reader r(payload);
  SnapshotManifest m;
  if (const Status s = LoadManifest(r, &m); !s.ok()) return s;
  return m;
}

void SurveillancePipeline::SaveTo(snapshot::Writer& w) const {
  // A snapshot is about as large as the previous one; 1/8 slack covers the
  // growth of a slide or two. Capacity never changes the bytes.
  const size_t begin = w.size();
  const size_t hint = last_save_bytes_.load(std::memory_order_relaxed);
  w.Reserve(begin + hint + hint / 8);

  SnapshotManifest m;
  m.last_query = last_query_;
  m.window = config_.window;
  m.partitions = config_.partitions;
  m.tracker_shards = config_.tracker_shards;
  m.archive = config_.archive;
  // The mode the engines resolved to (every partition resolves the same
  // config the same way), not the requested one: kAuto may mean either.
  m.incremental_recognition =
      recognizer_->partition(0).engine().options().incremental;
  m.window_critical_points = window_criticals_.size();
  m.archived_trips = archiver_ ? archiver_->store().trip_count() : 0;
  const PartitionedRecognizer::RecognizeTotals totals = recognizer_->totals();
  m.spans_narrowed = totals.spans_narrowed;
  m.fleet_floor_hits = totals.fleet_floor_hits;
  SaveManifest(m, w);

  size_t section = w.BeginSection(kTrackerTag, kSectionVersion);
  tracker_.SaveTo(w);
  w.EndSection(section);

  section = w.BeginSection(kRecognizerTag, kSectionVersion);
  recognizer_->SaveTo(w);
  w.EndSection(section);

  section = w.BeginSection(kPipelineTag, kSectionVersion);
  w.U64(window_criticals_.size());
  for (const auto& cp : window_criticals_) tracker::SaveCriticalPoint(cp, w);
  w.EndSection(section);

  section = w.BeginSection(kArchiverTag, kSectionVersion);
  w.Bool(archiver_ != nullptr);
  if (archiver_ != nullptr) archiver_->SaveTo(w);
  w.EndSection(section);
  last_save_bytes_.store(w.size() - begin, std::memory_order_relaxed);
}

Status SurveillancePipeline::RestoreFrom(snapshot::Reader& r) {
  SnapshotManifest m;
  if (const Status s = LoadManifest(r, &m); !s.ok()) return s;
  if (m.window.range != config_.window.range ||
      m.window.slide != config_.window.slide) {
    return Status::InvalidArgument("snapshot: pipeline window spec mismatch");
  }
  if (m.partitions != config_.partitions) {
    return Status::InvalidArgument(
        "snapshot: pipeline partition count mismatch");
  }
  if (m.tracker_shards != config_.tracker_shards) {
    return Status::InvalidArgument(
        "snapshot: pipeline tracker shard count mismatch");
  }
  if (m.archive != config_.archive) {
    return Status::InvalidArgument("snapshot: pipeline archive flag mismatch");
  }

  uint8_t version = 0;
  size_t end = 0;
  if (!r.BeginSection(kTrackerTag, kSectionVersion, &version, &end)) {
    return snapshot::SectionError(r, "tracker section");
  }
  if (const Status s = tracker_.RestoreFrom(r); !s.ok()) return s;
  if (!r.EndSection(end)) return snapshot::CorruptionIn("tracker section");

  if (!r.BeginSection(kRecognizerTag, kSectionVersion, &version, &end)) {
    return snapshot::SectionError(r, "recognizer section");
  }
  if (const Status s = recognizer_->RestoreFrom(r); !s.ok()) return s;
  if (!r.EndSection(end)) return snapshot::CorruptionIn("recognizer section");

  if (!r.BeginSection(kPipelineTag, kSectionVersion, &version, &end)) {
    return snapshot::SectionError(r, "pipeline section");
  }
  window_criticals_.clear();
  uint64_t n = 0;
  if (!r.Count(&n, tracker::kCriticalPointBytes)) {
    return snapshot::CorruptionIn("pipeline section");
  }
  // Only the archiver drains the window's points, so a pipeline without
  // one keeps none; an archive-off snapshot of an older build still lists
  // them, and they are skipped.
  bool ok = true;
  if (archiver_ == nullptr) {
    ok = r.Skip(n * tracker::kCriticalPointBytes);
  } else {
    for (uint64_t i = 0; ok && i < n; ++i) {
      ok = tracker::LoadCriticalPoint(r, &window_criticals_.emplace_back());
    }
  }
  if (!ok || !r.EndSection(end)) {
    window_criticals_.clear();
    return snapshot::CorruptionIn("pipeline section");
  }

  if (!r.BeginSection(kArchiverTag, kSectionVersion, &version, &end)) {
    return snapshot::SectionError(r, "archiver section");
  }
  bool has_archiver = false;
  if (!r.Bool(&has_archiver)) {
    return snapshot::CorruptionIn("archiver section");
  }
  if (has_archiver != (archiver_ != nullptr)) {
    // Unreachable when the manifest's archive flag matched; defend anyway.
    return Status::InvalidArgument("snapshot: pipeline archiver mismatch");
  }
  if (archiver_ != nullptr) {
    if (const Status s = archiver_->RestoreFrom(r); !s.ok()) return s;
  }
  if (!r.EndSection(end)) return snapshot::CorruptionIn("archiver section");

  last_query_ = m.last_query;
  return Status::OK();
}

Status SurveillancePipeline::SaveSnapshot(const std::string& path) const {
  snapshot::Writer w;
  SaveTo(w);
  return snapshot::WriteSnapshotFile(path, w.bytes());
}

Status SurveillancePipeline::LoadSnapshot(const std::string& path) {
  Result<std::string> payload = snapshot::ReadSnapshotFile(path);
  if (!payload.ok()) return payload.status();
  snapshot::Reader r(payload.value());
  if (const Status s = RestoreFrom(r); !s.ok()) return s;
  if (!r.AtEnd()) {
    return Status::Corruption("snapshot: trailing bytes after pipeline state");
  }
  return Status::OK();
}

void SurveillancePipeline::Resume(
    stream::StreamReplayer& replayer,
    const std::function<void(const SlideReport&)>& on_slide) {
  if (last_query_ == kInvalidTimestamp) {
    // Nothing restored: a resume from the beginning is just a run.
    Run(replayer, on_slide);
    return;
  }
  const Timestamp last = replayer.last_timestamp();
  if (last == kInvalidTimestamp) return;
  // Skip the stream prefix the saved run already consumed. The query-time
  // sequence is arithmetic (origin + k * slide), so seeding it with the
  // saved query time continues the exact sequence of the uninterrupted run.
  replayer.Reset();
  replayer.NextBatch(last_query_);
  if (last_query_ < last) {
    // The shared drive loop runs the remaining slides exactly as Run would
    // have.
    stream::QueryTimeSequence queries(config_.window, last_query_);
    DriveLoop(replayer, queries, last, on_slide);
    return;
  }
  const SlideReport flush = Finish();
  if (on_slide && !flush.recognition.empty()) on_slide(flush);
}

}  // namespace maritime::surveillance
