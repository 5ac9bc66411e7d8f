// Checkpoint/restore of the whole surveillance pipeline, plus the replay
// driver that resumes a restored run. The snapshot is a sequence of framed
// sections (manifest, tracker, recognizer, pipeline window, archiver) inside
// the checksummed container of snapshot/snapshot.h. Each frame reads the
// one version SaveTo writes; DESIGN.md §9 documents the layout, the versions
// each component record reads and the bit-identical-recovery argument.

#include <string_view>
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

// v2 appended the dependency-scoped dirty-propagation counters.
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
  constexpr std::string_view kWhat = "snapshot manifest";
  size_t end = 0;
  if (const Status s = r.BeginSection(kManifestTag, kManifestVersion, kWhat,
                                      &end);
      !s.ok()) {
    return s;
  }
  uint8_t archive = 0, incremental = 0;
  if (!r.Get(&m->last_query, &m->window.range, &m->window.slide,
             &m->partitions, &m->tracker_shards, &archive, &incremental,
             &m->window_critical_points, &m->archived_trips,
             &m->spans_narrowed, &m->fleet_floor_hits) ||
      !r.Flag(archive, &m->archive) ||
      !r.Flag(incremental, &m->incremental_recognition) ||
      !r.EndSection(end)) {
    return snapshot::CorruptionIn(kWhat);
  }
  return Status::OK();
}

// Opens the frame `tag`, restores its body with `body`, and checks that
// the body consumed the frame exactly.
template <typename Body>
Status RestoreSection(snapshot::Reader& r, uint32_t tag, std::string_view what,
                      Body body) {
  size_t end = 0;
  Status s = r.BeginSection(tag, kSectionVersion, what, &end);
  if (s.ok()) s = body();
  if (s.ok() && !r.EndSection(end)) s = snapshot::CorruptionIn(what);
  return s;
}

}  // namespace

Result<SnapshotManifest> ReadSnapshotManifest(std::string_view payload) {
  snapshot::Reader r(payload);
  SnapshotManifest m;
  if (const Status s = LoadManifest(r, &m); !s.ok()) return s;
  return m;
}

SnapshotManifest SurveillancePipeline::Manifest() const {
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
  return m;
}

void SurveillancePipeline::SaveTo(snapshot::Writer& w) const {
  // A snapshot is about as large as the previous one; 1/8 slack covers the
  // growth of a slide or two. Capacity never changes the bytes.
  const size_t begin = w.size();
  const size_t hint = last_save_bytes_.load(std::memory_order_relaxed);
  w.Reserve(begin + hint + hint / 8);

  SaveManifest(Manifest(), w);

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

  Status s = RestoreSection(r, kTrackerTag, "tracker section",
                            [&] { return tracker_.RestoreFrom(r); });
  if (s.ok()) {
    s = RestoreSection(r, kRecognizerTag, "recognizer section",
                       [&] { return recognizer_->RestoreFrom(r); });
  }
  if (s.ok()) {
    s = RestoreSection(r, kPipelineTag, "pipeline section", [&] {
      window_criticals_.clear();
      // Only the archiver drains the window's points, so a pipeline
      // without one keeps none, and its snapshot lists none.
      uint64_t n = 0;
      bool ok = r.Count(&n, tracker::kCriticalPointBytes) &&
                (archiver_ != nullptr || n == 0);
      for (uint64_t i = 0; ok && i < n; ++i) {
        ok = tracker::LoadCriticalPoint(r, &window_criticals_.emplace_back());
      }
      return ok ? Status::OK() : snapshot::CorruptionIn("pipeline section");
    });
  }
  if (s.ok()) {
    s = RestoreSection(r, kArchiverTag, "archiver section", [&] {
      bool has_archiver = false;
      if (!r.Bool(&has_archiver)) {
        return snapshot::CorruptionIn("archiver section");
      }
      if (has_archiver != (archiver_ != nullptr)) {
        // Unreachable when the manifest's archive flag matched.
        return Status::InvalidArgument("snapshot: pipeline archiver mismatch");
      }
      return archiver_ ? archiver_->RestoreFrom(r) : Status::OK();
    });
  }
  if (!s.ok()) {
    window_criticals_.clear();
    return s;
  }

  last_query_ = m.last_query;
  // SaveTo derives the manifest from the state, so it must describe it.
  if (Manifest() == m) return Status::OK();
  last_query_ = kInvalidTimestamp;
  return snapshot::CorruptionIn("snapshot manifest (not the state's)");
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
