// End-to-end benchmark of the surveillance system of paper Figure 1: tagged
// AIS NMEA lines -> DataScanner -> sharded MobilityTracker + Compressor ->
// partitioned RTEC CE recognition -> Hermes archival.
//
// The feed is generated from --seed (world, fleet simulation and NMEA
// encoding are not timed) and then replayed slide by slide as fast as the
// system goes: a closed loop, as in the paper's Figure 7 stress test. In a
// deployment slides arrive β apart and never queue, so a slide's service time
// is its alert latency. README.md lists the workloads, the metrics and which
// layer each metric should move.
//
//   maritime_bench --workload=<name> [--seed=N] [--seconds=S] [--scale=X]
//   maritime_bench_traced --workload=<name> ... [--trace=<file.json>]
//
// The untraced binary drives the public pipeline surface (RunSlide, Finish,
// SaveTo/RestoreFrom) and prints the end-to-end metrics. The traced binary
// (MARITIME_BENCH_TRACED) drives the layers directly, in the pipeline's
// commit order, with a span and a heap-allocation count around every layer
// call, and prints per-layer metrics. It alternates those replays with
// untraced pipeline replays that restart from a snapshot, and the CE digests
// of the two must agree. Every metric is printed as `metric <name> <value>
// <unit>`; the last line of output is one JSON object.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <malloc.h>

#include "ais/scanner.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "maritime/ais_bridge.h"
#include "maritime/pipeline.h"
#include "maritime/recognizer.h"
#include "mod/hermes.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "tracker/sharded_tracker.h"
#include "tracker/snapshot_io.h"

#ifndef MARITIME_BENCH_TRACED
#define MARITIME_BENCH_TRACED 0
#endif

// Heap-allocation counting (traced build only): global operator new counts
// every allocation of every thread. Sanitizers interpose operator new
// themselves, so the counters stay at zero there.
#if !MARITIME_BENCH_TRACED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define MARITIME_E2E_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MARITIME_E2E_COUNT_ALLOCS 0
#else
#define MARITIME_E2E_COUNT_ALLOCS 1
#endif
#else
#define MARITIME_E2E_COUNT_ALLOCS 1
#endif

namespace maritime::e2e {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace maritime::e2e

#if MARITIME_E2E_COUNT_ALLOCS
// new pairs with malloc and delete with free by construction; GCC's
// mismatched-new-delete heuristic cannot see that.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  maritime::e2e::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  maritime::e2e::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // MARITIME_E2E_COUNT_ALLOCS

namespace maritime::e2e {
namespace {

using surveillance::KnowledgeBase;
using surveillance::PartitionedRecognizer;
using surveillance::PipelineConfig;
using surveillance::SurveillancePipeline;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  sim::WorldParams world;
  sim::FleetConfig fleet;
  stream::WindowSpec window;
  int tracker_shards = 1;
  int partitions = 1;
  int pool_workers = 0;  ///< Pool threads besides the caller.
  bool spatial_facts = false;
  /// Checkpoint after every slide (inside the timed replay). Otherwise the
  /// checkpoint cost is probed only at the restart slide, outside the clock.
  bool checkpoint_every_slide = false;
};

// Why each workload exists is recorded in README.md; the short version:
//  - dense_serial: decoding + tracking dominate (~80% of slide time);
//  - dense_parallel: the same input on 4 threads (shards + partitions);
//  - long_window: a 9 h window over 165 areas with spatial facts, where
//    recognition dominates;
//  - checkpoint_restart: a snapshot after every slide, restart mid-stream.
std::optional<Workload> FindWorkload(std::string_view name, double scale) {
  Workload w;
  w.name = std::string(name);
  if (name == "dense_serial" || name == "dense_parallel") {
    w.fleet.vessels = 2000;
    w.fleet.duration = 24 * kHour;
    w.window = stream::WindowSpec{kHour, 5 * kMinute};
    if (name == "dense_parallel") {
      w.tracker_shards = 4;
      w.partitions = 2;
      w.pool_workers = 3;
    }
  } else if (name == "long_window") {
    w.world.protected_areas = 48;
    w.world.forbidden_fishing_areas = 48;
    w.world.shallow_areas = 44;
    w.world.port_separation_m = 12500.0;
    w.world.area_port_clearance_m = 6000.0;
    w.fleet.vessels = 600;
    w.fleet.duration = 24 * kHour;
    w.fleet.anchored_weight = 0.4;
    w.fleet.loiter_groups = 20;
    w.window = stream::WindowSpec{9 * kHour, kMinute};
    w.spatial_facts = true;
  } else if (name == "checkpoint_restart") {
    w.fleet.vessels = 600;
    w.fleet.duration = 24 * kHour;
    w.window = stream::WindowSpec{2 * kHour, 5 * kMinute};
    w.checkpoint_every_slide = true;
  } else {
    return std::nullopt;
  }
  const auto scaled = [scale](int n) {
    return std::max(1, static_cast<int>(std::lround(n * scale)));
  };
  w.fleet.vessels = std::max(10, scaled(w.fleet.vessels));
  w.fleet.loiter_groups = scaled(w.fleet.loiter_groups);
  return w;
}

// --- generated input (not timed) ---------------------------------------------

struct Line {
  size_t offset = 0;
  size_t length = 0;
  Timestamp tau = 0;
};

struct Feed {
  sim::World world;
  std::vector<sim::SimVessel> fleet;
  std::vector<stream::PositionTuple> tuples;  ///< What the lines encode.
  std::vector<uint8_t> dropped;  ///< Per tuple: 1 if its line is corrupted.
  uint64_t corrupted = 0;        ///< Lines with a corrupted checksum.
  std::string text;              ///< Tagged NMEA lines.
  std::vector<Line> lines;
  // One entry per slide: query time, and the end of its lines and tuples.
  std::vector<Timestamp> queries;
  std::vector<size_t> line_end;
  std::vector<size_t> tuple_end;

  std::string_view line(size_t i) const {
    return std::string_view(text).substr(lines[i].offset, lines[i].length);
  }
};

/// Corrupts 1% of the position reports that fit one sentence: one payload
/// character is flipped, as NmeaFeedOptions::corrupt_prob does, so the
/// checksum fails and the Data Scanner must drop the line. Fragments of
/// two-sentence messages (types 5 and 19) stay intact. When a first fragment
/// is lost, FragmentAssembler joins the orphaned second fragment to the next
/// message that reuses its sequence id, so which reports survive would depend
/// on the assembler's policy rather than on the input. Returns false if the
/// lines do not map one to one onto the simulated reports.
bool CorruptReports(uint64_t seed, Feed* f) {
  f->dropped.assign(f->tuples.size(), 0);
  // Text offset of the payload, and the tuple, of every single-sentence
  // report. A first fragment whose payload does not start a type 5 message
  // begins the next tuple's position report.
  std::vector<std::pair<size_t, size_t>> candidates;
  size_t tuple = 0;
  for (size_t i = 0; i < f->lines.size(); ++i) {
    // "<tau>\t!AIVDM,<total>,<index>,<seq>,<channel>,<payload>,<fill>*hh"
    const std::string_view line = f->line(i);
    std::string_view field[6];
    size_t pos = line.find('\t');
    for (std::string_view& out : field) {
      if (pos == std::string_view::npos) return false;
      const size_t comma = line.find(',', pos + 1);
      out = line.substr(pos + 1, comma - (pos + 1));
      pos = comma;
    }
    if (field[2] != "1" || field[5].empty() || field[5][0] == '5') continue;
    if (field[1] == "1") {
      candidates.emplace_back(
          static_cast<size_t>(field[5].data() - f->text.data()), tuple);
    }
    ++tuple;
  }
  if (tuple != f->tuples.size()) return false;

  Rng rng(seed);
  const size_t k = (candidates.size() + 50) / 100;
  for (size_t j = 0; j < k; ++j) {
    std::swap(candidates[j],
              candidates[j + rng.NextBelow(candidates.size() - j)]);
    f->text[candidates[j].first + rng.NextBelow(8)] ^= 0x1;
    f->dropped[candidates[j].second] = 1;
  }
  f->corrupted = k;
  return true;
}

std::optional<Feed> Generate(const Workload& w, uint64_t seed) {
  Feed f{sim::BuildWorld(seed, w.world), {}, {}, {}, 0, {}, {}, {}, {}, {}};
  sim::FleetConfig fleet = w.fleet;
  fleet.seed = seed + 1;
  sim::FleetSimulator simulator(&f.world, fleet);
  f.tuples = simulator.Generate();
  f.fleet = simulator.fleet();
  sim::NmeaFeedOptions nmea;
  nmea.seed = seed + 2;
  f.text = sim::EncodeTaggedNmeaFeed(f.tuples, f.fleet, nmea);

  for (size_t start = 0; start < f.text.size();) {
    size_t end = f.text.find('\n', start);
    if (end == std::string::npos) end = f.text.size();
    Line line{start, end - start, 0};
    std::from_chars(f.text.data() + start, f.text.data() + end, line.tau);
    f.lines.push_back(line);
    start = end + 1;
  }
  if (!CorruptReports(seed + 3, &f)) return std::nullopt;
  if (f.tuples.empty()) return f;

  // The query times of SurveillancePipeline::Run: origin + k·β up to and
  // including the first one at or past the last report.
  const Timestamp origin = f.tuples.front().tau;
  const Timestamp last = f.tuples.back().tau;
  size_t line = 0;
  size_t tuple = 0;
  for (Timestamp q = origin + w.window.slide;; q += w.window.slide) {
    while (line < f.lines.size() && f.lines[line].tau <= q) ++line;
    while (tuple < f.tuples.size() && f.tuples[tuple].tau <= q) ++tuple;
    f.queries.push_back(q);
    f.line_end.push_back(line);
    f.tuple_end.push_back(tuple);
    if (q >= last) break;
  }
  return f;
}

/// Set-up as a deployment does it: the knowledge base from the area and
/// vessel registries.
std::unique_ptr<KnowledgeBase> BuildKnowledge(const Feed& f) {
  auto kb =
      std::make_unique<KnowledgeBase>(f.world.params.close_threshold_m);
  for (const surveillance::AreaInfo& a : f.world.knowledge.areas()) {
    kb->AddArea(a);
  }
  for (const sim::SimVessel& v : f.fleet) kb->AddVessel(v.info);
  return kb;
}

PipelineConfig MakeConfig(const Workload& w, common::ThreadPool* pool) {
  PipelineConfig c;
  c.window = w.window;
  c.tracker_shards = w.tracker_shards;
  c.partitions = w.partitions;
  c.recognition_engine = surveillance::EngineMode::kAuto;
  c.ce.use_spatial_facts = w.spatial_facts;
  c.archive = true;
  c.pool = pool;
  return c;
}

/// Decodes lines [begin, end) into `batch` and merges the type 5 reports
/// into the knowledge base.
void DecodeSlide(const Feed& f, size_t begin, size_t end,
                 ais::DataScanner& scanner, KnowledgeBase& kb,
                 std::vector<stream::PositionTuple>* batch) {
  batch->clear();
  for (size_t i = begin; i < end; ++i) {
    Result<stream::PositionTuple> r = scanner.FeedTagged(f.line(i));
    if (r.ok()) batch->push_back(r.value());
  }
  surveillance::ApplyStaticReports(kb, scanner);
}

uint64_t RejectedLines(const ais::ScannerStats& s) {
  return s.framing_errors + s.fragment_errors + s.payload_errors +
         s.unsupported_type + s.invalid_position;
}

/// Lines the scanner judged wrongly: it must reject exactly the corrupted
/// ones (BatchMatchesSource checks which).
uint64_t MisjudgedLines(const ais::ScannerStats& s, uint64_t corrupted) {
  const uint64_t rejected = RejectedLines(s);
  return rejected > corrupted ? rejected - corrupted : corrupted - rejected;
}

/// The decoded batch must be exactly the simulated reports it encodes, less
/// the corrupted ones, up to the AIS coordinate quantum (1/10000 minute).
bool BatchMatchesSource(const Feed& f, size_t begin, size_t end,
                        const std::vector<stream::PositionTuple>& batch) {
  constexpr double kQuantumDeg = 1.0 / 600000.0;
  size_t next = 0;
  for (size_t i = begin; i < end; ++i) {
    if (f.dropped[i]) continue;
    if (next == batch.size()) return false;
    const stream::PositionTuple& want = f.tuples[i];
    const stream::PositionTuple& got = batch[next++];
    if (got.mmsi != want.mmsi || got.tau != want.tau ||
        std::fabs(got.pos.lon - want.pos.lon) > kQuantumDeg ||
        std::fabs(got.pos.lat - want.pos.lat) > kQuantumDeg) {
      return false;
    }
  }
  return next == batch.size();
}

/// FNV-1a over CERecognizer::Describe of every recognized fluent and event,
/// in slide, then partition, order.
class CeDigest {
 public:
  void AddSlide(Timestamp q,
                const std::vector<rtec::RecognitionResult>& partitions,
                PartitionedRecognizer& recognizer) {
    char tag[32];
    std::snprintf(tag, sizeof(tag), "Q%lld", static_cast<long long>(q));
    Add(tag);
    for (size_t p = 0; p < partitions.size(); ++p) {
      surveillance::CERecognizer& rec =
          recognizer.partition(static_cast<int>(p));
      std::snprintf(tag, sizeof(tag), "P%zu", p);
      Add(tag);
      for (const rtec::RecognizedFluent& fl : partitions[p].fluents) {
        Add(rec.Describe(fl));
      }
      for (const rtec::RecognizedEvent& ev : partitions[p].events) {
        Add(rec.Describe(ev));
      }
      items_ += partitions[p].RecognizedCount();
    }
  }
  uint64_t value() const { return hash_; }
  uint64_t items() const { return items_; }

 private:
  void Add(std::string_view s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;
    }
    hash_ ^= '\n';
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
  uint64_t items_ = 0;
};

/// Heap bytes in use (0 off glibc). RSS is not used: it hides the system's
/// state behind the pages the allocator kept from feed generation.
size_t HeapBytesInUse() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
#else
  return 0;
#endif
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

[[maybe_unused]] double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Sum(const std::vector<double>& v) {
  double out = 0.0;
  for (const double x : v) out += x;
  return out;
}

/// Element-wise minimum of equally long series (per-slide minimum over
/// replays: the workload is deterministic, so the minimum strips
/// interference from other tenants and keeps the program's own tail).
std::vector<double> MinOver(
    const std::vector<std::vector<double>>& runs) {
  std::vector<double> out;
  for (const auto& run : runs) {
    if (out.empty()) {
      out = run;
      continue;
    }
    for (size_t i = 0; i < out.size() && i < run.size(); ++i) {
      out[i] = std::min(out[i], run[i]);
    }
  }
  return out;
}

// Checkpoints probed at the restart slide when the workload does not
// checkpoint every slide, and restores timed there on every workload.
constexpr int kCheckpointProbes = 5;
constexpr int kRestoreProbes = 5;
// Extra set-ups timed before each replay.
constexpr int kSetupProbes = 20;

size_t RestartSlide(const Feed& f) {
  return f.queries.size() < 2 ? 0 : f.queries.size() / 2 - 1;
}

// --- untraced replay through the public pipeline surface --------------------

struct Replay {
  /// Timed part per slide (checkpoint included), then Finish.
  std::vector<double> step_s;
  double setup_s = 0.0;  ///< Knowledge base + pipeline construction.
  double mem_peak_mb = 0.0;
  std::vector<double> slide_s;       ///< Decode through SlideReport.
  std::vector<double> checkpoint_s;  ///< SaveTo + EncodeSnapshotFile.
  std::vector<double> restore_s;     ///< Decode + new pipeline + RestoreFrom.
  uint64_t digest = 0;
  uint64_t ces = 0;
  uint64_t lines = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;  ///< Misjudged lines plus failed restores.
  bool decode_ok = true;
};

std::string Checkpoint(const SurveillancePipeline& pipe) {
  snapshot::Writer w;
  pipe.SaveTo(w);
  return snapshot::EncodeSnapshotFile(w.bytes());
}

/// Runs the whole feed through a fresh knowledge base and pipeline. At the
/// restart slide the pipeline is restored from its snapshot into a fresh
/// knowledge base and pipeline, as a restarted process would be; with
/// `restart` the replay continues on the restored copy. With `inspect` the
/// decoded batches are checked against the simulated reports and heap use is
/// sampled after every slide.
Replay RunPipelineReplay(const Workload& w, const Feed& f,
                         common::ThreadPool& pool, bool restart,
                         bool inspect) {
  Replay out;
  const PipelineConfig config = MakeConfig(w, &pool);
  const size_t heap_before = HeapBytesInUse();
  const double t_setup = Now();
  std::unique_ptr<KnowledgeBase> kb = BuildKnowledge(f);
  auto pipe = std::make_unique<SurveillancePipeline>(kb.get(), config);
  out.setup_s = Now() - t_setup;

  size_t heap_peak = HeapBytesInUse();
  ais::DataScanner scanner;
  std::vector<stream::PositionTuple> batch;
  CeDigest digest;
  const size_t restart_slide = RestartSlide(f);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    const size_t line_begin = i == 0 ? 0 : f.line_end[i - 1];
    const double t0 = Now();
    DecodeSlide(f, line_begin, f.line_end[i], scanner, *kb, &batch);
    const surveillance::SlideReport report =
        pipe->RunSlide(f.queries[i], batch);
    const double t1 = Now();
    out.slide_s.push_back(t1 - t0);
    std::string file;
    if (w.checkpoint_every_slide) {
      file = Checkpoint(*pipe);
      out.checkpoint_s.push_back(Now() - t1);
    }
    out.step_s.push_back(Now() - t0);

    // --- not timed: correctness, memory, restart probe ---
    digest.AddSlide(report.query_time, report.recognition, pipe->recognizer());
    if (inspect) {
      const size_t tuple_begin = i == 0 ? 0 : f.tuple_end[i - 1];
      out.decode_ok = out.decode_ok &&
                      BatchMatchesSource(f, tuple_begin, f.tuple_end[i], batch);
      heap_peak = std::max(heap_peak, HeapBytesInUse());
    }
    if (i != restart_slide) continue;
    if (!w.checkpoint_every_slide) {
      for (int k = 0; k < kCheckpointProbes; ++k) {
        const double t2 = Now();
        file = Checkpoint(*pipe);
        out.checkpoint_s.push_back(Now() - t2);
      }
    }
    std::unique_ptr<KnowledgeBase> kb2 = BuildKnowledge(f);
    std::unique_ptr<SurveillancePipeline> restored;
    for (int k = 0; k < kRestoreProbes; ++k) {
      const double t2 = Now();
      Result<std::string_view> payload = snapshot::DecodeSnapshotFile(file);
      restored = std::make_unique<SurveillancePipeline>(kb2.get(), config);
      bool ok = payload.ok();
      if (ok) {
        snapshot::Reader reader(payload.value());
        ok = restored->RestoreFrom(reader).ok() && reader.AtEnd();
      }
      out.restore_s.push_back(Now() - t2);
      if (!ok) ++out.failed;
    }
    if (inspect) heap_peak = std::max(heap_peak, HeapBytesInUse());
    if (restart) {
      pipe = std::move(restored);
      kb = std::move(kb2);
    }
  }
  const double t0 = Now();
  const surveillance::SlideReport flush = pipe->Finish();
  out.step_s.push_back(Now() - t0);
  if (!flush.recognition.empty()) {
    digest.AddSlide(flush.query_time, flush.recognition, pipe->recognizer());
  }
  out.digest = digest.value();
  out.ces = digest.items();
  out.lines = scanner.stats().lines;
  out.rejected = RejectedLines(scanner.stats());
  out.failed += MisjudgedLines(scanner.stats(), f.corrupted);
  out.mem_peak_mb =
      static_cast<double>(heap_peak > heap_before ? heap_peak - heap_before
                                                  : 0) /
      (1024.0 * 1024.0);
  return out;
}

#if MARITIME_BENCH_TRACED
// --- traced replay: the layers driven directly, in commit order -------------

enum Layer : int {
  kSlide = 0,
  kAis,
  kTracker,
  kFeed,
  kRtec,
  kMod,
  kSnapshot,
  kLayerCount
};
constexpr const char* kLayerNames[kLayerCount] = {
    "slide", "ais", "tracker", "maritime.feed", "rtec", "mod", "snapshot"};

struct Span {
  Layer layer = kSlide;
  int32_t parent = -1;  ///< Index of the enclosing slide span.
  uint32_t slide = 0;
  double start = 0.0;
  double end = 0.0;
  uint64_t allocs = 0;
};

/// In-memory span log of one replay.
class Trace {
 public:
  class Scope {
   public:
    Scope(Trace* trace, Layer layer)
        : trace_(trace), index_(trace->Open(layer)) {}
    ~Scope() { trace_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    size_t index_;
  };

  void set_slide(uint32_t slide) { slide_ = slide; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t Open(Layer layer) {
    Span s;
    s.layer = layer;
    s.slide = slide_;
    s.parent = layer == kSlide ? -1 : open_slide_;
    s.allocs = g_heap_allocs.load(std::memory_order_relaxed);
    spans_.push_back(s);
    const size_t index = spans_.size() - 1;
    if (layer == kSlide) open_slide_ = static_cast<int32_t>(index);
    spans_[index].start = Now();
    return index;
  }
  void Close(size_t index) {
    Span& s = spans_[index];
    s.end = Now();
    s.allocs = g_heap_allocs.load(std::memory_order_relaxed) - s.allocs;
    if (s.layer == kSlide) open_slide_ = -1;
  }

  std::vector<Span> spans_;
  int32_t open_slide_ = -1;
  uint32_t slide_ = 0;
};

struct TracedReplay {
  std::vector<double> step_s;  ///< Slide spans, the end-of-stream one last.
  double busy_s[kLayerCount] = {};
  uint64_t allocs[kLayerCount] = {};
  uint64_t calls[kLayerCount] = {};
  double children_s = 0.0;  ///< Child spans inside slide spans.
  uint64_t digest = 0;
  uint64_t ces = 0;
  uint64_t lines = 0;
  uint64_t failed_lines = 0;  ///< Rejected by the scanner.
  uint64_t misjudged_lines = 0;
  uint64_t static_reports = 0;
  uint64_t tuples = 0;
  uint64_t critical_points = 0;
  uint64_t queries = 0;
  uint64_t input_events = 0;
  double cache_hit_rate = 0.0;
  uint64_t spans_narrowed = 0;
  uint64_t cps_archived = 0;
  uint64_t trips = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t steals = 0;
  double shard_skew = 1.0;
  std::vector<Span> spans;
};

/// The snapshot the pipeline writes, minus its manifest: every stateful layer
/// through its own SaveTo.
std::string CheckpointLayers(const tracker::ShardedMobilityTracker& tracker,
                             const PartitionedRecognizer& recognizer,
                             const std::deque<tracker::CriticalPoint>& window,
                             const mod::HermesArchiver& archiver) {
  snapshot::Writer w;
  tracker.SaveTo(w);
  recognizer.SaveTo(w);
  w.U64(window.size());
  for (const tracker::CriticalPoint& cp : window) {
    tracker::SaveCriticalPoint(cp, w);
  }
  archiver.SaveTo(w);
  return snapshot::EncodeSnapshotFile(w.bytes());
}

/// Mirrors SurveillancePipeline::RunSlide/CommitNextSlide/Finish at pipeline
/// depth 1, one public layer call per span.
TracedReplay RunTracedReplay(const Workload& w, const Feed& f,
                             common::ThreadPool& pool) {
  TracedReplay out;
  Trace trace;
  const PipelineConfig config = MakeConfig(w, &pool);
  std::unique_ptr<KnowledgeBase> kb = BuildKnowledge(f);
  // The recognizer the pipeline constructor builds; the knobs left at their
  // defaults are left unnamed so that removing them needs no change here.
  surveillance::RecognizerConfig rc;
  rc.window = config.window;
  rc.ce = config.ce;
  rc.engine = config.recognition_engine;
  tracker::ShardedMobilityTracker tracker(config.tracker,
                                          config.tracker_shards, &pool);
  PartitionedRecognizer recognizer(*kb, rc, config.partitions, &pool);
  mod::HermesArchiver archiver(kb.get());
  std::deque<tracker::CriticalPoint> window;

  ais::DataScanner scanner;
  std::vector<stream::PositionTuple> batch;
  std::vector<tracker::ShardSlideStats> shard_stats;
  std::vector<tracker::CriticalPoint> evicted;
  CeDigest digest;
  double skew_max = 0.0;
  double skew_mean = 0.0;
  const uint64_t steals_before = pool.steal_count();
  const size_t restart_slide = RestartSlide(f);

  const auto archive_evicted = [&](Timestamp q) {
    Trace::Scope span(&trace, kMod);
    evicted.clear();
    const Timestamp cutoff = q - config.window.range;
    while (!window.empty() && window.front().tau <= cutoff) {
      evicted.push_back(window.front());
      window.pop_front();
    }
    if (!evicted.empty()) archiver.ArchiveBatch(evicted);
    out.cps_archived += evicted.size();
  };
  const auto save = [&]() {
    Trace::Scope span(&trace, kSnapshot);
    out.snapshot_bytes =
        CheckpointLayers(tracker, recognizer, window, archiver).size();
  };

  for (size_t i = 0; i < f.queries.size(); ++i) {
    const Timestamp q = f.queries[i];
    const size_t line_begin = i == 0 ? 0 : f.line_end[i - 1];
    trace.set_slide(static_cast<uint32_t>(i));
    std::vector<rtec::RecognitionResult> results;
    {
      Trace::Scope slide(&trace, kSlide);
      {
        Trace::Scope span(&trace, kAis);
        DecodeSlide(f, line_begin, f.line_end[i], scanner, *kb, &batch);
      }
      std::vector<tracker::CriticalPoint> cps;
      {
        Trace::Scope span(&trace, kTracker);
        cps = tracker.ProcessSlide(
            std::span<const stream::PositionTuple>(batch), q, &shard_stats);
      }
      {
        Trace::Scope span(&trace, kFeed);
        recognizer.Feed(std::span<const tracker::CriticalPoint>(cps));
      }
      window.insert(window.end(), cps.begin(), cps.end());
      {
        Trace::Scope span(&trace, kRtec);
        results = recognizer.Recognize(q);
      }
      archive_evicted(q);
      if (w.checkpoint_every_slide) save();
      out.tuples += batch.size();
      out.critical_points += cps.size();
    }
    // --- not traced ---
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const tracker::ShardSlideStats& s : shard_stats) {
      max_s = std::max(max_s, s.seconds);
      sum_s += s.seconds;
    }
    skew_max += max_s;
    skew_mean += shard_stats.empty()
                     ? 0.0
                     : sum_s / static_cast<double>(shard_stats.size());
    for (const rtec::RecognitionResult& r : results) {
      out.input_events += r.input_events_in_window;
    }
    ++out.queries;
    digest.AddSlide(q, results, recognizer);
    if (i == restart_slide && !w.checkpoint_every_slide) {
      for (int k = 0; k < kCheckpointProbes; ++k) save();
    }
  }

  // End of stream, as SurveillancePipeline::Finish.
  trace.set_slide(static_cast<uint32_t>(f.queries.size()));
  std::vector<rtec::RecognitionResult> results;
  Timestamp q_final = kInvalidTimestamp;
  {
    Trace::Scope slide(&trace, kSlide);
    std::vector<tracker::CriticalPoint> tail;
    {
      Trace::Scope span(&trace, kTracker);
      tracker.Finish(&tail);
    }
    window.insert(window.end(), tail.begin(), tail.end());
    out.critical_points += tail.size();
    if (!tail.empty()) {
      {
        Trace::Scope span(&trace, kFeed);
        recognizer.Feed(std::span<const tracker::CriticalPoint>(tail));
      }
      q_final = f.queries.back() + config.window.slide;
      Trace::Scope span(&trace, kRtec);
      results = recognizer.Recognize(q_final);
    }
    {
      Trace::Scope span(&trace, kMod);
      std::vector<tracker::CriticalPoint> rest(window.begin(), window.end());
      window.clear();
      if (!rest.empty()) archiver.ArchiveBatch(rest);
      out.cps_archived += rest.size();
    }
  }
  if (!results.empty()) {
    ++out.queries;
    for (const rtec::RecognitionResult& r : results) {
      out.input_events += r.input_events_in_window;
    }
    digest.AddSlide(q_final, results, recognizer);
  }

  for (const Span& s : trace.spans()) {
    const double d = s.end - s.start;
    out.busy_s[s.layer] += d;
    out.allocs[s.layer] += s.allocs;
    ++out.calls[s.layer];
    if (s.layer == kSlide) out.step_s.push_back(d);
    if (s.parent >= 0) out.children_s += d;
  }
  const PartitionedRecognizer::RecognizeTotals totals = recognizer.totals();
  const size_t lookups = totals.cache_hits + totals.cache_misses;
  out.cache_hit_rate = lookups == 0 ? 0.0
                                    : static_cast<double>(totals.cache_hits) /
                                          static_cast<double>(lookups);
  out.spans_narrowed = totals.spans_narrowed;
  out.trips = archiver.store().trip_count();
  out.steals = pool.steal_count() - steals_before;
  out.shard_skew = skew_mean > 0.0 ? skew_max / skew_mean : 1.0;
  out.digest = digest.value();
  out.ces = digest.items();
  out.lines = scanner.stats().lines;
  out.failed_lines = RejectedLines(scanner.stats());
  out.misjudged_lines = MisjudgedLines(scanner.stats(), f.corrupted);
  out.static_reports = scanner.stats().static_reports;
  out.spans = trace.spans();
  return out;
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
/// per span, times in microseconds from the first span.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"slide\":%u,"
                 "\"allocs\":%" PRIu64 "}}",
                 i == 0 ? "" : ",\n", kLayerNames[s.layer],
                 (s.start - origin) * 1e6, (s.end - s.start) * 1e6, s.slide,
                 s.allocs);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}
#endif  // MARITIME_BENCH_TRACED

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const Workload& w, uint64_t seed, double scale, size_t slides,
                 int replays, uint64_t digest, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"binary\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"scale\": %.17g, \"slides\": %zu, \"replays\": %d, "
              "\"digest\": \"%016" PRIx64 "\", \"correct\": %s, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              MARITIME_BENCH_TRACED ? "traced" : "untraced", w.name.c_str(),
              seed, scale, slides, replays, digest, correct ? "true" : "false",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1234;
  double seconds = 15.0;
  double scale = 1.0;
  std::string trace_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const size_t eq = a.find('=');
    if (a.substr(0, 2) != "--" || eq == std::string_view::npos) return false;
    const std::string_view key = a.substr(2, eq - 2);
    const std::string value(a.substr(eq + 1));
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "scale") {
      args->scale = std::strtod(value.c_str(), &end);
      if (!(args->scale > 0.0)) return false;
    } else if (key == "trace" && MARITIME_BENCH_TRACED) {
      args->trace_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty();
}

// Replays per run: at least kMinReplays, then more while the next one still
// fits in --seconds (measured from the first replay).
constexpr int kMinReplays = 3;

bool MoreReplays(int done, double started, double last_replay_s,
                 double seconds) {
  if (done < kMinReplays) return true;
  return Now() - started + last_replay_s <= seconds;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=<dense_serial|dense_parallel|"
                 "long_window|checkpoint_restart> [--seed=N] [--seconds=S] "
                 "[--scale=X]%s\n",
                 argv[0],
                 MARITIME_BENCH_TRACED ? " [--trace=<file.json>]" : "");
    return 2;
  }
  const std::optional<Workload> found = FindWorkload(args.workload, args.scale);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  const double t_gen = Now();
  const std::optional<Feed> generated = Generate(w, args.seed);
  if (!generated || generated->queries.empty()) {
    std::fprintf(stderr, "cannot generate the feed\n");
    return 1;
  }
  const Feed& feed = *generated;
  std::printf("workload %s seed %" PRIu64 ": %zu vessels, %zu lines "
              "(%" PRIu64 " corrupted), %zu slides (generated in %.2f s)\n",
              w.name.c_str(), args.seed, feed.fleet.size(), feed.lines.size(),
              feed.corrupted, feed.queries.size(), Now() - t_gen);
  common::ThreadPool pool(w.pool_workers);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  int replays = 0;
  uint64_t digest = 0;
  const double started = Now();
  double last_replay_s = 0.0;

#if !MARITIME_BENCH_TRACED
  std::vector<double> setup;
  std::vector<Replay> runs;
  while (MoreReplays(replays, started, last_replay_s, args.seconds)) {
    const double t0 = Now();
    // Set-up takes a few milliseconds, so one sample per replay is too few.
    for (int k = 0; k < kSetupProbes; ++k) {
      const double t1 = Now();
      std::unique_ptr<KnowledgeBase> kb = BuildKnowledge(feed);
      const SurveillancePipeline pipe(kb.get(), MakeConfig(w, &pool));
      setup.push_back(Now() - t1);
    }
    // Replay 0 runs uninterrupted; later ones continue on the restored
    // pipeline, so equal digests prove bit-identical recovery.
    runs.push_back(RunPipelineReplay(w, feed, pool, /*restart=*/replays > 0,
                                     /*inspect=*/replays == 0));
    last_replay_s = Now() - t0;
    ++replays;
  }
  digest = runs.front().digest;
  std::vector<std::vector<double>> steps;
  std::vector<std::vector<double>> slides;
  std::vector<std::vector<double>> checkpoints;
  std::vector<std::vector<double>> restores;
  for (const Replay& r : runs) {
    correct = correct && r.digest == digest && r.ces == runs.front().ces;
    attempted += r.lines;
    failed += r.failed;
    setup.push_back(r.setup_s);
    steps.push_back(r.step_s);
    slides.push_back(r.slide_s);
    checkpoints.push_back(r.checkpoint_s);
    restores.push_back(r.restore_s);
  }
  correct = correct && runs.front().decode_ok && runs.front().ces > 0 &&
            failed == 0;
  // Throughput over the fastest observed execution of each step, like the
  // latencies: the replays do identical work.
  const double replay_s = Sum(MinOver(steps));
  const std::vector<double> slide_min = MinOver(slides);
  // Probed checkpoints and all restores repeat one piece of work: the state
  // at the restart slide is the same in every replay.
  const double checkpoint_p50_s = w.checkpoint_every_slide
                                      ? Median(MinOver(checkpoints))
                                      : Min(MinOver(checkpoints));
  metrics = {
      {"throughput_msgs_per_s",
       static_cast<double>(runs.front().lines) / replay_s, "lines/s"},
      {"slide_p50_ms", 1e3 * Percentile(slide_min, 0.50), "ms"},
      {"slide_p95_ms", 1e3 * Percentile(slide_min, 0.95), "ms"},
      {"setup_s", Median(setup), "s"},
      {"mem_peak_mb", runs.front().mem_peak_mb, "MB"},
      {"checkpoint_p50_ms", 1e3 * checkpoint_p50_s, "ms"},
      {"restore_ms", 1e3 * Min(MinOver(restores)), "ms"},
      {"failed_share",
       correct ? static_cast<double>(runs.front().rejected) /
                     static_cast<double>(runs.front().lines)
               : 1.0,
       "fraction"},
  };
  std::printf("replays %d, ces %" PRIu64 ", decode %s, replay wall s:",
              replays, runs.front().ces,
              runs.front().decode_ok ? "exact" : "MISMATCH");
  for (const Replay& r : runs) std::printf(" %.3f", Sum(r.step_s));
  std::printf("\n");
#else
  std::vector<TracedReplay> traced;
  std::vector<Replay> plain;
  while (MoreReplays(replays, started, last_replay_s, args.seconds)) {
    const double t0 = Now();
    // Even replays are traced and uninterrupted; odd ones go through the
    // pipeline and restart from the mid-stream snapshot.
    if (replays % 2 == 0) {
      traced.push_back(RunTracedReplay(w, feed, pool));
    } else {
      plain.push_back(RunPipelineReplay(w, feed, pool, /*restart=*/true,
                                        /*inspect=*/plain.empty()));
    }
    last_replay_s = Now() - t0;
    ++replays;
  }
  const TracedReplay& first = traced.front();
  digest = first.digest;
  std::vector<std::vector<double>> traced_steps;
  std::vector<std::vector<double>> plain_steps;
  std::vector<double> coverage;
  std::vector<double> busy[kLayerCount];
  for (const TracedReplay& r : traced) {
    correct = correct && r.digest == digest && r.ces == first.ces;
    attempted += r.lines;
    failed += r.misjudged_lines;
    traced_steps.push_back(r.step_s);
    coverage.push_back(r.children_s / Sum(r.step_s));
    for (int l = 0; l < kLayerCount; ++l) busy[l].push_back(r.busy_s[l]);
  }
  for (const Replay& r : plain) {
    correct = correct && r.digest == digest && r.ces == first.ces;
    attempted += r.lines;
    failed += r.failed;
    plain_steps.push_back(r.step_s);
  }
  correct = correct && first.ces > 0 && !plain.empty() &&
            plain.front().decode_ok;
  const auto per = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const double ais_s = Median(busy[kAis]);
  const double tracker_s = Median(busy[kTracker]);
  const double feed_s = Median(busy[kFeed]);
  const double rtec_s = Median(busy[kRtec]);
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  metrics = {
      {"ais.busy_s", ais_s, "s"},
      {"ais.ns_per_line", 1e9 * per(ais_s, first.lines), "ns"},
      {"ais.allocs_per_line", per(count(first.allocs[kAis]), first.lines),
       "count"},
      {"ais.lines", count(first.lines), "count"},
      {"ais.failed_lines", count(first.failed_lines), "count"},
      {"ais.static_reports", count(first.static_reports), "count"},
      {"tracker.busy_s", tracker_s, "s"},
      {"tracker.ns_per_tuple", 1e9 * per(tracker_s, first.tuples), "ns"},
      {"tracker.allocs_per_tuple",
       per(count(first.allocs[kTracker]), first.tuples), "count"},
      {"tracker.tuples", count(first.tuples), "count"},
      {"tracker.critical_points", count(first.critical_points), "count"},
      {"tracker.shard_skew", first.shard_skew, "ratio"},
      {"maritime.feed_busy_s", feed_s, "s"},
      {"maritime.feed_ns_per_cp", 1e9 * per(feed_s, first.critical_points),
       "ns"},
      {"maritime.feed_allocs_per_cp",
       per(count(first.allocs[kFeed]), first.critical_points), "count"},
      {"rtec.busy_s", rtec_s, "s"},
      {"rtec.us_per_query", 1e6 * per(rtec_s, first.queries), "us"},
      {"rtec.allocs_per_query", per(count(first.allocs[kRtec]), first.queries),
       "count"},
      {"rtec.input_events", count(first.input_events), "count"},
      {"rtec.ces", count(first.ces), "count"},
      {"rtec.cache_hit_rate", first.cache_hit_rate, "ratio"},
      {"rtec.spans_narrowed", count(first.spans_narrowed), "count"},
      {"mod.busy_s", Median(busy[kMod]), "s"},
      {"mod.cps_archived", count(first.cps_archived), "count"},
      {"mod.trips", count(first.trips), "count"},
      {"snapshot.save_busy_s", Median(busy[kSnapshot]), "s"},
      {"snapshot.bytes", count(first.snapshot_bytes), "bytes"},
      {"snapshot.allocs_per_save",
       per(count(first.allocs[kSnapshot]), first.calls[kSnapshot]), "count"},
      {"pool.steals", count(first.steals), "count"},
      {"trace.coverage", Median(coverage), "ratio"},
      {"trace.overhead_pct",
       100.0 * (Sum(MinOver(traced_steps)) / Sum(MinOver(plain_steps)) - 1.0),
       "%"},
  };
  std::printf("replays %d (%zu traced), ces %" PRIu64 ", digests %s\n",
              replays, traced.size(), first.ces,
              correct ? "agree" : "DIFFER");
  if (!args.trace_path.empty() &&
      !WriteChromeTrace(args.trace_path, first.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    correct = false;
  }
#endif
  correct = correct && failed == 0;
  PrintResult(w, args.seed, args.scale, feed.queries.size(), replays, digest,
              correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace maritime::e2e

int main(int argc, char** argv) { return maritime::e2e::Main(argc, argv); }
