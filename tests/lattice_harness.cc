#include "lattice_harness.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <utility>

#include "ais/scanner.h"
#include "common/rng.h"
#include "common/strings.h"
#include "maritime/ais_bridge.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/replayer.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"

namespace maritime::lattice {
namespace {

using surveillance::EngineMode;
using surveillance::KnowledgeBase;
using surveillance::PartitionedRecognizer;
using surveillance::PipelineConfig;
using surveillance::RecognizerConfig;
using surveillance::SlideReport;
using surveillance::SurveillancePipeline;
using tracker::CriticalPoint;

/// A critical point and the time it reaches recognition.
using Arrival = std::pair<Timestamp, CriticalPoint>;

template <typename T>
T Pick(Rng& rng, std::initializer_list<T> values) {
  return values.begin()[rng.NextBelow(values.size())];
}

// Names for Describe, indexed by the enums.
constexpr const char* kShapeNames[] = {"pipeline", "tracked", "skewed",
                                       "loitering"};
constexpr const char* kCutNames[] = {"none", "memory", "file"};
constexpr const char* kEngineNames[] = {"naive", "incremental", "auto"};

// --- input -------------------------------------------------------------------

sim::World BuildSmallWorld(uint64_t seed) {
  sim::WorldParams p;
  p.ports = 6;
  p.protected_areas = 3;
  p.forbidden_fishing_areas = 3;
  p.shallow_areas = 3;
  return sim::BuildWorld(seed, p);
}

/// Inserts `raw` into `feed`, spread evenly; each raw line carries the tag
/// (arrival time) of the feed line before it.
std::string Splice(const std::string& feed,
                   const std::vector<std::string>& raw) {
  if (raw.empty()) return feed;
  const size_t lines =
      static_cast<size_t>(std::count(feed.begin(), feed.end(), '\n'));
  std::string out;
  std::string tag = "0";
  size_t next = 0;
  size_t line = 0;
  const auto emit_due = [&] {
    for (; next < raw.size() && next * lines < line * raw.size(); ++next) {
      out += tag + '\t' + raw[next] + '\n';
    }
  };
  for (size_t pos = 0; pos < feed.size(); ++line) {
    const size_t end = std::min(feed.find('\n', pos), feed.size());
    const std::string_view l(feed.data() + pos, end - pos);
    tag = std::string(l.substr(0, l.find('\t')));
    out.append(l);
    out += '\n';
    pos = end + 1;
    emit_due();
  }
  line = lines + 1;
  emit_due();
  return out;
}

/// Simulates the fleet, renders it to tagged NMEA (corrupted sentences,
/// type 5 static reports, two-fragment type 19 reports), splices in
/// `d.raw_lines` and decodes the result. The static reports are applied to
/// the world's knowledge base before any pipeline is built, so every config
/// sees the same registry.
std::vector<stream::PositionTuple> DecodeFeed(const Draw& d, sim::World* world) {
  sim::FleetConfig fc;
  fc.vessels = d.vessels;
  fc.duration = d.horizon;
  fc.seed = d.seed + 1;
  sim::FleetSimulator fleet(world, fc);
  sim::NmeaFeedOptions opts;
  opts.corrupt_prob = 0.03;
  opts.extended_class_b_prob = 0.5;
  opts.static_report_every = 8;
  opts.seed = d.seed + 2;
  const std::string feed =
      sim::EncodeTaggedNmeaFeed(fleet.Generate(), fleet.fleet(), opts);
  ais::DataScanner scanner;
  std::vector<stream::PositionTuple> tuples =
      scanner.ScanTaggedLog(Splice(feed, d.raw_lines));
  surveillance::ApplyStaticReports(world->knowledge, scanner);
  return tuples;
}

/// The serial tracker's critical points for `tuples`.
std::vector<CriticalPoint> Track(std::vector<stream::PositionTuple> tuples) {
  std::stable_sort(tuples.begin(), tuples.end(),
                   [](const auto& a, const auto& b) { return a.tau < b.tau; });
  tracker::MobilityTracker tracker;
  tracker::Compressor compressor;
  std::vector<CriticalPoint> out;
  for (const stream::PositionTuple& t : tuples) tracker.Process(t, &out);
  tracker.Finish(&out);
  compressor.Compress(&out, tuples.size());
  return out;
}

std::vector<geo::GeoPoint> NonPortCentroids(const KnowledgeBase& kb) {
  std::vector<geo::GeoPoint> out;
  for (const surveillance::AreaInfo& a : kb.areas()) {
    if (a.kind != surveillance::AreaKind::kPort) {
      out.push_back(a.polygon.VertexCentroid());
    }
  }
  return out;
}

/// `idle` vessels parked at area centroids, one stop start apiece in the
/// first minutes; one active vessel cycling stop, slow-motion and gap
/// episodes inside one area, a critical point a minute.
std::vector<CriticalPoint> SkewedStream(const KnowledgeBase& kb, int idle,
                                        Duration horizon) {
  const std::vector<geo::GeoPoint> centers = NonPortCentroids(kb);
  std::vector<CriticalPoint> out;
  for (int i = 0; i < idle; ++i) {
    CriticalPoint cp;
    cp.mmsi = static_cast<stream::Mmsi>(1000 + i);
    cp.pos = centers[static_cast<size_t>(i) % centers.size()];
    cp.tau = 1 + i;
    cp.flags = tracker::kFirst | tracker::kStopStart;
    out.push_back(cp);
  }
  int phase = 0;
  for (Timestamp t = 5 * kMinute; t <= horizon; t += kMinute, ++phase) {
    CriticalPoint cp;
    cp.mmsi = 7;
    cp.pos = geo::GeoPoint{centers[0].lon + (phase % 3) * 1e-4,
                           centers[0].lat + (phase % 5) * 1e-4};
    cp.tau = t;
    constexpr uint32_t kCycle[] = {
        tracker::kStopStart,       tracker::kStopEnd,
        tracker::kSlowMotionStart, tracker::kSlowMotionEnd,
        tracker::kGapStart,        tracker::kGapEnd | tracker::kTurn};
    cp.flags = kCycle[phase % 6];
    if (phase % 2 == 1) cp.duration = kMinute;
    out.push_back(cp);
  }
  return out;
}

/// Every vessel (every third one fishing) emits a random ME marker every 1–15
/// minutes, near a random area or drifting in open water; every half hour
/// four to six of them, one fishing, stop close to one area (a forbidden
/// fishing area every other time) for 20–60 minutes and leave.
std::vector<CriticalPoint> LoiteringStream(Rng& rng, KnowledgeBase* kb,
                                           int vessels, Duration horizon) {
  std::vector<stream::Mmsi> fishing;
  for (int i = 0; i < vessels; ++i) {
    surveillance::VesselInfo v;
    v.mmsi = static_cast<stream::Mmsi>(100 + i);
    v.fishing_gear = i % 3 == 0;
    v.type = v.fishing_gear ? surveillance::VesselType::kFishing
                            : surveillance::VesselType::kTanker;
    v.draft_m = rng.NextDouble(2.0, 14.0);
    kb->AddVessel(v);
    if (v.fishing_gear) fishing.push_back(v.mmsi);
  }
  std::vector<const surveillance::AreaInfo*> forbidden;
  std::vector<const surveillance::AreaInfo*> others;
  for (const surveillance::AreaInfo& a : kb->areas()) {
    if (a.kind == surveillance::AreaKind::kPort) continue;
    (a.kind == surveillance::AreaKind::kForbiddenFishing ? forbidden : others)
        .push_back(&a);
  }
  const auto near = [&rng](const surveillance::AreaInfo& a, double max_m) {
    return geo::DestinationPoint(a.polygon.VertexCentroid(),
                                 rng.NextDouble(0.0, 360.0),
                                 rng.NextDouble(0.0, max_m));
  };
  std::vector<CriticalPoint> out;
  for (int i = 0; i < vessels; ++i) {
    CriticalPoint cp;
    cp.mmsi = static_cast<stream::Mmsi>(100 + i);
    cp.pos = geo::GeoPoint{rng.NextDouble(23.0, 27.0),
                           rng.NextDouble(35.5, 40.5)};
    bool stopped = false;
    bool slow = false;
    for (cp.tau = rng.NextInt(60, 600); cp.tau < horizon;
         cp.tau += rng.NextInt(60, 900)) {
      const size_t a = rng.NextBelow(forbidden.size() + others.size());
      cp.pos = rng.NextBool(0.5)
                   ? near(a < forbidden.size() ? *forbidden[a]
                                               : *others[a - forbidden.size()],
                          2500.0)
                   : geo::DestinationPoint(cp.pos, rng.NextDouble(0.0, 360.0),
                                           rng.NextDouble(500.0, 5000.0));
      switch (rng.NextBelow(6)) {
        case 0:
          cp.flags = stopped ? tracker::kStopEnd : tracker::kStopStart;
          stopped = !stopped;
          break;
        case 1:
          cp.flags = slow ? tracker::kSlowMotionEnd : tracker::kSlowMotionStart;
          slow = !slow;
          break;
        case 2: cp.flags = tracker::kGapStart; break;
        case 3: cp.flags = tracker::kTurn; break;
        case 4: cp.flags = tracker::kSpeedChange; break;
        default: cp.flags = tracker::kGapEnd; break;
      }
      out.push_back(cp);
    }
  }
  std::vector<Timestamp> busy_until(static_cast<size_t>(vessels), 0);
  int cluster = 0;
  for (Timestamp start = 20 * kMinute; start + kHour < horizon;
       start += 30 * kMinute, ++cluster) {
    const auto& pool = cluster % 2 == 0 ? forbidden : others;
    const surveillance::AreaInfo& area = *pool[rng.NextBelow(pool.size())];
    std::vector<stream::Mmsi> members;
    const auto join = [&](stream::Mmsi m) {
      Timestamp& busy = busy_until[m - 100];
      if (busy > start - 10 * kMinute) return;
      busy = start + 2 * kHour;
      members.push_back(m);
    };
    join(fishing[rng.NextBelow(fishing.size())]);
    const size_t want = static_cast<size_t>(rng.NextInt(4, 6));
    for (int tries = 0; members.size() < want && tries < 50; ++tries) {
      join(static_cast<stream::Mmsi>(100 + rng.NextBelow(
                                               static_cast<uint64_t>(vessels))));
    }
    for (const stream::Mmsi m : members) {
      CriticalPoint cp;
      cp.mmsi = m;
      cp.pos = near(area, 800.0);
      cp.tau = start - rng.NextInt(2 * kMinute, 10 * kMinute);
      cp.flags = tracker::kTurn;  // the approach
      out.push_back(cp);
      cp.pos = near(area, 800.0);
      cp.tau = start + rng.NextInt(0, 5 * kMinute);
      cp.flags = tracker::kStopStart;
      out.push_back(cp);
      cp.tau += rng.NextInt(20 * kMinute, kHour);
      cp.flags = tracker::kStopEnd;
      out.push_back(cp);
      cp.pos = geo::DestinationPoint(cp.pos, rng.NextDouble(0.0, 360.0),
                                     20000.0);
      cp.tau += rng.NextInt(5 * kMinute, 15 * kMinute);
      cp.flags = tracker::kSpeedChange;  // gone
      out.push_back(cp);
    }
  }
  return out;
}

/// Holds each point back one to three slides with probability `share`;
/// returns the points in arrival order.
std::vector<Arrival> Schedule(Rng& rng, std::vector<CriticalPoint> cps,
                              double share, Duration slide) {
  std::stable_sort(cps.begin(), cps.end(),
                   [](const auto& a, const auto& b) { return a.tau < b.tau; });
  std::vector<Arrival> out;
  for (const CriticalPoint& cp : cps) {
    const Timestamp lag = rng.NextBool(share) ? rng.NextInt(1, 3) * slide : 0;
    out.emplace_back(cp.tau + lag, cp);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

// --- runners -----------------------------------------------------------------

/// What one run produced: its slides, the bytes it saved after the last one,
/// and the engine counters of its last recognizer.
struct Run {
  std::vector<SlideReport> slides;
  std::string bytes;
  surveillance::MaritimeSchema schema;
  Outcome counters;
};

template <typename T>
std::string Save(const T& state) {
  snapshot::Writer w;
  state.SaveTo(w);
  return std::string(w.bytes());
}

void Count(PartitionedRecognizer& rec, Run* run) {
  const PartitionedRecognizer::RecognizeTotals t = rec.totals();
  Outcome& o = run->counters;
  o.cache_hits = t.cache_hits;
  o.cache_misses = t.cache_misses;
  o.spans_narrowed = t.spans_narrowed;
  o.fleet_floor_hits = t.fleet_floor_hits;
  o.incremental = rec.partition(0).engine().options().incremental;
  for (int i = 0; i < rec.partition_count(); ++i) {
    for (const rtec::DefRegenStats& st :
         rec.partition(i).engine().def_regen_stats()) {
      o.fast_forwards += st.fast_forwards;
      o.evals += st.evals;
    }
  }
  run->schema = rec.partition(0).schema();
}

std::string TempPath() {
  std::string path =
      (std::filesystem::temp_directory_path() / "lattice-XXXXXX").string();
  const int fd = mkstemp(path.data());
  if (fd >= 0) close(fd);
  return path;
}

/// Restores `bytes` (a SaveTo payload) into `fresh`; fails unless the
/// restored state re-saves exactly those bytes.
template <typename T>
std::string Restore(std::string_view bytes, T* fresh) {
  snapshot::Reader r(bytes);
  if (const Status s = fresh->RestoreFrom(r); !s.ok()) {
    return "restore failed: " + s.ToString();
  }
  if (!r.AtEnd()) return "restore left bytes unread";
  if (Save(*fresh) != bytes) {
    return "a restored state re-saves different bytes";
  }
  return "";
}

/// Replays `tuples` through a pipeline. The reference uses Run; a config
/// run uses Resume (on a fresh pipeline the same as Run), after running
/// `cut_slide` slides and restoring a snapshot when `cut` asks for one.
std::string RunPipeline(const KnowledgeBase& kb,
                        const std::vector<stream::PositionTuple>& tuples,
                        const PipelineConfig& cfg, bool reference, Cut cut,
                        int cut_slide, Run* run) {
  const auto collect = [run](const SlideReport& r) {
    run->slides.push_back(r);
  };
  auto pipeline = std::make_unique<SurveillancePipeline>(&kb, cfg);
  stream::StreamReplayer replayer(tuples);
  if (cut != Cut::kNone && replayer.first_timestamp() != kInvalidTimestamp) {
    stream::QueryTimeSequence q(cfg.window, replayer.first_timestamp());
    for (int i = 0; i < cut_slide; ++i) {
      const Timestamp qt = q.Fire();
      collect(pipeline->RunSlide(qt, replayer.NextBatch(qt)));
      if (qt >= replayer.last_timestamp()) break;
    }
    auto fresh = std::make_unique<SurveillancePipeline>(&kb, cfg);
    std::string bytes = Save(*pipeline);
    if (cut == Cut::kFile) {
      const std::string path = TempPath();
      Status s = pipeline->SaveSnapshot(path);
      if (s.ok()) s = fresh->LoadSnapshot(path);
      std::remove(path.c_str());
      if (!s.ok()) return "file snapshot round trip failed: " + s.ToString();
      if (Save(*fresh) != bytes) {
        return "a pipeline loaded from a file re-saves different bytes";
      }
    } else if (std::string f = Restore(bytes, fresh.get()); !f.empty()) {
      return f;
    }
    pipeline = std::move(fresh);
    replayer.Reset();
  }
  if (reference) {
    pipeline->Run(replayer, collect);
  } else {
    pipeline->Resume(replayer, collect);
  }
  run->bytes = Save(*pipeline);
  Count(pipeline->recognizer(), run);
  return "";
}

/// Feeds `schedule` to a partitioned recognizer slide by slide up to
/// `last_q`, cutting after the batch of slide `cut_slide` is fed.
std::string RunRecognizer(const KnowledgeBase& kb,
                          const std::vector<Arrival>& schedule,
                          const RecognizerConfig& cfg, int partitions,
                          Cut cut, int cut_slide, Timestamp last_q, Run* run) {
  auto rec = std::make_unique<PartitionedRecognizer>(kb, cfg, partitions);
  size_t next = 0;
  int slide = 0;
  for (Timestamp q = cfg.window.slide; q <= last_q;
       q += cfg.window.slide, ++slide) {
    for (; next < schedule.size() && schedule[next].first <= q; ++next) {
      rec->Feed(schedule[next].second);
    }
    if (cut != Cut::kNone && slide == cut_slide) {
      std::string bytes = Save(*rec);
      if (cut == Cut::kFile) {
        const std::string file = snapshot::EncodeSnapshotFile(bytes);
        const Result<std::string_view> payload =
            snapshot::DecodeSnapshotFile(file);
        if (!payload.ok() || payload.value() != bytes) {
          return "the file container did not round-trip a recognizer";
        }
      }
      auto fresh = std::make_unique<PartitionedRecognizer>(kb, cfg, partitions);
      if (std::string f = Restore(bytes, fresh.get()); !f.empty()) return f;
      rec = std::move(fresh);
    }
    SlideReport s;
    s.query_time = q;
    s.recognition = rec->Recognize(q);
    run->slides.push_back(std::move(s));
  }
  run->bytes = Save(*rec);
  Count(*rec, run);
  return "";
}

// --- comparator --------------------------------------------------------------

/// Equal CEs. The count of in-window inputs includes the spatial facts, so
/// it is compared only when both runs reason about space the same way.
bool SameCes(const rtec::RecognitionResult& a, const rtec::RecognitionResult& b,
             bool count_inputs) {
  return a.query_time == b.query_time && a.window_start == b.window_start &&
         a.fluents == b.fluents && a.events == b.events &&
         (!count_inputs || a.input_events_in_window == b.input_events_in_window);
}

/// The first output row where `got` departs from `want`.
std::string FirstDifference(const rtec::RecognitionResult& want,
                            const rtec::RecognitionResult& got) {
  const auto rows = [](const rtec::RecognitionResult& r) {
    std::vector<std::string> out;
    for (const rtec::RecognizedFluent& f : r.fluents) {
      std::string row = StrPrintf("fluent %d(%d/%d)=%d", f.fluent, f.key.kind,
                                  f.key.id, f.value);
      for (const rtec::Interval& i : f.intervals) {
        row += StrPrintf(" (%lld,%lld]", static_cast<long long>(i.since),
                         static_cast<long long>(i.till));
      }
      out.push_back(std::move(row));
    }
    for (const rtec::RecognizedEvent& e : r.events) {
      out.push_back(StrPrintf(
          "event %d(%d/%d, %d/%d) at %lld", e.event, e.instance.subject.kind,
          e.instance.subject.id, e.instance.object.kind, e.instance.object.id,
          static_cast<long long>(e.instance.t)));
    }
    return out;
  };
  const std::vector<std::string> a = rows(want);
  const std::vector<std::string> b = rows(got);
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const std::string none = "(no row)";
    const std::string& x = i < a.size() ? a[i] : none;
    const std::string& y = i < b.size() ? b[i] : none;
    if (x != y) return "reference " + x + ", got " + y;
  }
  return StrPrintf("in-window inputs %zu, reference %zu",
                   got.input_events_in_window, want.input_events_in_window);
}

std::string Compare(const std::vector<SlideReport>& want,
                    const std::vector<SlideReport>& got, bool count_inputs) {
  if (want.size() != got.size()) {
    return StrPrintf("%zu slides, the reference has %zu", got.size(),
                     want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const SlideReport& a = want[i];
    const SlideReport& b = got[i];
    const std::string at = StrPrintf(
        "slide %zu (q=%lld): ", i, static_cast<long long>(a.query_time));
    if (a.query_time != b.query_time || a.raw_positions != b.raw_positions ||
        a.final_flush != b.final_flush) {
      return at + "report fields differ from the reference";
    }
    if (a.critical_points != b.critical_points) {
      return at + "critical points differ from the reference";
    }
    if (a.recognition.size() != b.recognition.size()) {
      return at + "partition count differs from the reference";
    }
    for (size_t p = 0; p < a.recognition.size(); ++p) {
      if (!SameCes(a.recognition[p], b.recognition[p], count_inputs)) {
        return at + StrPrintf("partition %zu: ", p) +
               FirstDifference(a.recognition[p], b.recognition[p]);
      }
    }
  }
  return "";
}

void NoteRecognized(const surveillance::MaritimeSchema& s,
                    const std::vector<SlideReport>& slides,
                    std::set<std::string>* out) {
  for (const SlideReport& r : slides) {
    for (const rtec::RecognitionResult& res : r.recognition) {
      for (const rtec::RecognizedFluent& f : res.fluents) {
        if (f.intervals.empty()) continue;
        if (f.fluent == s.suspicious) out->insert("suspicious");
        if (f.fluent == s.illegal_fishing) out->insert("illegalFishing");
        if (f.fluent == s.adrift) out->insert("adrift");
      }
      for (const rtec::RecognizedEvent& e : res.events) {
        if (e.event == s.illegal_shipping) out->insert("illegalShipping");
        if (e.event == s.dangerous_shipping) out->insert("dangerousShipping");
      }
    }
  }
}

}  // namespace

Draw DrawFromSeed(uint64_t seed) {
  Rng rng(seed);
  Draw d;
  d.seed = seed;
  d.shape = Pick(rng, {Shape::kPipeline, Shape::kPipeline, Shape::kTracked,
                       Shape::kSkewed, Shape::kLoitering});
  const bool pipeline = d.shape == Shape::kPipeline;
  d.vessels = d.shape == Shape::kSkewed ? static_cast<int>(rng.NextInt(100, 300))
                                        : static_cast<int>(rng.NextInt(4, 14));
  d.horizon = rng.NextInt(2, 6) * kHour;
  d.shards = pipeline ? Pick(rng, {1, 2, 4}) : 1;
  d.partitions = Pick(rng, {1, 2});
  d.spatial_facts = rng.NextBool(0.5);
  d.engine = Pick(rng, {EngineMode::kNaive, EngineMode::kIncremental,
                        EngineMode::kAuto});
  d.archive = pipeline && rng.NextBool(0.5);
  d.slide = Pick<Duration>(rng, {2 * kMinute, 5 * kMinute, 10 * kMinute});
  d.ratio = Pick(rng, {1, 2, 3, 6, 30, 60});
  d.cut = Pick(rng, {Cut::kNone, Cut::kNone, Cut::kMemory, Cut::kFile});
  d.cut_slide = static_cast<int>(rng.NextInt(1, d.horizon / d.slide));
  d.hold_share = pipeline ? 0.0 : rng.NextDouble(0.1, 0.35);
  return d;
}

std::string Describe(const Draw& d) {
  return StrPrintf(
      "seed=%llu shape=%s vessels=%d horizon=%llds shards=%d partitions=%d "
      "facts=%d engine=%s archive=%d beta=%llds omega=%d*beta cut=%s@%d "
      "hold=%.2f raw_lines=%zu",
      static_cast<unsigned long long>(d.seed),
      kShapeNames[static_cast<int>(d.shape)], d.vessels,
      static_cast<long long>(d.horizon), d.shards, d.partitions,
      d.spatial_facts ? 1 : 0, kEngineNames[static_cast<int>(d.engine)],
      d.archive ? 1 : 0, static_cast<long long>(d.slide), d.ratio,
      kCutNames[static_cast<int>(d.cut)], d.cut_slide, d.hold_share,
      d.raw_lines.size());
}

Outcome RunDraw(const Draw& d) {
  sim::World world = BuildSmallWorld(d.seed);
  Rng rng(d.seed ^ 0x9e3779b97f4a7c15ull);
  const stream::WindowSpec window{d.slide * d.ratio, d.slide};
  Run want;
  Run got;
  Run again;
  std::string failure;
  if (d.shape == Shape::kPipeline) {
    const std::vector<stream::PositionTuple> tuples = DecodeFeed(d, &world);
    PipelineConfig ref;
    ref.window = window;
    ref.partitions = d.partitions;
    ref.archive = false;
    PipelineConfig cfg = ref;
    cfg.tracker_shards = d.shards;
    cfg.ce.use_spatial_facts = d.spatial_facts;
    cfg.recognition_engine = d.engine;
    cfg.archive = d.archive;
    const KnowledgeBase& kb = world.knowledge;
    failure = RunPipeline(kb, tuples, ref, true, Cut::kNone, 0, &want);
    if (failure.empty()) {
      failure = RunPipeline(kb, tuples, cfg, false, d.cut, d.cut_slide, &got);
    }
    if (failure.empty()) {
      failure = RunPipeline(kb, tuples, cfg, false, Cut::kNone, 0, &again);
    }
  } else {
    std::vector<CriticalPoint> cps;
    switch (d.shape) {
      case Shape::kTracked: cps = Track(DecodeFeed(d, &world)); break;
      case Shape::kSkewed:
        cps = SkewedStream(world.knowledge, d.vessels, d.horizon);
        break;
      default:
        cps = LoiteringStream(rng, &world.knowledge, d.vessels, d.horizon);
        break;
    }
    const std::vector<Arrival> schedule =
        Schedule(rng, std::move(cps), d.hold_share, d.slide);
    const Timestamp last_q = (d.horizon / d.slide + 3) * d.slide;
    RecognizerConfig ref;
    ref.window = window;
    RecognizerConfig cfg = ref;
    cfg.engine = d.engine;
    cfg.ce.use_spatial_facts = d.spatial_facts;
    const KnowledgeBase& kb = world.knowledge;
    failure = RunRecognizer(kb, schedule, ref, d.partitions, Cut::kNone, 0,
                            last_q, &want);
    if (failure.empty()) {
      failure = RunRecognizer(kb, schedule, cfg, d.partitions, d.cut,
                              d.cut_slide, last_q, &got);
    }
    if (failure.empty()) {
      failure = RunRecognizer(kb, schedule, cfg, d.partitions, Cut::kNone, 0,
                              last_q, &again);
    }
  }
  Outcome o = got.counters;
  if (failure.empty()) failure = Compare(want.slides, got.slides, !d.spatial_facts);
  if (failure.empty() && got.bytes != again.bytes) {
    failure = d.cut == Cut::kNone
                  ? "two runs of one config wrote different bytes"
                  : "the run cut and resumed ends in other bytes than the "
                    "uninterrupted run";
  }
  o.failure = failure;
  NoteRecognized(want.schema, want.slides, &o.recognized);
  return o;
}

Draw Shrink(Draw d, const std::function<bool(const Draw&)>& fails) {
  for (bool progress = true; progress;) {
    progress = false;
    Draw fewer = d;
    fewer.vessels /= 2;
    Draw shorter = d;
    shorter.horizon /= 2;
    if (fewer.vessels >= 1 && fails(fewer)) {
      d = fewer;
      progress = true;
    } else if (shorter.horizon >= 2 * d.slide && fails(shorter)) {
      d = shorter;
      progress = true;
    }
  }
  return d;
}

std::string Check(const Draw& d, Outcome* out) {
  Outcome o = RunDraw(d);
  const std::string failure = o.failure;
  if (out != nullptr) *out = std::move(o);
  if (failure.empty()) return "";
  const Draw small =
      Shrink(d, [](const Draw& c) { return !RunDraw(c).failure.empty(); });
  return "lattice draw failed: " + Describe(d) + "\n  " + failure +
         "\n  smallest failing case: " + Describe(small) + "\n  " +
         RunDraw(small).failure;
}

}  // namespace maritime::lattice
