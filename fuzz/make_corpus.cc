// Seed-corpus generator: renders realistic inputs for each fuzz target out
// of the deterministic fleet simulator, so the fuzzers start from the
// grammar of real traffic instead of random bytes.
//
//   fuzz_make_corpus <output-root>
//
// writes <output-root>/{scanner,sixbit,csv,spatial}/seed-*.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ais/messages.h"
#include "ais/sixbit.h"
#include "maritime/me_stream.h"
#include "maritime/pipeline.h"
#include "mod/hermes.h"
#include "rtec/engine.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/csv.h"
#include "stream/replayer.h"
#include "tracker/sharded_tracker.h"
#include "snapshot_corpus.h"

namespace {

void WriteSeed(const std::filesystem::path& dir, int index,
               const std::string& content) {
  std::ofstream f(dir / ("seed-" + std::to_string(index)), std::ios::binary);
  f << content;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];
  const auto scanner_dir = root / "scanner";
  const auto sixbit_dir = root / "sixbit";
  const auto csv_dir = root / "csv";
  const auto spatial_dir = root / "spatial";
  const auto snapshot_dir = root / "snapshot";
  const auto lattice_dir = root / "lattice";
  for (const auto& dir : {scanner_dir, sixbit_dir, csv_dir, spatial_dir,
                          snapshot_dir, lattice_dir}) {
    std::filesystem::create_directories(dir);
  }

  maritime::sim::World world =
      maritime::sim::BuildWorld(maritime::fuzz::kCorpusWorldSeed);
  maritime::sim::FleetConfig cfg;
  cfg.vessels = 12;
  cfg.duration = 2 * maritime::kHour;
  cfg.outlier_prob = 0.01;
  maritime::sim::FleetSimulator sim(&world, cfg);
  const auto tuples = sim.Generate();

  // Scanner seeds: tagged NMEA feed chunks — one clean, one with corrupted
  // checksums and extended two-fragment class-B messages.
  maritime::sim::NmeaFeedOptions clean;
  const std::string clean_feed =
      maritime::sim::EncodeTaggedNmeaFeed(tuples, sim.fleet(), clean);
  maritime::sim::NmeaFeedOptions noisy;
  noisy.corrupt_prob = 0.1;
  noisy.extended_class_b_prob = 0.5;
  noisy.static_report_every = 10;
  const std::string noisy_feed =
      maritime::sim::EncodeTaggedNmeaFeed(tuples, sim.fleet(), noisy);
  const size_t kChunk = 4096;
  int scanner_seeds = 0;
  for (const std::string* feed : {&clean_feed, &noisy_feed}) {
    for (size_t at = 0; at < feed->size() && scanner_seeds < 12;
         at += kChunk) {
      WriteSeed(scanner_dir, scanner_seeds++, feed->substr(at, kChunk));
    }
  }

  // Lattice seed: an eight-byte draw seed, then untagged sentences of the
  // noisy feed for fuzz_lattice to splice back in.
  {
    std::string seed("\x01\0\0\0\0\0\0\0", 8);
    for (size_t pos = 0, lines = 0; pos < noisy_feed.size() && lines < 16;
         ++lines) {
      const size_t tab = noisy_feed.find('\t', pos);
      const size_t end = noisy_feed.find('\n', pos);
      if (tab == std::string::npos || end == std::string::npos) break;
      seed.append(noisy_feed, tab + 1, end - tab);
      pos = end + 1;
    }
    WriteSeed(lattice_dir, 0, seed);
  }

  // Sixbit seeds: armored payloads of real encoded messages, prefixed with
  // the fill-bits byte the fuzz target expects.
  int sixbit_seeds = 0;
  for (size_t i = 0; i < tuples.size() && sixbit_seeds < 12; i += 97) {
    maritime::ais::PositionReport r;
    r.type = (i % 2 == 0)
                 ? maritime::ais::MessageType::kPositionReportScheduled
                 : maritime::ais::MessageType::kExtendedClassB;
    r.mmsi = tuples[i].mmsi;
    r.lon_deg = tuples[i].pos.lon;
    r.lat_deg = tuples[i].pos.lat;
    r.sog_knots = 7.5;
    r.cog_deg = 123.4;
    r.ship_name = "FUZZ SEED";
    int fill = 0;
    const std::string payload = maritime::ais::ArmorPayload(
        maritime::ais::EncodePositionReport(r), &fill);
    WriteSeed(sixbit_dir, sixbit_seeds++,
              std::string(1, static_cast<char>(fill)) + payload);
  }
  maritime::ais::StaticVoyageData voyage;
  voyage.mmsi = 237000999;
  voyage.ship_name = "SEED VESSEL";
  voyage.destination = "PIRAEUS";
  voyage.ship_type = 70;
  voyage.draught_m = 7.5;
  int fill = 0;
  const std::string voyage_payload = maritime::ais::ArmorPayload(
      maritime::ais::EncodeStaticVoyageData(voyage), &fill);
  WriteSeed(sixbit_dir, sixbit_seeds++,
            std::string(1, static_cast<char>(fill)) + voyage_payload);

  // CSV seeds: written positional chunks, plus a headerless variant.
  int csv_seeds = 0;
  for (size_t at = 0; at < tuples.size() && csv_seeds < 8; at += 512) {
    const std::vector<maritime::stream::PositionTuple> chunk(
        tuples.begin() + static_cast<ptrdiff_t>(at),
        tuples.begin() +
            static_cast<ptrdiff_t>(std::min(tuples.size(), at + 512)));
    WriteSeed(csv_dir, csv_seeds++, maritime::stream::WritePositionsCsv(chunk));
  }

  // Spatial seeds: the fuzz_spatial grammar is a self-describing byte
  // stream (header picks cell size / threshold / base point, then an
  // interleaved insert/query op stream), so deterministic pseudo-random
  // buffers with distinct seeds already cover distinct regimes; the
  // boundary buffers pin the all-zeros and all-ones header decodings.
  int spatial_seeds = 0;
  for (uint64_t s = 1; s <= 6; ++s) {
    std::string bytes(512, '\0');
    uint64_t x = s * 0x9e3779b97f4a7c15ull;
    for (char& b : bytes) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<char>(x);
    }
    WriteSeed(spatial_dir, spatial_seeds++, bytes);
  }
  WriteSeed(spatial_dir, spatial_seeds++, std::string(64, '\0'));
  WriteSeed(spatial_dir, spatial_seeds++, std::string(64, '\xff'));

  // Snapshot seeds: valid checkpoints of each component, prefixed with the
  // fuzz_snapshot target selector byte, so mutation starts from bytes that
  // pass the outer framing and reach the deep per-field validation paths.
  // Each restores in its target and fits maritime::fuzz::
  // kMaxSnapshotSeedBytes, so the traffic is the first few vessels' only.
  std::vector<maritime::stream::PositionTuple> few;
  for (const auto& t : tuples) {
    for (size_t v = 0; v < 3; ++v) {
      if (t.mmsi == sim.fleet()[v].info.mmsi) few.push_back(t);
    }
  }
  int snapshot_seeds = 0;
  bool oversized = false;
  const auto snapshot_seed = [&](char target, std::string_view bytes) {
    std::string seed(1, target);
    seed.append(bytes);
    if (seed.size() > maritime::fuzz::kMaxSnapshotSeedBytes) {
      std::fprintf(stderr, "snapshot seed %d (target %d) is %zu bytes\n",
                   snapshot_seeds, target, seed.size());
      oversized = true;
    }
    WriteSeed(snapshot_dir, snapshot_seeds++, seed);
  };
  {
    // A pipeline checkpoint a few slides into the simulated stream, over
    // the world fuzz_snapshot restores it in.
    maritime::surveillance::PipelineConfig pcfg;
    pcfg.window =
        maritime::stream::WindowSpec{maritime::kHour, 10 * maritime::kMinute};
    pcfg.partitions = 1;
    pcfg.archive = true;
    maritime::surveillance::SurveillancePipeline pipeline(&world.knowledge,
                                                          pcfg);
    maritime::stream::StreamReplayer replayer(few);
    maritime::stream::QueryTimeSequence q(pcfg.window,
                                          replayer.first_timestamp());
    for (int i = 0; i < 4; ++i) {
      const maritime::Timestamp qt = q.Fire();
      pipeline.RunSlide(qt, replayer.NextBatch(qt));
    }
    maritime::snapshot::Writer w;
    pipeline.SaveTo(w);
    snapshot_seed('\x00', maritime::snapshot::EncodeSnapshotFile(w.bytes()));
    snapshot_seed('\x07', w.bytes());

    maritime::tracker::ShardedMobilityTracker tracker(
        maritime::tracker::TrackerParams{}, 2);
    tracker.ProcessSlide(few, few.back().tau);
    maritime::snapshot::Writer tw;
    tracker.SaveTo(tw);
    snapshot_seed('\x03', tw.bytes());
  }
  {
    maritime::surveillance::SpatialFactTable facts;
    facts.AddFactGroup(7, 100, std::vector<int32_t>{1, 2, 3});
    facts.AddFactGroup(9, 150, std::vector<int32_t>{2});
    maritime::snapshot::Writer w;
    facts.SaveTo(w);
    snapshot_seed('\x01', w.bytes());
  }
  {
    // Archival path with archived, reconstructed and staged traffic: two
    // vessels over a day, long enough to complete trips between ports.
    maritime::sim::FleetConfig day;
    day.vessels = 2;
    day.duration = 24 * maritime::kHour;
    maritime::sim::FleetSimulator day_sim(&world, day);
    const auto day_tuples = day_sim.Generate();
    maritime::mod::HermesArchiver archiver(&world.knowledge);
    maritime::tracker::ShardedMobilityTracker tracker(
        maritime::tracker::TrackerParams{}, 1);
    const auto criticals =
        tracker.ProcessSlide(day_tuples, day_tuples.back().tau);
    const size_t half = criticals.size() / 2;
    archiver.StageBatch({criticals.begin(), criticals.begin() + half});
    archiver.Reconstruct();
    archiver.Load();
    archiver.StageBatch({criticals.begin() + half, criticals.end()});
    archiver.Reconstruct();
    maritime::snapshot::Writer w;
    archiver.SaveTo(w);
    snapshot_seed('\x05', w.bytes());

    maritime::snapshot::Writer sw;
    archiver.store().SaveTo(sw);
    snapshot_seed('\x04', sw.bytes());
  }
  // The tiny schema fuzz_snapshot restores against, in both evaluation
  // modes, with inputs, an open episode and (incremental) cached evidence.
  for (const bool incremental : {false, true}) {
    const auto engine = maritime::fuzz::MakeTinyEngine(incremental);
    const maritime::rtec::EventId on = maritime::fuzz::kTinyOn;
    const maritime::rtec::EventId off = maritime::fuzz::kTinyOff;
    engine->AssertEvent(on, maritime::rtec::Term{0, 1}, 30);
    engine->AssertEvent(on, maritime::rtec::Term{0, 2}, 40);
    engine->AssertEvent(off, maritime::rtec::Term{0, 1}, 70);
    engine->Recognize(60);
    engine->AssertEvent(on, maritime::rtec::Term{0, 3}, 90);
    engine->Recognize(120);
    maritime::snapshot::Writer w;
    engine->SaveTo(w);
    snapshot_seed('\x06', w.bytes());
  }
  if (oversized) return 1;

  std::printf("corpus: %d scanner, %d sixbit, %d csv, %d spatial, "
              "%d snapshot, 1 lattice seeds under %s\n",
              scanner_seeds, sixbit_seeds, csv_seeds, spatial_seeds,
              snapshot_seeds, root.c_str());
  return 0;
}
