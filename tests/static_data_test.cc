#include <gtest/gtest.h>

#include "ais/messages.h"
#include "ais/scanner.h"
#include "maritime/ais_bridge.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"

namespace maritime {
namespace {

ais::StaticVoyageData SampleStatic() {
  ais::StaticVoyageData d;
  d.mmsi = 237001234;
  d.imo_number = 9123456;
  d.call_sign = "SV12345";
  d.ship_name = "MT NIGHTRUNNER";
  d.ship_type = 80;  // tanker
  d.draught_m = 11.5;
  d.eta_month = 7;
  d.eta_day = 14;
  d.eta_hour = 6;
  d.eta_minute = 30;
  d.destination = "PIRAEUS";
  return d;
}

TEST(StaticVoyageTest, EncodeDecodeRoundTrip) {
  const auto bits = ais::EncodeStaticVoyageData(SampleStatic());
  EXPECT_EQ(bits.size(), 424u);
  EXPECT_EQ(ais::PeekMessageType(bits), 5);
  const auto out = ais::DecodeStaticVoyageData(bits);
  ASSERT_TRUE(out.ok()) << out.status();
  const ais::StaticVoyageData& d = out.value();
  EXPECT_EQ(d.mmsi, 237001234u);
  EXPECT_EQ(d.imo_number, 9123456u);
  EXPECT_EQ(d.call_sign, "SV12345");
  EXPECT_EQ(d.ship_name, "MT NIGHTRUNNER");
  EXPECT_EQ(d.ship_type, 80);
  EXPECT_NEAR(d.draught_m, 11.5, 0.05);
  EXPECT_EQ(d.eta_month, 7);
  EXPECT_EQ(d.eta_day, 14);
  EXPECT_EQ(d.eta_hour, 6);
  EXPECT_EQ(d.eta_minute, 30);
  EXPECT_EQ(d.destination, "PIRAEUS");
}

TEST(StaticVoyageTest, DecodeRejectsWrongType) {
  ais::PositionReport pos;
  pos.mmsi = 1;
  pos.lon_deg = 24;
  pos.lat_deg = 37;
  const auto out =
      ais::DecodeStaticVoyageData(ais::EncodePositionReport(pos));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(StaticVoyageTest, DecodeRejectsTruncated) {
  auto bits = ais::EncodeStaticVoyageData(SampleStatic());
  bits.Truncate(300);
  const auto out = ais::DecodeStaticVoyageData(bits);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(StaticVoyageTest, NmeaSpansThreeFragments) {
  const auto lines = ais::EncodeStaticToNmea(SampleStatic());
  ASSERT_EQ(lines.size(), 3u);  // 424 bits -> 71 armored chars -> 3 x 28
  for (const auto& l : lines) {
    EXPECT_TRUE(ais::ParseSentence(l).ok()) << l;
  }
}

TEST(ScannerStaticTest, DecodesType5AndBuffers) {
  ais::DataScanner scanner;
  const auto lines = ais::EncodeStaticToNmea(SampleStatic());
  for (size_t i = 0; i < lines.size(); ++i) {
    const auto r = scanner.FeedLine(lines[i], 100);
    EXPECT_FALSE(r.ok()) << "type 5 yields no position tuple";
  }
  EXPECT_EQ(scanner.stats().static_reports, 1u);
  EXPECT_EQ(scanner.stats().accepted, 0u);
  const auto statics = scanner.TakeStaticReports();
  ASSERT_EQ(statics.size(), 1u);
  EXPECT_EQ(statics[0].ship_name, "MT NIGHTRUNNER");
  EXPECT_TRUE(scanner.TakeStaticReports().empty()) << "buffer drained";
}

TEST(VesselTypeCodeTest, Mapping) {
  using surveillance::VesselType;
  using surveillance::VesselTypeFromAisCode;
  EXPECT_EQ(VesselTypeFromAisCode(30), VesselType::kFishing);
  EXPECT_EQ(VesselTypeFromAisCode(37), VesselType::kPleasure);
  EXPECT_EQ(VesselTypeFromAisCode(60), VesselType::kPassenger);
  EXPECT_EQ(VesselTypeFromAisCode(69), VesselType::kPassenger);
  EXPECT_EQ(VesselTypeFromAisCode(74), VesselType::kCargo);
  EXPECT_EQ(VesselTypeFromAisCode(83), VesselType::kTanker);
  EXPECT_EQ(VesselTypeFromAisCode(0), VesselType::kOther);
  EXPECT_EQ(VesselTypeFromAisCode(52), VesselType::kOther);
}

TEST(AisBridgeTest, UpsertCreatesAndUpdates) {
  surveillance::KnowledgeBase kb;
  surveillance::ApplyStaticVoyageData(kb, SampleStatic());
  const auto* v = kb.FindVessel(237001234);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->name, "MT NIGHTRUNNER");
  EXPECT_EQ(v->type, surveillance::VesselType::kTanker);
  EXPECT_NEAR(v->draft_m, 11.5, 0.05);
  EXPECT_FALSE(v->fishing_gear);

  // A fishing type 5 flips the gear flag.
  ais::StaticVoyageData trawler = SampleStatic();
  trawler.mmsi = 555;
  trawler.ship_type = 30;
  surveillance::ApplyStaticVoyageData(kb, trawler);
  EXPECT_TRUE(kb.IsFishing(555));
}

TEST(AisBridgeTest, KnowledgeLearnedFromSimulatedFeed) {
  // End to end: the simulated feed interleaves type 5 broadcasts; a scanner
  // plus the bridge populate an initially empty knowledge base with the
  // fleet's static data.
  sim::WorldParams wp;
  wp.ports = 6;
  wp.protected_areas = 2;
  wp.forbidden_fishing_areas = 2;
  wp.shallow_areas = 1;
  sim::World world = sim::BuildWorld(77, wp);
  sim::FleetConfig cfg;
  cfg.vessels = 10;
  cfg.duration = 4 * kHour;
  cfg.seed = 78;
  sim::FleetSimulator fleet(&world, cfg);
  const auto stream = fleet.Generate();
  sim::NmeaFeedOptions opts;
  opts.static_report_every = 10;
  const std::string feed =
      sim::EncodeTaggedNmeaFeed(stream, fleet.fleet(), opts);

  surveillance::KnowledgeBase learned;
  ais::DataScanner scanner;
  scanner.ScanTaggedLog(feed);
  EXPECT_GT(scanner.stats().static_reports, 0u);
  const size_t applied = surveillance::ApplyStaticReports(learned, scanner);
  EXPECT_GT(applied, 0u);
  EXPECT_GT(learned.vessel_count(), 0u);
  // Learned drafts match the simulated fleet's (to type 5's 0.1 m
  // resolution and its 25.5 m cap).
  for (const auto& v : fleet.fleet()) {
    const auto* found = learned.FindVessel(v.info.mmsi);
    if (found == nullptr) continue;  // class B vessels don't send type 5
    EXPECT_NEAR(found->draft_m, v.info.draft_m, 0.06);
    EXPECT_EQ(found->type, v.info.type);
  }
}

}  // namespace
}  // namespace maritime
