#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <string>
#include <utility>

#include "ais/bit_buffer.h"
#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/scanner.h"
#include "ais/sixbit.h"
#include "common/rng.h"

namespace maritime::ais {
namespace {

TEST(BitBufferTest, WriteReadUnsigned) {
  BitWriter w;
  w.WriteUnsigned(0b101101, 6);
  w.WriteUnsigned(0x3FF, 10);
  w.WriteUnsigned(0, 3);
  BitReader r(w.bits());
  EXPECT_EQ(r.ReadUnsigned(6), 0b101101u);
  EXPECT_EQ(r.ReadUnsigned(10), 0x3FFu);
  EXPECT_EQ(r.ReadUnsigned(3), 0u);
  EXPECT_FALSE(r.overflow());
}

TEST(BitBufferTest, SignedRoundTrip) {
  for (const int64_t v : {-1L, -128L, 127L, 0L, -42L, 55L}) {
    BitWriter w;
    w.WriteSigned(v, 8);
    BitReader r(w.bits());
    EXPECT_EQ(r.ReadSigned(8), v) << "value " << v;
  }
}

TEST(BitBufferTest, SignedWideField) {
  // Longitude raw values use 28 bits.
  for (const int64_t v : {-180 * 600000L, 180 * 600000L, 0L, -1L}) {
    BitWriter w;
    w.WriteSigned(v, 28);
    BitReader r(w.bits());
    EXPECT_EQ(r.ReadSigned(28), v);
  }
}

TEST(BitBufferTest, OverflowReadsZeroAndFlags) {
  BitWriter w;
  w.WriteUnsigned(0xFF, 8);
  BitReader r(w.bits());
  EXPECT_EQ(r.ReadUnsigned(8), 0xFFu);
  EXPECT_EQ(r.ReadUnsigned(8), 0u);
  EXPECT_TRUE(r.overflow());
}

TEST(BitBufferTest, SixbitStringRoundTrip) {
  BitWriter w;
  w.WriteSixbitString("HELLO WORLD 42", 20);
  BitReader r(w.bits());
  EXPECT_EQ(r.ReadSixbitString(20), "HELLO WORLD 42");
}

TEST(BitBufferTest, SixbitStringLowercaseMapsToUpper) {
  BitWriter w;
  w.WriteSixbitString("abc", 5);
  BitReader r(w.bits());
  EXPECT_EQ(r.ReadSixbitString(5), "ABC");
}

TEST(SixbitTest, ArmorCharMapping) {
  EXPECT_EQ(ArmorChar(0), '0');
  EXPECT_EQ(ArmorChar(39), 'W');
  EXPECT_EQ(ArmorChar(40), '`');
  EXPECT_EQ(ArmorChar(63), 'w');
}

TEST(SixbitTest, DearmorInvertsArmor) {
  for (int v = 0; v < 64; ++v) {
    EXPECT_EQ(DearmorChar(ArmorChar(static_cast<uint8_t>(v))), v);
  }
  EXPECT_EQ(DearmorChar('X'), -1);  // 'X' is not in the armoring alphabet
  EXPECT_EQ(DearmorChar(' '), -1);
}

TEST(SixbitTest, PayloadRoundTripAllFillSizes) {
  Rng rng(5);
  for (int len = 1; len <= 24; ++len) {
    BitWriter w;
    for (int i = 0; i < len; ++i) w.WriteUnsigned(rng.NextBelow(2), 1);
    int fill = -1;
    const std::string payload = ArmorPayload(w.bits(), &fill);
    EXPECT_GE(fill, 0);
    EXPECT_LE(fill, 5);
    const auto back = DearmorPayload(payload, fill);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(back.value() == w.bits()) << "length " << len;
  }
}

TEST(SixbitTest, DearmorRejectsBadInput) {
  EXPECT_FALSE(DearmorPayload("1", 6).ok());   // fill out of range
  EXPECT_FALSE(DearmorPayload("~", 0).ok());   // bad character
  EXPECT_FALSE(DearmorPayload("1", -1).ok());
}

TEST(NmeaTest, ChecksumMatchesKnownSentence) {
  // Classic reference sentence from the AIVDM documentation.
  EXPECT_EQ(NmeaChecksum("AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0"), "5C");
}

TEST(NmeaTest, FormatParseRoundTrip) {
  NmeaSentence s;
  s.fragment_count = 2;
  s.fragment_index = 1;
  s.sequence_id = 3;
  s.channel = 'B';
  s.payload = "177KQJ5000G?tO`K>RA1wUbN0TKH";
  s.fill_bits = 0;
  const std::string line = FormatSentence(s);
  const auto parsed = ParseSentence(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().fragment_count, 2);
  EXPECT_EQ(parsed.value().fragment_index, 1);
  EXPECT_EQ(parsed.value().sequence_id, 3);
  EXPECT_EQ(parsed.value().channel, 'B');
  EXPECT_EQ(parsed.value().payload, s.payload);
}

TEST(NmeaTest, ChecksumComparisonIsCaseInsensitive) {
  // Real AIS feeds emit lowercase hex checksums (`*3f`); both casings must
  // be accepted.
  NmeaSentence s;
  s.channel = 'B';
  s.payload = "177KQJ5000G?tO`K>RA1wUbN0TKH";
  // This body is the documentation reference sentence; its checksum is "5C",
  // which contains a hex letter so the casings genuinely differ.
  const std::string line = FormatSentence(s);
  ASSERT_TRUE(ParseSentence(line).ok());
  std::string lower = line;
  for (size_t i = lower.size() - 2; i < lower.size(); ++i) {
    if (lower[i] >= 'A' && lower[i] <= 'F') {
      lower[i] = static_cast<char>(lower[i] - 'A' + 'a');
    }
  }
  // The reference sentence's checksum is "5C" -> "5c": genuinely mixed-case.
  ASSERT_NE(lower, line);
  EXPECT_TRUE(ParseSentence(lower).ok()) << lower;
}

TEST(NmeaTest, ParseRejectsBadChecksum) {
  const auto r =
      ParseSentence("!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*00");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(NmeaTest, ParseRejectsFraming) {
  EXPECT_FALSE(ParseSentence("").ok());
  EXPECT_FALSE(ParseSentence("$GPGGA,foo*00").ok());
  EXPECT_FALSE(ParseSentence("!AIVDM,1,1,,B,xyz,0").ok());  // no checksum
  EXPECT_FALSE(ParseSentence("!AIVDM,1,1,B,xyz,0*23").ok());  // 6 fields
}

TEST(NmeaTest, ParseRejectsInconsistentFragments) {
  NmeaSentence s;
  s.fragment_count = 1;
  s.fragment_index = 2;  // index > count
  s.payload = "177KQJ5000G?tO`K>RA1wUbN0TKH";
  EXPECT_FALSE(ParseSentence(FormatSentence(s)).ok());
}

TEST(NmeaTest, ParseToleratesTrailingWhitespace) {
  NmeaSentence s;
  s.payload = "177KQJ5000G?tO`K>RA1wUbN0TKH";
  EXPECT_TRUE(ParseSentence(FormatSentence(s) + "\r\n").ok());
}

TEST(FragmentAssemblerTest, SingleFragmentPassesThrough) {
  FragmentAssembler fa;
  NmeaSentence s;
  s.payload = "ABC";
  s.fill_bits = 2;
  const auto r = fa.Add(s);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().payload, "ABC");
  EXPECT_EQ(r.value().fill_bits, 2);
  EXPECT_EQ(fa.pending_groups(), 0u);
}

TEST(FragmentAssemblerTest, TwoFragmentReassembly) {
  FragmentAssembler fa;
  NmeaSentence f1;
  f1.fragment_count = 2;
  f1.fragment_index = 1;
  f1.sequence_id = 5;
  f1.payload = "AAAA";
  NmeaSentence f2 = f1;
  f2.fragment_index = 2;
  f2.payload = "BBB";
  f2.fill_bits = 4;
  const auto r1 = fa.Add(f1);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fa.pending_groups(), 1u);
  const auto r2 = fa.Add(f2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().payload, "AAAABBB");
  EXPECT_EQ(r2.value().fill_bits, 4);
  EXPECT_EQ(fa.pending_groups(), 0u);
}

TEST(FragmentAssemblerTest, DuplicateFragmentRejected) {
  FragmentAssembler fa;
  NmeaSentence f;
  f.fragment_count = 2;
  f.fragment_index = 2;
  f.sequence_id = 1;
  f.payload = "X";
  EXPECT_FALSE(fa.Add(f).ok());
  const auto dup = fa.Add(f);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kCorruption);
}

TEST(FragmentAssemblerTest, ReusedSequenceIdRestartsGroup) {
  FragmentAssembler fa;
  NmeaSentence f1;
  f1.fragment_count = 2;
  f1.fragment_index = 1;
  f1.sequence_id = 9;
  f1.payload = "OLD1";
  EXPECT_FALSE(fa.Add(f1).ok());
  // A fresh first fragment with the same sequence id: the stale group is
  // dropped, not merged.
  NmeaSentence g1 = f1;
  g1.payload = "NEW1";
  EXPECT_FALSE(fa.Add(g1).ok());
  NmeaSentence g2 = f1;
  g2.fragment_index = 2;
  g2.payload = "NEW2";
  const auto done = fa.Add(g2);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().payload, "NEW1NEW2");
}

TEST(FragmentAssemblerTest, OutOfOrderFragmentsReassemble) {
  // AIS delivery reorders fragments; a first fragment arriving after a
  // later one must join the existing group, not restart it.
  FragmentAssembler fa;
  NmeaSentence f2;
  f2.fragment_count = 2;
  f2.fragment_index = 2;
  f2.sequence_id = 7;
  f2.payload = "BBB";
  f2.fill_bits = 4;
  NmeaSentence f1 = f2;
  f1.fragment_index = 1;
  f1.payload = "AAAA";
  f1.fill_bits = 0;
  const auto r2 = fa.Add(f2);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kNotFound);
  const auto r1 = fa.Add(f1);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1.value().payload, "AAAABBB");
  EXPECT_EQ(r1.value().fill_bits, 4);  // fill bits come from the last fragment
  EXPECT_EQ(fa.pending_groups(), 0u);
}

TEST(FragmentAssemblerTest, ThreeFragmentsFullyReversed) {
  FragmentAssembler fa;
  NmeaSentence f;
  f.fragment_count = 3;
  f.sequence_id = 2;
  for (const int idx : {3, 2, 1}) {
    f.fragment_index = idx;
    const std::string payload(1, static_cast<char>('0' + idx));
    f.payload = payload;
    const auto r = fa.Add(f);
    if (idx == 1) {
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r.value().payload, "123");
    } else {
      EXPECT_FALSE(r.ok());
    }
  }
}

TEST(FragmentAssemblerTest, IncompleteGroupEvictedByAge) {
  // A lost fragment must not pin its group in memory forever.
  FragmentAssembler::Options opts;
  opts.max_group_age_adds = 4;
  FragmentAssembler fa(opts);
  NmeaSentence orphan;
  orphan.fragment_count = 2;
  orphan.fragment_index = 1;
  orphan.sequence_id = 3;
  orphan.payload = "LOST";
  EXPECT_FALSE(fa.Add(orphan).ok());
  EXPECT_EQ(fa.pending_groups(), 1u);
  NmeaSentence single;  // unrelated single-fragment traffic ages the group
  single.payload = "X";
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fa.Add(single).ok());
  EXPECT_EQ(fa.pending_groups(), 0u);
  EXPECT_EQ(fa.evicted_groups(), 1u);
}

TEST(FragmentAssemblerTest, PendingGroupCapEvictsOldest) {
  FragmentAssembler::Options opts;
  opts.max_pending_groups = 2;
  FragmentAssembler fa(opts);
  NmeaSentence f;
  f.fragment_count = 2;
  f.fragment_index = 1;
  f.payload = "P";
  for (int seq = 0; seq < 3; ++seq) {
    f.sequence_id = seq;
    EXPECT_FALSE(fa.Add(f).ok());
  }
  EXPECT_EQ(fa.pending_groups(), 2u);
  EXPECT_EQ(fa.evicted_groups(), 1u);
  // The oldest group (seq 0) was evicted; completing it now fails as a
  // duplicate-free fresh group rather than assembling "P"+"Q".
  f.sequence_id = 1;  // still pending: completes normally
  f.fragment_index = 2;
  f.payload = "Q";
  const auto done = fa.Add(f);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().payload, "PQ");
}

TEST(FragmentAssemblerTest, CompletionIsNotDisturbedByEviction) {
  // Groups that keep receiving fragments are never evicted, regardless of
  // how much unrelated traffic interleaves.
  FragmentAssembler::Options opts;
  opts.max_group_age_adds = 3;
  FragmentAssembler fa(opts);
  NmeaSentence f1;
  f1.fragment_count = 2;
  f1.fragment_index = 1;
  f1.sequence_id = 8;
  f1.payload = "HEAD";
  EXPECT_FALSE(fa.Add(f1).ok());
  NmeaSentence single;
  single.payload = "Y";
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(fa.Add(single).ok());
  NmeaSentence f2 = f1;
  f2.fragment_index = 2;
  f2.payload = "TAIL";
  const auto done = fa.Add(f2);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done.value().payload, "HEADTAIL");
  EXPECT_EQ(fa.evicted_groups(), 0u);
}

TEST(FragmentAssemblerTest, OrphanedFragmentStartsFreshGroup) {
  // A later fragment whose first fragment was lost must not be joined to
  // the next message that reuses its sequence id: that message's own first
  // fragment, arriving more than kMaxFragments sentences later, restarts the
  // group, and the orphan counts as evicted.
  FragmentAssembler fa;
  NmeaSentence orphan;
  orphan.fragment_count = 2;
  orphan.fragment_index = 2;
  orphan.sequence_id = 4;
  orphan.payload = "OLD2";
  EXPECT_FALSE(fa.Add(orphan).ok());
  NmeaSentence single;
  single.payload = "X";
  for (int i = 0; i < kMaxFragments; ++i) EXPECT_TRUE(fa.Add(single).ok());
  NmeaSentence first = orphan;
  first.fragment_index = 1;
  first.payload = "NEW1";
  const auto r1 = fa.Add(first);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fa.evicted_groups(), 1u);
  NmeaSentence second = orphan;
  second.payload = "NEW2";
  const auto r2 = fa.Add(second);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2.value().payload, "NEW1NEW2");
  EXPECT_EQ(fa.pending_groups(), 0u);
}

TEST(FragmentAssemblerTest, AdjacentOutOfOrderPairStillAssembles) {
  // 2 then 1, back to back, and with unrelated traffic in between that
  // stays within kMaxFragments sentences: legal reordering, not an orphan.
  for (const int gap : {0, kMaxFragments - 1}) {
    FragmentAssembler fa;
    NmeaSentence f2;
    f2.fragment_count = 2;
    f2.fragment_index = 2;
    f2.sequence_id = 6;
    f2.payload = "BBB";
    f2.fill_bits = 4;
    EXPECT_FALSE(fa.Add(f2).ok());
    NmeaSentence single;
    single.payload = "X";
    for (int i = 0; i < gap; ++i) EXPECT_TRUE(fa.Add(single).ok());
    NmeaSentence f1 = f2;
    f1.fragment_index = 1;
    f1.payload = "AAAA";
    f1.fill_bits = 0;
    const auto r = fa.Add(f1);
    ASSERT_TRUE(r.ok()) << "gap " << gap << ": " << r.status();
    EXPECT_EQ(r.value().payload, "AAAABBB");
    EXPECT_EQ(r.value().fill_bits, 4);
    EXPECT_EQ(fa.evicted_groups(), 0u);
  }
}

PositionReport MakeReport(MessageType type) {
  PositionReport r;
  r.type = type;
  r.mmsi = 237001234;
  r.nav_status = NavStatus::kUnderWayUsingEngine;
  r.lon_deg = 24.12345;
  r.lat_deg = 37.54321;
  r.sog_knots = 12.3;
  r.cog_deg = 231.4;
  r.true_heading_deg = 230;
  r.utc_second = 42;
  r.position_accuracy_high = true;
  return r;
}

class MessageRoundTripTest : public ::testing::TestWithParam<MessageType> {};

TEST_P(MessageRoundTripTest, EncodeDecodePreservesFields) {
  PositionReport in = MakeReport(GetParam());
  if (GetParam() == MessageType::kExtendedClassB) {
    in.ship_name = "WIND DANCER";
    in.ship_type = 37;
  }
  const auto bits = EncodePositionReport(in);
  const size_t expected_bits =
      GetParam() == MessageType::kExtendedClassB ? 312u : 168u;
  EXPECT_EQ(bits.size(), expected_bits);
  const auto out = DecodePositionReport(bits);
  ASSERT_TRUE(out.ok()) << out.status();
  const PositionReport& r = out.value();
  EXPECT_EQ(r.type, in.type);
  EXPECT_EQ(r.mmsi, in.mmsi);
  // Coordinates quantize to 1/10000 arc-minute (~0.18 m).
  EXPECT_NEAR(r.lon_deg, in.lon_deg, 1.0 / 600000.0);
  EXPECT_NEAR(r.lat_deg, in.lat_deg, 1.0 / 600000.0);
  ASSERT_TRUE(r.sog_knots.has_value());
  EXPECT_NEAR(*r.sog_knots, 12.3, 0.05);
  ASSERT_TRUE(r.cog_deg.has_value());
  EXPECT_NEAR(*r.cog_deg, 231.4, 0.05);
  ASSERT_TRUE(r.true_heading_deg.has_value());
  EXPECT_EQ(*r.true_heading_deg, 230);
  EXPECT_EQ(r.utc_second, 42);
  EXPECT_TRUE(r.position_accuracy_high);
  if (GetParam() == MessageType::kExtendedClassB) {
    EXPECT_EQ(r.ship_name, "WIND DANCER");
    EXPECT_EQ(r.ship_type, 37);
  }
  if (GetParam() == MessageType::kPositionReportScheduled) {
    EXPECT_EQ(r.nav_status, NavStatus::kUnderWayUsingEngine);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MessageRoundTripTest,
                         ::testing::Values(
                             MessageType::kPositionReportScheduled,
                             MessageType::kPositionReportAssigned,
                             MessageType::kPositionReportResponse,
                             MessageType::kStandardClassB,
                             MessageType::kExtendedClassB));

TEST(MessageTest, NotAvailableSentinels) {
  PositionReport in = MakeReport(MessageType::kPositionReportScheduled);
  in.sog_knots = std::nullopt;
  in.cog_deg = std::nullopt;
  in.true_heading_deg = std::nullopt;
  const auto out = DecodePositionReport(EncodePositionReport(in));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().sog_knots.has_value());
  EXPECT_FALSE(out.value().cog_deg.has_value());
  EXPECT_FALSE(out.value().true_heading_deg.has_value());
}

TEST(MessageTest, NegativeCoordinatesRoundTrip) {
  PositionReport in = MakeReport(MessageType::kPositionReportScheduled);
  in.lon_deg = -70.25;
  in.lat_deg = -33.125;
  const auto out = DecodePositionReport(EncodePositionReport(in));
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value().lon_deg, -70.25, 1e-5);
  EXPECT_NEAR(out.value().lat_deg, -33.125, 1e-5);
}

TEST(MessageTest, DecodeRejectsTruncatedPayload) {
  auto bits = EncodePositionReport(
      MakeReport(MessageType::kPositionReportScheduled));
  bits.Truncate(100);
  const auto out = DecodePositionReport(bits);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(MessageTest, DecodeRejectsUnsupportedType) {
  BitWriter w;
  w.WriteUnsigned(5, 6);  // type 5: static voyage data, unsupported
  // Pad to a plausible body length; fields are at most 64 bits wide.
  for (int padded = 0; padded < 162; padded += 54) w.WriteUnsigned(0, 54);
  const auto out = DecodePositionReport(w.bits());
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST(MessageTest, SupportedTypePredicate) {
  for (const int t : {1, 2, 3, 18, 19}) EXPECT_TRUE(IsSupportedType(t));
  for (const int t : {0, 4, 5, 17, 20, 24, 27}) {
    EXPECT_FALSE(IsSupportedType(t));
  }
}

TEST(EncodeToNmeaTest, ClassAFitsOneSentence) {
  const auto lines =
      EncodeToNmea(MakeReport(MessageType::kPositionReportScheduled));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(ParseSentence(lines[0]).ok());
}

TEST(EncodeToNmeaTest, Type19SpansTwoFragments) {
  PositionReport r = MakeReport(MessageType::kExtendedClassB);
  r.ship_name = "LONG NAME VESSEL";
  const auto lines = EncodeToNmea(r, 'B', 4);
  ASSERT_EQ(lines.size(), 2u);
  const auto s1 = ParseSentence(lines[0]);
  const auto s2 = ParseSentence(lines[1]);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1.value().fragment_count, 2);
  EXPECT_EQ(s1.value().sequence_id, 4);
  EXPECT_EQ(s2.value().fragment_index, 2);
}

TEST(ScannerTest, AcceptsValidClassA) {
  DataScanner scanner;
  const auto lines =
      EncodeToNmea(MakeReport(MessageType::kPositionReportScheduled));
  const auto r = scanner.FeedLine(lines[0], 1234);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().mmsi, 237001234u);
  EXPECT_EQ(r.value().tau, 1234);
  EXPECT_NEAR(r.value().pos.lon, 24.12345, 1e-5);
  EXPECT_EQ(scanner.stats().accepted, 1u);
}

TEST(ScannerTest, ReassemblesType19) {
  DataScanner scanner;
  PositionReport rep = MakeReport(MessageType::kExtendedClassB);
  rep.ship_name = "TWO PART";
  const auto lines = EncodeToNmea(rep);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(scanner.FeedLine(lines[0], 10).ok());
  const auto r = scanner.FeedLine(lines[1], 11);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().mmsi, rep.mmsi);
  EXPECT_EQ(r.value().tau, 11);
  EXPECT_NEAR(r.value().pos.lon, rep.lon_deg, 1e-5);
  EXPECT_NEAR(r.value().pos.lat, rep.lat_deg, 1e-5);
  EXPECT_EQ(scanner.stats().fragment_pending, 1u);
  EXPECT_EQ(scanner.stats().accepted, 1u);
}

TEST(ScannerTest, DiscardsBadChecksum) {
  DataScanner scanner;
  auto line = EncodeToNmea(MakeReport(MessageType::kPositionReportScheduled))
                  .front();
  line[15] ^= 0x1;  // corrupt one payload character
  EXPECT_FALSE(scanner.FeedLine(line, 5).ok());
  EXPECT_EQ(scanner.stats().framing_errors, 1u);
  EXPECT_EQ(scanner.stats().accepted, 0u);
}

TEST(ScannerTest, DiscardsSentinelPosition) {
  DataScanner scanner;
  PositionReport r = MakeReport(MessageType::kPositionReportScheduled);
  r.lon_deg = 181.0;  // "not available" sentinel
  const auto lines = EncodeToNmea(r);
  EXPECT_FALSE(scanner.FeedLine(lines[0], 5).ok());
  EXPECT_EQ(scanner.stats().invalid_position, 1u);
}

TEST(ScannerTest, TaggedFormat) {
  DataScanner scanner;
  const auto line =
      EncodeToNmea(MakeReport(MessageType::kPositionReportScheduled)).front();
  const auto r = scanner.FeedTagged("98765\t" + line);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tau, 98765);
  EXPECT_FALSE(scanner.FeedTagged("notanumber\t" + line).ok());
  EXPECT_FALSE(scanner.FeedTagged(line).ok());  // no tag
}

TEST(ScannerTest, ScanTaggedLogFiltersNoise) {
  const auto line =
      EncodeToNmea(MakeReport(MessageType::kPositionReportScheduled)).front();
  std::string log;
  log += "100\t" + line + "\n";
  log += "garbage line\n";
  log += "\n";
  log += "200\t" + line + "\n";
  DataScanner scanner;
  const auto tuples = scanner.ScanTaggedLog(log);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].tau, 100);
  EXPECT_EQ(tuples[1].tau, 200);
}

// --- Edge behaviour of the decoder, as a table ------------------------------

// The ScannerStats counter a fresh scanner moved for one line; "" when none
// or several did.
std::string CounterMoved(const std::string& line) {
  DataScanner scanner;
  (void)scanner.FeedLine(line, 0);
  const ScannerStats& s = scanner.stats();
  const std::pair<const char*, uint64_t> counters[] = {
      {"framing_errors", s.framing_errors},
      {"fragment_pending", s.fragment_pending},
      {"fragment_errors", s.fragment_errors},
      {"payload_errors", s.payload_errors},
      {"unsupported_type", s.unsupported_type},
      {"invalid_position", s.invalid_position},
      {"static_reports", s.static_reports},
      {"accepted", s.accepted}};
  std::string moved;
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    if (!moved.empty() || value != 1) return "";
    moved = name;
  }
  return moved;
}

std::string SingleSentence(const std::string& payload, int fill_bits) {
  const std::string body =
      "AIVDM,1,1,,A," + payload + "," + std::to_string(fill_bits);
  return "!" + body + "*" + NmeaChecksum(body);
}

std::string Lowercase(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

struct EdgeCase {
  int type;
  size_t bits_needed;  ///< Shortest payload the decoder accepts.
  const char* success;  ///< Counter a long-enough payload lands in.
};

// Each type's full payload, truncated to every length and declared with
// every fill-bit value, lands in `success` exactly when 6 * chars - fill
// reaches `bits_needed`, and in payload_errors otherwise (fill bits beyond
// the payload included). These are the byte-per-bit decoder's outcomes.
constexpr EdgeCase kEdgeCases[] = {
    {1, 168, "accepted"},  {2, 168, "accepted"},
    {3, 168, "accepted"},  {5, 424, "static_reports"},
    {18, 168, "accepted"}, {19, 312, "accepted"},
};

std::string ArmoredMessage(int type) {
  int fill = 0;
  if (type == 5) {
    StaticVoyageData d;
    d.mmsi = 237001234;
    d.ship_name = "TABLE VESSEL";
    d.destination = "PIRAEUS";
    d.ship_type = 70;
    d.draught_m = 7.5;
    return ArmorPayload(EncodeStaticVoyageData(d), &fill);
  }
  PositionReport r = MakeReport(static_cast<MessageType>(type));
  r.ship_name = "TABLE VESSEL";
  return ArmorPayload(EncodePositionReport(r), &fill);
}

TEST(ScannerEdgeTableTest, TruncationAndFillBitsLandInOneCounter) {
  for (const EdgeCase& c : kEdgeCases) {
    const std::string full = ArmoredMessage(c.type);
    for (size_t chars = 0; chars <= full.size(); ++chars) {
      for (int fill = 0; fill <= 5; ++fill) {
        const bool long_enough =
            6 * chars >= c.bits_needed + static_cast<size_t>(fill);
        EXPECT_EQ(CounterMoved(SingleSentence(full.substr(0, chars), fill)),
                  long_enough ? c.success : "payload_errors")
            << "type " << c.type << ", " << chars << " chars, fill " << fill;
      }
    }
  }
}

TEST(ScannerEdgeTableTest, LowercaseChecksumsAndLongPayloads) {
  for (const EdgeCase& c : kEdgeCases) {
    const std::string full = ArmoredMessage(c.type);
    const int fill = static_cast<int>((6 - c.bits_needed % 6) % 6);
    const std::string line = SingleSentence(full, fill);
    const std::string lower =
        line.substr(0, line.size() - 2) + Lowercase(line.substr(line.size() - 2));
    EXPECT_EQ(CounterMoved(lower), c.success) << "type " << c.type;
    std::string wrong = lower;
    wrong.back() = wrong.back() == 'a' ? 'b' : 'a';
    EXPECT_EQ(CounterMoved(wrong), "framing_errors") << "type " << c.type;

    // Past PayloadBits::kInlineBits only the length is kept, which is all
    // the decoders look at there.
    std::string padded = full;
    while (padded.size() * 6 <= PayloadBits::kInlineBits + 64) padded += '0';
    EXPECT_EQ(CounterMoved(SingleSentence(padded, 0)), c.success)
        << "type " << c.type;
    EXPECT_EQ(CounterMoved(SingleSentence(padded, 5)), c.success)
        << "type " << c.type;
    EXPECT_EQ(CounterMoved(SingleSentence(padded + "~", 0)), "payload_errors")
        << "type " << c.type;
  }
}

TEST(BitBufferTest, PackedBitsPastTheInlineWordsKeepTheirLength) {
  PayloadBits bits;
  for (size_t i = 0; i < PayloadBits::kInlineBits / 60 + 2; ++i) {
    bits.Append(0xFFFFFFFFFFFFFFFull, 60);
  }
  ASSERT_GT(bits.size(), PayloadBits::kInlineBits);
  BitReader reader(bits);
  reader.Skip(static_cast<int>(PayloadBits::kInlineBits) - 4);
  // The last stored bits, then unstored ones that read as zero without
  // overflowing: they are within size().
  EXPECT_EQ(reader.ReadUnsigned(8), 0xF0u);
  EXPECT_FALSE(reader.overflow());
  bits.Truncate(70);
  EXPECT_EQ(bits.size(), 70u);
  EXPECT_EQ(bits.Extract(60, 10), 0x3FFu);
  EXPECT_EQ(bits.Extract(64, 16), 0xFC00u);  // Zero past the end.
}

// --- Regression tests for defects surfaced by the fuzzers / UBSan ---------

TEST(NmeaRegressionTest, HugeFragmentCountIsRejected) {
  // A hostile fragment count used to pre-size the FragmentAssembler's
  // fragment table to match (memory blow-up); counts beyond the one-digit
  // NMEA field are now rejected at parse time.
  const std::string body = "AIVDM,999999,1,3,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0";
  const std::string line = "!" + body + "*" + NmeaChecksum(body);
  const auto parsed = ParseSentence(line);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);

  FragmentAssembler assembler;
  EXPECT_EQ(assembler.pending_groups(), 0u);
}

TEST(NmeaRegressionTest, NumericFieldOverflowFallsBackInsteadOfUB) {
  // Numeric fields longer than int used to accumulate into signed overflow
  // (undefined behavior); they now fall back to the field's invalid value
  // and the sentence is rejected by validation.
  const std::string body =
      "AIVDM,99999999999999999999,1,3,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0";
  const std::string line = "!" + body + "*" + NmeaChecksum(body);
  EXPECT_FALSE(ParseSentence(line).ok());
}

TEST(NmeaRegressionTest, MaxFragmentsBoundaryStillAssembles) {
  // The cap must not break the largest legal group (9 fragments).
  FragmentAssembler assembler;
  Result<FragmentAssembler::Assembled> last =
      Status::NotFound("no fragment yet");
  for (int i = 1; i <= kMaxFragments; ++i) {
    const std::string payload(4, static_cast<char>('0' + i));
    NmeaSentence s;
    s.fragment_count = kMaxFragments;
    s.fragment_index = i;
    s.sequence_id = 5;
    s.payload = payload;
    s.fill_bits = i == kMaxFragments ? 2 : 0;
    last = assembler.Add(s);
    if (i < kMaxFragments) {
      EXPECT_FALSE(last.ok());
    }
  }
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().payload.size(), 4u * kMaxFragments);
  EXPECT_EQ(last.value().fill_bits, 2);
}

TEST(ScannerRegressionTest, OverlongTimestampTagIsRejectedNotOverflowed) {
  // 25 digits exceed int64; accumulation used to be UB. The line must be
  // cleanly rejected and counted as a framing error.
  DataScanner scanner;
  const auto r = scanner.FeedTagged(
      "9999999999999999999999999\t!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(scanner.stats().framing_errors, 1u);

  // The largest representable tag still parses.
  DataScanner ok_scanner;
  const auto max_tag = std::to_string(std::numeric_limits<int64_t>::max());
  const auto r2 = ok_scanner.FeedTagged(max_tag + "\tgarbage");
  // Rejected for the sentence, not for the timestamp: no framing error on
  // the tag itself means the number parsed.
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().message(), "sentence does not start with '!'");
}

TEST(SixbitRegressionTest, TruncatedMultipartPayloadSetsOverflowNotCrash) {
  // A type 19 payload cut mid-field (as when the second fragment of a group
  // is lost and a stale group is mis-assembled) must surface as Corruption.
  PositionReport r;
  r.type = MessageType::kExtendedClassB;
  r.mmsi = 237001000;
  r.lon_deg = 23.6;
  r.lat_deg = 37.9;
  PayloadBits bits = EncodePositionReport(r);
  bits.Truncate(bits.size() / 2);
  const auto decoded = DecodePositionReport(bits);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace maritime::ais
