// Differential tests of the Data Scanner's one-pass decoder. The
// word-at-a-time ParseSentence is checked against a byte-at-a-time parser
// kept here, and DataScanner against the public decoding steps chained one
// after the other, on a simulated feed corrupted the ways a radio link or a
// hostile sender corrupts one.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ais/bit_buffer.h"
#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/scanner.h"
#include "ais/sixbit.h"
#include "common/rng.h"
#include "sim/generator.h"
#include "sim/nmea_feed.h"
#include "sim/world.h"

namespace maritime::ais {
namespace {

// --- ParseSentence against a byte-at-a-time reference -----------------------

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

char AsciiUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

// A numeric field: all digits and at most seven significant ones, else
// `fallback` (every AIVDM number is tiny; longer ones are corrupt).
int ReferenceField(std::string_view f, int fallback) {
  if (f.empty()) return fallback;
  for (const char c : f) {
    if (c < '0' || c > '9') return fallback;
  }
  while (f.size() > 1 && f.front() == '0') f.remove_prefix(1);
  if (f.size() > 7) return fallback;
  int v = 0;
  std::from_chars(f.data(), f.data() + f.size(), v);
  return v;
}

// The sentence checks of ParseSentence, one byte at a time.
Result<NmeaSentence> ReferenceParse(std::string_view line) {
  while (!line.empty() && IsSpace(line.front())) line.remove_prefix(1);
  while (!line.empty() && IsSpace(line.back())) line.remove_suffix(1);
  if (line.empty() || line[0] != '!') return Status::Corruption("no '!'");
  const size_t star = line.rfind('*');
  if (star == std::string_view::npos || star + 3 != line.size()) {
    return Status::Corruption("no checksum");
  }
  const std::string_view body = line.substr(1, star - 1);
  unsigned sum = 0;
  std::vector<size_t> commas;
  for (size_t i = 0; i < body.size(); ++i) {
    sum ^= static_cast<unsigned char>(body[i]);
    if (body[i] == ',') commas.push_back(i);
  }
  char hex[3];
  std::snprintf(hex, sizeof(hex), "%02X", sum);
  if (AsciiUpper(line[star + 1]) != hex[0] ||
      AsciiUpper(line[star + 2]) != hex[1]) {
    return Status::Corruption("checksum mismatch");
  }
  if (commas.size() != 6) return Status::Corruption("field count");
  std::string_view f[7];
  size_t start = 0;
  for (size_t k = 0; k < 6; ++k) {
    f[k] = body.substr(start, commas[k] - start);
    start = commas[k] + 1;
  }
  f[6] = body.substr(start);
  if (f[0] != "AIVDM" && f[0] != "AIVDO") return Status::Corruption("talker");
  NmeaSentence s;
  s.talker = f[0];
  s.fragment_count = ReferenceField(f[1], 0);
  s.fragment_index = ReferenceField(f[2], 0);
  s.sequence_id = ReferenceField(f[3], -1);
  s.channel = f[4].empty() ? '\0' : f[4][0];
  s.payload = f[5];
  s.fill_bits = ReferenceField(f[6], -1);
  if (s.fragment_count < 1 || s.fragment_count > 9 || s.fragment_index < 1 ||
      s.fragment_index > s.fragment_count || s.fill_bits < 0 ||
      s.fill_bits > 5 || (s.fragment_count > 1 && s.sequence_id < 0)) {
    return Status::Corruption("field values");
  }
  return s;
}

std::string Escaped(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7F) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

// "" when ParseSentence and the reference agree on `line`: the same ok and
// status code, and the same fields (text fields viewing the same bytes).
std::string ParseMismatch(std::string_view line) {
  const Result<NmeaSentence> got = ParseSentence(line);
  const Result<NmeaSentence> want = ReferenceParse(line);
  const std::string where = " on \"" + Escaped(line) + "\"";
  if (got.ok() != want.ok()) {
    return std::string(got.ok() ? "accepted" : "rejected") + where;
  }
  if (!got.ok()) {
    return got.status().code() == want.status().code() ? ""
                                                       : "status code" + where;
  }
  const NmeaSentence& g = got.value();
  const NmeaSentence& w = want.value();
  const auto same_view = [](std::string_view a, std::string_view b) {
    return a.data() == b.data() && a.size() == b.size();
  };
  if (!same_view(g.talker, w.talker)) return "talker" + where;
  if (g.fragment_count != w.fragment_count) return "fragment_count" + where;
  if (g.fragment_index != w.fragment_index) return "fragment_index" + where;
  if (g.sequence_id != w.sequence_id) return "sequence_id" + where;
  if (g.channel != w.channel) return "channel" + where;
  if (!same_view(g.payload, w.payload)) return "payload" + where;
  if (g.fill_bits != w.fill_bits) return "fill_bits" + where;
  return "";
}

// `line` with its checksum recomputed over the body, when it has the
// "!<body>*hh" frame; unchanged otherwise.
std::string Rechecksummed(const std::string& line) {
  if (line.size() < 4 || line[0] != '!' || line[line.size() - 3] != '*') {
    return line;
  }
  return line.substr(0, line.size() - 2) +
         NmeaChecksum(std::string_view(line).substr(1, line.size() - 4));
}

// Valid sentences of every shape the feed carries: single-sentence class A
// and class B, both fragments of a type 19, the three of a type 5.
std::vector<std::string> SampleSentences() {
  std::vector<std::string> out;
  PositionReport r;
  r.mmsi = 237001234;
  r.lon_deg = 24.12345;
  r.lat_deg = -37.5;
  r.sog_knots = 12.3;
  r.ship_name = "SAMPLE VESSEL";
  for (const MessageType t :
       {MessageType::kPositionReportScheduled, MessageType::kStandardClassB,
        MessageType::kExtendedClassB}) {
    r.type = t;
    for (std::string& s : EncodeToNmea(r, 'B', 7)) out.push_back(std::move(s));
  }
  StaticVoyageData d;
  d.mmsi = 237001234;
  d.ship_name = "SAMPLE VESSEL";
  d.destination = "PIRAEUS";
  for (std::string& s : EncodeStaticToNmea(d, 'A', 3)) {
    out.push_back(std::move(s));
  }
  return out;
}

TEST(SentenceDifferentialTest, EveryBodyLength) {
  Rng rng(1);
  const std::string shape = "AIVDM,1,1,,A,";
  for (size_t len = 0; len <= 96; ++len) {
    for (int trial = 0; trial < 64; ++trial) {
      std::string body;
      if (trial % 2 == 0) {
        // A well-formed body stretched or cut to `len`.
        if (len >= shape.size() + 2) {
          body = shape;
          while (body.size() < len - 2) {
            body += ArmorChar(static_cast<uint8_t>(rng.NextBelow(64)));
          }
          body += ",0";
        } else {
          body = (shape + ",0").substr(0, len);
        }
      } else {
        // Random bytes, dense in commas and stars.
        for (size_t i = 0; i < len; ++i) {
          const uint64_t pick = rng.NextBelow(8);
          body += pick < 2   ? ','
                  : pick < 3 ? '*'
                             : static_cast<char>(rng.NextBelow(256));
        }
      }
      const std::string line = "!" + body + "*" + NmeaChecksum(body);
      ASSERT_EQ(ParseMismatch(line), "");
      std::string wrong = line;
      wrong.back() = wrong.back() == '0' ? '1' : '0';
      ASSERT_EQ(ParseMismatch(wrong), "");
      ASSERT_EQ(ParseMismatch(line.substr(0, 1 + len)), "");  // No checksum.
    }
  }
}

TEST(SentenceDifferentialTest, CommaOrStarAtEveryOffset) {
  for (const std::string& base : SampleSentences()) {
    ASSERT_TRUE(ParseSentence(base).ok()) << base;
    for (size_t p = 0; p <= base.size(); ++p) {
      for (const char c : {',', '*'}) {
        std::string inserted = base;
        inserted.insert(p, 1, c);
        ASSERT_EQ(ParseMismatch(inserted), "");
        ASSERT_EQ(ParseMismatch(Rechecksummed(inserted)), "");
        if (p == base.size()) continue;
        std::string replaced = base;
        replaced[p] = c;
        ASSERT_EQ(ParseMismatch(replaced), "");
        ASSERT_EQ(ParseMismatch(Rechecksummed(replaced)), "");
      }
    }
  }
}

TEST(SentenceDifferentialTest, EveryByteAtEveryPosition) {
  // Covers the zero-byte test's near misses next to a comma (0x2D, 0xAC,
  // 0x2C ^ 0x80, ...) and bytes of 0x80 and above.
  for (const std::string& base : SampleSentences()) {
    for (size_t p = 0; p < base.size(); ++p) {
      for (int b = 0; b < 256; ++b) {
        std::string line = base;
        line[p] = static_cast<char>(b);
        ASSERT_EQ(ParseMismatch(line), "");
        ASSERT_EQ(ParseMismatch(Rechecksummed(line)), "");
      }
    }
  }
}

TEST(SentenceDifferentialTest, ChecksumCaseAndSurroundingWhitespace) {
  size_t lowercase_letters = 0;
  for (int seq = 0; seq < 200; ++seq) {
    PositionReport r;
    r.mmsi = 200000000u + static_cast<uint32_t>(seq) * 7919u;
    r.lon_deg = -170.0 + seq * 1.7;
    r.lat_deg = -80.0 + seq * 0.8;
    r.type = seq % 2 == 0 ? MessageType::kPositionReportAssigned
                          : MessageType::kExtendedClassB;
    for (const std::string& line : EncodeToNmea(r, 'A', seq)) {
      std::string lower = line;
      for (size_t i = lower.size() - 2; i < lower.size(); ++i) {
        if (lower[i] >= 'A' && lower[i] <= 'F') {
          lower[i] = static_cast<char>(lower[i] - 'A' + 'a');
          ++lowercase_letters;
        }
      }
      std::string mixed = line;
      if (mixed.back() >= 'A' && mixed.back() <= 'F') {
        mixed.back() = static_cast<char>(mixed.back() - 'A' + 'a');
      }
      for (const std::string& l : {line, lower, mixed}) {
        ASSERT_TRUE(ParseSentence(l).ok()) << l;
        ASSERT_EQ(ParseMismatch(l), "");
        ASSERT_EQ(ParseMismatch(" \t" + l + "\r\n"), "");
      }
    }
  }
  EXPECT_GT(lowercase_letters, 50u);
}

// --- DearmorInto against a character-at-a-time reference --------------------

Result<PayloadBits> ReferenceDearmor(std::string_view payload, int fill_bits) {
  if (fill_bits < 0 || fill_bits > 5) return Status::InvalidArgument("fill");
  BitWriter w;
  for (const char c : payload) {
    const int u = static_cast<unsigned char>(c);
    const int v = u >= 48 && u <= 87 ? u - 48 : u >= 96 && u <= 119 ? u - 56 : -1;
    if (v < 0) return Status::Corruption("character");
    w.WriteUnsigned(static_cast<uint64_t>(v), 6);
  }
  if (static_cast<size_t>(fill_bits) > w.bit_size()) {
    return Status::Corruption("fill");
  }
  PayloadBits bits = w.bits();
  bits.Truncate(bits.size() - static_cast<size_t>(fill_bits));
  return bits;
}

// "" when DearmorPayload, and DearmorInto a buffer that still holds the
// previous call's bits, agree with the reference on (`payload`, `fill`).
std::string DearmorMismatch(std::string_view payload, int fill,
                            PayloadBits* reused) {
  const Result<PayloadBits> want = ReferenceDearmor(payload, fill);
  const Result<PayloadBits> got = DearmorPayload(payload, fill);
  const Status into = DearmorInto(payload, fill, reused);
  const std::string where =
      " on \"" + Escaped(payload) + "\" fill " + std::to_string(fill);
  if (got.ok() != want.ok() || into.ok() != want.ok()) return "ok" + where;
  if (!want.ok()) {
    return got.status().code() == want.status().code() &&
                   into.code() == want.status().code()
               ? ""
               : "status code" + where;
  }
  if (!(got.value() == want.value())) return "bits" + where;
  if (!(*reused == want.value())) return "reused buffer" + where;
  return "";
}

TEST(DearmorDifferentialTest, EveryLengthAndFill) {
  Rng rng(2);
  PayloadBits reused;
  // Past 171 characters the bits overrun PayloadBits' inline words.
  for (size_t len = 0; len <= 200; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      std::string payload;
      for (size_t i = 0; i < len; ++i) {
        payload += ArmorChar(static_cast<uint8_t>(rng.NextBelow(64)));
      }
      for (int fill = -1; fill <= 6; ++fill) {
        ASSERT_EQ(DearmorMismatch(payload, fill, &reused), "");
      }
    }
  }
}

TEST(DearmorDifferentialTest, EveryByteAtEveryPosition) {
  // Covers both edges of the alphabet's two ranges ('/', '0', 'W', 'X',
  // '_', '`', 'w', 'x') and bytes of 0x80 and above in every lane of the
  // eight-character step.
  Rng rng(3);
  PayloadBits reused;
  std::string base;
  for (size_t i = 0; i < 28; ++i) {
    base += ArmorChar(static_cast<uint8_t>(rng.NextBelow(64)));
  }
  for (size_t p = 0; p < base.size(); ++p) {
    for (int b = 0; b < 256; ++b) {
      std::string payload = base;
      payload[p] = static_cast<char>(b);
      ASSERT_EQ(DearmorMismatch(payload, static_cast<int>(p % 6), &reused),
                "");
    }
  }
}

// --- DataScanner against the public steps chained ---------------------------

std::vector<std::pair<const char*, uint64_t>> Counters(const ScannerStats& s) {
  return {{"lines", s.lines},
          {"framing_errors", s.framing_errors},
          {"fragment_pending", s.fragment_pending},
          {"fragment_errors", s.fragment_errors},
          {"payload_errors", s.payload_errors},
          {"unsupported_type", s.unsupported_type},
          {"invalid_position", s.invalid_position},
          {"static_reports", s.static_reports},
          {"accepted", s.accepted},
          {"fragment_groups_evicted", s.fragment_groups_evicted}};
}

// Every line lands in exactly one per-line counter.
bool LinesAddUp(const ScannerStats& s) {
  return s.lines == s.framing_errors + s.fragment_pending + s.fragment_errors +
                        s.payload_errors + s.unsupported_type +
                        s.invalid_position + s.static_reports + s.accepted;
}

// ParseSentence -> FragmentAssembler -> DearmorPayload ->
// DecodePositionReport + HasPosition, each through its public interface.
class ReferenceScanner {
 public:
  Result<stream::PositionTuple> Feed(std::string_view line, Timestamp tau) {
    ++stats_.lines;
    const Result<NmeaSentence> sentence = ParseSentence(line);
    if (!sentence.ok()) {
      ++stats_.framing_errors;
      return sentence.status();
    }
    const uint64_t evicted = assembler_.evicted_groups();
    const Result<FragmentAssembler::Assembled> assembled =
        assembler_.Add(sentence.value());
    stats_.fragment_groups_evicted += assembler_.evicted_groups() - evicted;
    if (!assembled.ok()) {
      ++(assembled.status().code() == StatusCode::kNotFound
             ? stats_.fragment_pending
             : stats_.fragment_errors);
      return assembled.status();
    }
    const Result<PayloadBits> bits = DearmorPayload(
        assembled.value().payload, assembled.value().fill_bits);
    if (!bits.ok()) {
      ++stats_.payload_errors;
      return bits.status();
    }
    if (PeekMessageType(bits.value()) == 5) {
      const Result<StaticVoyageData> data =
          DecodeStaticVoyageData(bits.value());
      if (!data.ok()) {
        ++stats_.payload_errors;
        return data.status();
      }
      ++stats_.static_reports;
      statics_.push_back(data.value());
      return Status::NotFound("static report");
    }
    const Result<PositionReport> report = DecodePositionReport(bits.value());
    if (!report.ok()) {
      ++(report.status().code() == StatusCode::kUnimplemented
             ? stats_.unsupported_type
             : stats_.payload_errors);
      return report.status();
    }
    if (!report.value().HasPosition()) {
      ++stats_.invalid_position;
      return Status::Corruption("no position");
    }
    ++stats_.accepted;
    stream::PositionTuple t;
    t.mmsi = report.value().mmsi;
    t.pos = geo::GeoPoint{report.value().lon_deg, report.value().lat_deg};
    t.tau = tau;
    return t;
  }

  std::vector<StaticVoyageData> TakeStaticReports() {
    return std::exchange(statics_, {});
  }
  const ScannerStats& stats() const { return stats_; }

 private:
  FragmentAssembler assembler_;
  std::vector<StaticVoyageData> statics_;
  ScannerStats stats_;
};

struct TaggedLine {
  Timestamp tau;
  std::string sentence;
};

// One message of the feed: its consecutive fragment lines.
using Message = std::vector<TaggedLine>;

std::vector<Message> SimulatedMessages() {
  sim::World world = sim::BuildWorld(21);
  sim::FleetConfig config;
  config.vessels = 60;
  config.duration = 3 * kHour;
  config.seed = 22;
  sim::FleetSimulator simulator(&world, config);
  const std::vector<stream::PositionTuple> tuples = simulator.Generate();
  sim::NmeaFeedOptions nmea;
  nmea.seed = 23;
  nmea.extended_class_b_prob = 0.4;
  nmea.static_report_every = 4;
  const std::string text =
      sim::EncodeTaggedNmeaFeed(tuples, simulator.fleet(), nmea);
  std::vector<Message> out;
  for (size_t start = 0; start < text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    const size_t tab = line.find('\t');
    TaggedLine tagged{0, std::string(line.substr(tab + 1))};
    std::from_chars(line.data(), line.data() + tab, tagged.tau);
    const NmeaSentence s = ParseSentence(tagged.sentence).value();
    if (s.fragment_index == 1) out.emplace_back();
    out.back().push_back(std::move(tagged));
  }
  return out;
}

// The message's bits, reassembled from its (intact) fragments.
PayloadBits MessageBits(const Message& m) {
  std::string payload;
  int fill = 0;
  for (const TaggedLine& l : m) {
    const NmeaSentence s = ParseSentence(l.sentence).value();
    payload += s.payload;
    fill = s.fill_bits;
  }
  return DearmorPayload(payload, fill).value();
}

// Re-renders `m` to carry `bits`, keeping its fragment count, sequence id
// and channel; the last fragment takes whatever is left of the payload.
void SetMessageBits(const PayloadBits& bits, Message* m) {
  int fill = 0;
  const std::string payload = ArmorPayload(bits, &fill);
  const size_t per = m->size() == 1 ? payload.size() : 28;
  for (size_t i = 0; i < m->size(); ++i) {
    NmeaSentence s = ParseSentence((*m)[i].sentence).value();
    const size_t from = std::min(payload.size(), i * per);
    s.payload = std::string_view(payload).substr(
        from, i + 1 == m->size() ? std::string::npos : per);
    s.fill_bits = i + 1 == m->size() ? fill : 0;
    (*m)[i].sentence = FormatSentence(s);
  }
}

// `bits` with the `width`-bit field at `at` replaced by `value`.
PayloadBits WithField(const PayloadBits& bits, size_t at, int width,
                      uint64_t value) {
  PayloadBits out;
  for (size_t pos = 0; pos < bits.size();) {
    if (pos == at) {
      out.Append(value, width);
      pos += static_cast<size_t>(width);
      continue;
    }
    const size_t stop = pos < at ? at : bits.size();
    const int w = static_cast<int>(std::min<size_t>(stop - pos, 60));
    out.Append(bits.Extract(pos, w), w);
    pos += static_cast<size_t>(w);
  }
  return out;
}

// The first `n` bits of `bits`.
PayloadBits Prefix(const PayloadBits& bits, size_t n) {
  PayloadBits out = bits;
  out.Truncate(n);
  return out;
}

// Corrupts about a third of the messages, one way each, and returns the
// tagged lines in feed order.
std::vector<TaggedLine> CorruptedFeed(uint64_t seed) {
  std::vector<Message> messages = SimulatedMessages();
  Rng rng(seed);
  // Raw coordinates at, just past and far past the limits, and the
  // "not available" sentinels (ITU-R M.1371: lon 28 bits, lat 27 bits).
  constexpr int64_t kLons[] = {108600000, 108000000,  108000001, -108000000,
                               -108000001, 134217727, -134217728, 0};
  constexpr int64_t kLats[] = {54600000, 54000000,  54000001, -54000000,
                               -54000001, 67108863, -67108864, 0};
  constexpr int kUnsupported[] = {0, 4, 6, 8, 9, 17, 20, 21, 24, 27, 63};
  std::vector<Message> late;  // Fragments moved past their group.
  std::vector<TaggedLine> out;
  for (Message& m : messages) {
    const PayloadBits bits = MessageBits(m);
    const int type = static_cast<int>(bits.Extract(0, 6));
    switch (rng.NextBelow(24)) {
      case 0: {  // A flipped byte the checksum catches.
        std::string& s = m[rng.NextBelow(m.size())].sentence;
        s[rng.NextBelow(s.size())] ^= static_cast<char>(1 + rng.NextBelow(127));
        break;
      }
      case 1: {  // A flipped payload bit under a valid checksum.
        const size_t at = rng.NextBelow(bits.size());
        SetMessageBits(WithField(bits, at, 1, bits.Extract(at, 1) ^ 1), &m);
        break;
      }
      case 2:  // A truncated payload.
        SetMessageBits(Prefix(bits, rng.NextBelow(bits.size())), &m);
        break;
      case 3:  // An unsupported type.
        SetMessageBits(
            WithField(bits, 0, 6,
                      static_cast<uint64_t>(kUnsupported[rng.NextBelow(
                          std::size(kUnsupported))])),
            &m);
        break;
      case 4:
      case 5:  // A coordinate at or past its limits.
        if (type == 1 || type == 18 || type == 19) {
          const size_t block = type == 1 ? 61 : 57;
          const bool lon = rng.NextBool(0.5);
          const uint64_t raw = static_cast<uint64_t>(
              lon ? kLons[rng.NextBelow(std::size(kLons))]
                  : kLats[rng.NextBelow(std::size(kLats))]);
          SetMessageBits(lon ? WithField(bits, block, 28, raw & 0xFFFFFFF)
                             : WithField(bits, block + 28, 27, raw & 0x7FFFFFF),
                         &m);
        }
        break;
      case 6: {  // An invalid armoring character under a valid checksum.
        const std::string line = m.back().sentence;
        NmeaSentence parsed = ParseSentence(line).value();
        std::string payload(parsed.payload);
        if (!payload.empty()) {
          payload[rng.NextBelow(payload.size())] = "!X~\x7f"[rng.NextBelow(4)];
          parsed.payload = payload;
          m.back().sentence = FormatSentence(parsed);
        }
        break;
      }
      case 7:
      case 8:
      case 9:  // A lost, duplicated, reordered or late fragment.
        if (m.size() > 1) {
          const size_t k = rng.NextBelow(m.size());
          switch (rng.NextBelow(5)) {
            case 0:
              m.erase(m.begin());
              break;
            case 1:
              m.erase(m.begin() + static_cast<std::ptrdiff_t>(k));
              break;
            case 2:
              m.insert(m.begin() + static_cast<std::ptrdiff_t>(k), m[k]);
              break;
            case 3:
              std::swap(m.front(), m.back());
              break;
            default:
              late.push_back({m[k]});
              m.erase(m.begin() + static_cast<std::ptrdiff_t>(k));
              break;
          }
        }
        break;
      case 10:  // Noise between messages.
        out.push_back({m.front().tau, "!AIVDM,garbage*00"});
        break;
      default:
        break;
    }
    for (TaggedLine& l : m) out.push_back(std::move(l));
    // Late fragments land a dozen messages on: past kMaxFragments adds, so
    // they can meet a new group under a reused sequence id.
    if (!late.empty() && rng.NextBelow(12) == 0) {
      for (TaggedLine& l : late.front()) out.push_back(std::move(l));
      late.erase(late.begin());
    }
  }
  return out;
}

TEST(ScannerReferenceTest, CorruptedFeedGivesTheSameTuplesAndStats) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const std::vector<TaggedLine> feed = CorruptedFeed(seed);
    DataScanner scanner;
    ReferenceScanner reference;
    for (size_t i = 0; i < feed.size(); ++i) {
      const TaggedLine& l = feed[i];
      const Result<stream::PositionTuple> got = scanner.FeedTagged(
          std::to_string(l.tau) + "\t" + l.sentence);
      const Result<stream::PositionTuple> want =
          reference.Feed(l.sentence, l.tau);
      ASSERT_EQ(got.ok(), want.ok()) << "line " << i << ": " << l.sentence;
      ASSERT_EQ(got.status().code(), want.status().code())
          << "line " << i << ": " << l.sentence;
      if (got.ok()) {
        // Bit-identical coordinates: the same raw / 600000.0.
        ASSERT_EQ(got.value().mmsi, want.value().mmsi) << "line " << i;
        ASSERT_EQ(got.value().tau, want.value().tau) << "line " << i;
        ASSERT_EQ(got.value().pos.lon, want.value().pos.lon) << "line " << i;
        ASSERT_EQ(got.value().pos.lat, want.value().pos.lat) << "line " << i;
      }
      if (i % 997 == 0 || i + 1 == feed.size()) {
        const std::vector<StaticVoyageData> a = scanner.TakeStaticReports();
        const std::vector<StaticVoyageData> b = reference.TakeStaticReports();
        ASSERT_EQ(a.size(), b.size()) << "line " << i;
        for (size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k].mmsi, b[k].mmsi);
          EXPECT_EQ(a[k].ship_name, b[k].ship_name);
          EXPECT_EQ(a[k].destination, b[k].destination);
        }
      }
    }
    const auto got = Counters(scanner.stats());
    const auto want = Counters(reference.stats());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].second, want[k].second)
          << got[k].first << ", seed " << seed;
      // The feed reaches every outcome.
      EXPECT_GT(got[k].second, 0u) << got[k].first << ", seed " << seed;
    }
    EXPECT_TRUE(LinesAddUp(scanner.stats())) << "seed " << seed;
  }
}

TEST(ScannerStatsTest, EveryLineLandsInOneCounter) {
  // Random mixes of valid, mutated and garbage lines, through every entry
  // point.
  const std::vector<std::string> samples = SampleSentences();
  Rng rng(41);
  DataScanner scanner;
  for (int i = 0; i < 20000; ++i) {
    std::string line = samples[rng.NextBelow(samples.size())];
    switch (rng.NextBelow(4)) {
      case 0:
        break;
      case 1:
        line[rng.NextBelow(line.size())] =
            static_cast<char>(rng.NextBelow(256));
        break;
      case 2:
        line[rng.NextBelow(line.size())] =
            static_cast<char>(rng.NextBelow(256));
        line = Rechecksummed(line);
        break;
      default:
        line.resize(rng.NextBelow(line.size()));
        break;
    }
    switch (rng.NextBelow(3)) {
      case 0:
        (void)scanner.FeedLine(line, i);
        break;
      case 1:
        (void)scanner.FeedTagged(std::to_string(i) + "\t" + line);
        break;
      default:
        (void)scanner.FeedTagged(line);  // Untagged: a framing error.
        break;
    }
    ASSERT_TRUE(LinesAddUp(scanner.stats())) << "after line " << i;
  }
  (void)scanner.ScanTaggedLog("1\t" + samples[0] + "\nnoise\n\n2\t" +
                              samples[1] + "\n");
  EXPECT_TRUE(LinesAddUp(scanner.stats()));
  EXPECT_EQ(scanner.stats().lines, 20003u);
}

TEST(ScannerStatsTest, LostFirstFragmentCountsAnEvictedGroup) {
  PositionReport r;
  r.type = MessageType::kExtendedClassB;
  r.mmsi = 237001234;
  r.lon_deg = 24.0;
  r.lat_deg = 37.0;
  const std::vector<std::string> two = EncodeToNmea(r, 'A', 5);
  ASSERT_EQ(two.size(), 2u);
  r.type = MessageType::kPositionReportScheduled;
  const std::string single = EncodeToNmea(r).front();

  // The first fragment is lost: the second waits, then ages out.
  DataScanner scanner;
  EXPECT_EQ(scanner.FeedLine(two[1], 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(scanner.stats().fragment_groups_evicted, 0u);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(scanner.FeedLine(single, i).ok());
  EXPECT_EQ(scanner.stats().fragment_groups_evicted, 1u);
  EXPECT_EQ(scanner.stats().fragment_pending, 1u);
  EXPECT_TRUE(LinesAddUp(scanner.stats()));

  // Lost again, and the sequence id comes back with a new message: the
  // orphan is dropped, not joined, and the new message decodes.
  EXPECT_FALSE(scanner.FeedLine(two[1], 0).ok());
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(scanner.FeedLine(single, i).ok());
  EXPECT_FALSE(scanner.FeedLine(two[0], 1).ok());
  EXPECT_TRUE(scanner.FeedLine(two[1], 2).ok());
  EXPECT_EQ(scanner.stats().fragment_groups_evicted, 2u);
  EXPECT_TRUE(LinesAddUp(scanner.stats()));

  // A group, not a line: the evicted count stays out of the line sum.
  scanner.ResetStats();
  EXPECT_EQ(scanner.stats().fragment_groups_evicted, 0u);
}

TEST(DecodePositionFixTest, AgreesWithTheFullReportAtTheLimits) {
  constexpr int64_t kLons[] = {108600000, 108000000,  108000001, -108000000,
                               -108000001, 134217727, -134217728, 1, -1};
  constexpr int64_t kLats[] = {54600000, 54000000,  54000001, -54000000,
                               -54000001, 67108863, -67108864, 1, -1};
  for (const MessageType t :
       {MessageType::kPositionReportScheduled,
        MessageType::kPositionReportAssigned,
        MessageType::kPositionReportResponse, MessageType::kStandardClassB,
        MessageType::kExtendedClassB}) {
    PositionReport r;
    r.type = t;
    r.mmsi = 987654321;
    const PayloadBits base = EncodePositionReport(r);
    const size_t block = static_cast<int>(t) <= 3 ? 61 : 57;
    for (const int64_t lon : kLons) {
      for (const int64_t lat : kLats) {
        const PayloadBits bits = WithField(
            WithField(base, block, 28, static_cast<uint64_t>(lon) & 0xFFFFFFF),
            block + 28, 27, static_cast<uint64_t>(lat) & 0x7FFFFFF);
        const Result<PositionFix> fix = DecodePositionFix(bits);
        const Result<PositionReport> report = DecodePositionReport(bits);
        ASSERT_TRUE(fix.ok() && report.ok());
        EXPECT_EQ(fix.value().mmsi, report.value().mmsi);
        EXPECT_EQ(fix.value().lon_raw, lon);
        EXPECT_EQ(fix.value().lat_raw, lat);
        EXPECT_EQ(fix.value().lon_deg(), report.value().lon_deg);
        EXPECT_EQ(fix.value().lat_deg(), report.value().lat_deg);
        EXPECT_EQ(fix.value().has_position, report.value().HasPosition())
            << "type " << static_cast<int>(t) << " lon " << lon << " lat "
            << lat;
      }
    }
    // Every shorter payload fails both, with the same status.
    for (size_t n = 0; n < base.size(); ++n) {
      const Result<PositionFix> fix = DecodePositionFix(Prefix(base, n));
      const Result<PositionReport> report =
          DecodePositionReport(Prefix(base, n));
      ASSERT_FALSE(fix.ok());
      EXPECT_EQ(fix.status(), report.status());
    }
  }
}

}  // namespace
}  // namespace maritime::ais
