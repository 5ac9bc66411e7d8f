#include "ais/messages.h"

#include <algorithm>
#include <cmath>

#include "ais/bit_buffer.h"
#include "ais/nmea.h"
#include "ais/sixbit.h"
#include "common/strings.h"

namespace maritime::ais {
namespace {

int32_t LonToRaw(double deg) {
  if (!(deg >= -180.0 && deg <= 180.0)) return kLonNotAvailableRaw;
  return static_cast<int32_t>(std::lround(deg * kCoordScale));
}

int32_t LatToRaw(double deg) {
  if (!(deg >= -90.0 && deg <= 90.0)) return kLatNotAvailableRaw;
  return static_cast<int32_t>(std::lround(deg * kCoordScale));
}

int SogToRaw(const std::optional<double>& knots) {
  if (!knots.has_value()) return kSogNotAvailableRaw;
  const double clamped = std::clamp(*knots, 0.0, 102.2);
  return static_cast<int>(std::lround(clamped * 10.0));
}

int CogToRaw(const std::optional<double>& deg) {
  if (!deg.has_value()) return kCogNotAvailableRaw;
  int raw = static_cast<int>(std::lround(*deg * 10.0)) % 3600;
  if (raw < 0) raw += 3600;
  return raw;
}

int HeadingToRaw(const std::optional<int>& deg) {
  if (!deg.has_value()) return kHeadingNotAvailable;
  int h = *deg % 360;
  if (h < 0) h += 360;
  return h;
}

// Shared position block of types 1/2/3: everything after the MMSI.
void EncodeClassABody(const PositionReport& r, BitWriter& w) {
  w.WriteUnsigned(static_cast<uint64_t>(r.nav_status), 4);
  w.WriteSigned(-128, 8);  // rate of turn: not available
  w.WriteUnsigned(static_cast<uint64_t>(SogToRaw(r.sog_knots)), 10);
  w.WriteUnsigned(r.position_accuracy_high ? 1 : 0, 1);
  w.WriteSigned(LonToRaw(r.lon_deg), 28);
  w.WriteSigned(LatToRaw(r.lat_deg), 27);
  w.WriteUnsigned(static_cast<uint64_t>(CogToRaw(r.cog_deg)), 12);
  w.WriteUnsigned(static_cast<uint64_t>(HeadingToRaw(r.true_heading_deg)), 9);
  w.WriteUnsigned(static_cast<uint64_t>(
                      std::clamp(r.utc_second, 0, kUtcSecondNotAvailable)),
                  6);
  w.WriteUnsigned(0, 2);   // manoeuvre indicator
  w.WriteUnsigned(0, 3);   // spare
  w.WriteUnsigned(0, 1);   // RAIM
  w.WriteUnsigned(0, 19);  // radio status
}

// Shared position block of types 18/19 up to the UTC second.
void EncodeClassBCommon(const PositionReport& r, BitWriter& w) {
  w.WriteUnsigned(0, 8);  // regional reserved
  w.WriteUnsigned(static_cast<uint64_t>(SogToRaw(r.sog_knots)), 10);
  w.WriteUnsigned(r.position_accuracy_high ? 1 : 0, 1);
  w.WriteSigned(LonToRaw(r.lon_deg), 28);
  w.WriteSigned(LatToRaw(r.lat_deg), 27);
  w.WriteUnsigned(static_cast<uint64_t>(CogToRaw(r.cog_deg)), 12);
  w.WriteUnsigned(static_cast<uint64_t>(HeadingToRaw(r.true_heading_deg)), 9);
  w.WriteUnsigned(static_cast<uint64_t>(
                      std::clamp(r.utc_second, 0, kUtcSecondNotAvailable)),
                  6);
}

// The field layout of the position reports (ITU-R M.1371), shared by
// DecodePositionFix and DecodePositionReport. Every type opens with its type
// (6 bits), the repeat indicator (2) and the MMSI (30). Class A (types
// 1/2/3) follows with the navigational status (4) and the rate of turn (8),
// class B (18/19) with 8 reserved bits, so the position block after them
// starts 4 bits later in class A.
constexpr size_t kMmsiAt = 8;
constexpr size_t kNavStatusAt = 38;  // Class A only.
// Offsets within the position block.
constexpr size_t kSogOffset = 0;        // 10 bits.
constexpr size_t kAccuracyOffset = 10;  // 1 bit.
constexpr size_t kLonOffset = 11;       // 28 bits, signed.
constexpr size_t kLatOffset = 39;       // 27 bits, signed.
constexpr size_t kCogOffset = 66;       // 12 bits.
constexpr size_t kHeadingOffset = 78;   // 9 bits.
constexpr size_t kSecondOffset = 87;    // 6 bits.
// Type 19's static fields.
constexpr size_t kShipNameAt = 143;  // 20 six-bit characters.
constexpr size_t kShipTypeAt = 263;  // 8 bits.

size_t PositionBlockAt(int type) { return type <= 3 ? 50 : 46; }

// Length of a complete message of a supported type.
size_t MessageBits(int type) { return type == 19 ? 312 : 168; }

// The two's-complement field of `width` bits at `pos`.
int32_t SignedAt(const PayloadBits& bits, size_t pos, int width) {
  const int shift = 64 - width;
  return static_cast<int32_t>(
      static_cast<int64_t>(bits.Extract(pos, width) << shift) >> shift);
}

std::optional<double> SogFromRaw(uint64_t raw) {
  if (raw == kSogNotAvailableRaw) return std::nullopt;
  return static_cast<double>(raw) / 10.0;
}

std::optional<double> CogFromRaw(uint64_t raw) {
  if (raw >= kCogNotAvailableRaw) return std::nullopt;
  return static_cast<double>(raw) / 10.0;
}

std::optional<int> HeadingFromRaw(uint64_t raw) {
  if (raw >= kHeadingNotAvailable) return std::nullopt;
  return static_cast<int>(raw);
}

}  // namespace

bool IsSupportedType(int type) {
  return type == 1 || type == 2 || type == 3 || type == 18 || type == 19;
}

bool PositionReport::HasPosition() const {
  return std::lround(lon_deg * kCoordScale) != kLonNotAvailableRaw &&
         std::lround(lat_deg * kCoordScale) != kLatNotAvailableRaw &&
         lon_deg >= -180.0 && lon_deg <= 180.0 && lat_deg >= -90.0 &&
         lat_deg <= 90.0;
}

PayloadBits EncodePositionReport(const PositionReport& r) {
  BitWriter w;
  w.WriteUnsigned(static_cast<uint64_t>(r.type), 6);
  w.WriteUnsigned(0, 2);  // repeat indicator
  w.WriteUnsigned(r.mmsi, 30);
  switch (r.type) {
    case MessageType::kPositionReportScheduled:
    case MessageType::kPositionReportAssigned:
    case MessageType::kPositionReportResponse:
      EncodeClassABody(r, w);
      break;
    case MessageType::kStandardClassB:
      EncodeClassBCommon(r, w);
      w.WriteUnsigned(0, 2);  // regional reserved
      w.WriteUnsigned(1, 1);  // CS unit: carrier-sense
      w.WriteUnsigned(0, 1);  // no display
      w.WriteUnsigned(0, 1);  // no DSC
      w.WriteUnsigned(1, 1);  // whole-band
      w.WriteUnsigned(0, 1);  // no message-22 handling
      w.WriteUnsigned(0, 1);  // autonomous mode
      w.WriteUnsigned(0, 1);  // RAIM
      w.WriteUnsigned(0, 20);  // radio status
      break;
    case MessageType::kExtendedClassB:
      EncodeClassBCommon(r, w);
      w.WriteUnsigned(0, 4);  // regional reserved
      w.WriteSixbitString(r.ship_name, 20);
      w.WriteUnsigned(static_cast<uint64_t>(std::clamp(r.ship_type, 0, 255)),
                      8);
      w.WriteUnsigned(0, 9);   // dimension to bow
      w.WriteUnsigned(0, 9);   // dimension to stern
      w.WriteUnsigned(0, 6);   // dimension to port
      w.WriteUnsigned(0, 6);   // dimension to starboard
      w.WriteUnsigned(1, 4);   // EPFD: GPS
      w.WriteUnsigned(0, 1);   // RAIM
      w.WriteUnsigned(1, 1);   // DTE: not ready
      w.WriteUnsigned(0, 1);   // autonomous mode
      w.WriteUnsigned(0, 4);   // spare
      break;
  }
  return w.bits();
}

Result<PositionFix> DecodePositionFix(const PayloadBits& bits) {
  if (bits.size() < 6) return Status::Corruption("payload shorter than 6 bits");
  const int type = static_cast<int>(bits.Extract(0, 6));
  if (!IsSupportedType(type)) {
    return Status::Unimplemented(StrPrintf("message type %d", type));
  }
  if (bits.size() < MessageBits(type)) {
    return Status::Corruption(type <= 3    ? "truncated class A payload"
                              : type == 18 ? "truncated type 18 payload"
                                           : "truncated type 19 payload");
  }
  const size_t block = PositionBlockAt(type);
  PositionFix f;
  f.mmsi = static_cast<uint32_t>(bits.Extract(kMmsiAt, 30));
  f.lon_raw = SignedAt(bits, block + kLonOffset, 28);
  f.lat_raw = SignedAt(bits, block + kLatOffset, 27);
  // PositionReport::HasPosition in raw units. Its degrees are raw /
  // kCoordScale, correctly rounded: the rounding is monotone and ±180 and
  // ±90 are exact, so the range compares agree, and lround(deg * kCoordScale)
  // gives back any 28-bit raw value, so the sentinel compares agree too.
  constexpr int32_t kLonMax = 180 * 600000;
  constexpr int32_t kLatMax = 90 * 600000;
  f.has_position = f.lon_raw != kLonNotAvailableRaw &&
                   f.lat_raw != kLatNotAvailableRaw && f.lon_raw >= -kLonMax &&
                   f.lon_raw <= kLonMax && f.lat_raw >= -kLatMax &&
                   f.lat_raw <= kLatMax;
  return f;
}

Result<PositionReport> DecodePositionReport(const PayloadBits& bits) {
  Result<PositionFix> fix = DecodePositionFix(bits);
  if (!fix.ok()) return std::move(fix).status();
  const int type = static_cast<int>(bits.Extract(0, 6));
  const size_t block = PositionBlockAt(type);
  PositionReport r;
  r.type = static_cast<MessageType>(type);
  r.mmsi = fix.value().mmsi;
  if (type <= 3) {
    r.nav_status = static_cast<NavStatus>(bits.Extract(kNavStatusAt, 4));
  }
  r.sog_knots = SogFromRaw(bits.Extract(block + kSogOffset, 10));
  r.position_accuracy_high = bits.Extract(block + kAccuracyOffset, 1) != 0;
  r.lon_deg = fix.value().lon_deg();
  r.lat_deg = fix.value().lat_deg();
  r.cog_deg = CogFromRaw(bits.Extract(block + kCogOffset, 12));
  r.true_heading_deg = HeadingFromRaw(bits.Extract(block + kHeadingOffset, 9));
  r.utc_second = static_cast<int>(bits.Extract(block + kSecondOffset, 6));
  if (type == 19) {
    BitReader rd(bits);
    rd.Skip(static_cast<int>(kShipNameAt));
    r.ship_name = rd.ReadSixbitString(20);
    r.ship_type = static_cast<int>(bits.Extract(kShipTypeAt, 8));
  }
  return r;
}

namespace {

std::vector<std::string> BitsToNmea(const PayloadBits& bits,
                                    char channel, int sequence_id) {
  int fill = 0;
  const std::string payload = ArmorPayload(bits, &fill);
  // Radio slots limit a sentence payload to 28 armored characters (168 bits);
  // longer messages (types 19 and 5) are split into fragments, exercising
  // the receiver-side FragmentAssembler.
  constexpr size_t kMaxPayloadChars = 28;
  std::vector<std::string> out;
  const int total = static_cast<int>(
      (payload.size() + kMaxPayloadChars - 1) / kMaxPayloadChars);
  for (int i = 0; i < total; ++i) {
    NmeaSentence s;
    s.fragment_count = total;
    s.fragment_index = i + 1;
    s.sequence_id = total > 1 ? (sequence_id % 10) : -1;
    s.channel = channel;
    s.payload = std::string_view(payload).substr(
        static_cast<size_t>(i) * kMaxPayloadChars, kMaxPayloadChars);
    s.fill_bits = (i + 1 == total) ? fill : 0;
    out.push_back(FormatSentence(s));
  }
  return out;
}

}  // namespace

std::vector<std::string> EncodeToNmea(const PositionReport& report,
                                      char channel, int sequence_id) {
  return BitsToNmea(EncodePositionReport(report), channel, sequence_id);
}

int PeekMessageType(const PayloadBits& bits) {
  if (bits.size() < 6) return -1;
  BitReader rd(bits);
  return static_cast<int>(rd.ReadUnsigned(6));
}

PayloadBits EncodeStaticVoyageData(const StaticVoyageData& d) {
  BitWriter w;
  w.WriteUnsigned(5, 6);
  w.WriteUnsigned(0, 2);  // repeat indicator
  w.WriteUnsigned(d.mmsi, 30);
  w.WriteUnsigned(0, 2);  // AIS version
  w.WriteUnsigned(d.imo_number, 30);
  w.WriteSixbitString(d.call_sign, 7);
  w.WriteSixbitString(d.ship_name, 20);
  w.WriteUnsigned(static_cast<uint64_t>(std::clamp(d.ship_type, 0, 255)), 8);
  w.WriteUnsigned(0, 9);   // dimension to bow
  w.WriteUnsigned(0, 9);   // dimension to stern
  w.WriteUnsigned(0, 6);   // dimension to port
  w.WriteUnsigned(0, 6);   // dimension to starboard
  w.WriteUnsigned(1, 4);   // EPFD: GPS
  w.WriteUnsigned(static_cast<uint64_t>(std::clamp(d.eta_month, 0, 15)), 4);
  w.WriteUnsigned(static_cast<uint64_t>(std::clamp(d.eta_day, 0, 31)), 5);
  w.WriteUnsigned(static_cast<uint64_t>(std::clamp(d.eta_hour, 0, 31)), 5);
  w.WriteUnsigned(static_cast<uint64_t>(std::clamp(d.eta_minute, 0, 63)), 6);
  w.WriteUnsigned(
      static_cast<uint64_t>(
          std::lround(std::clamp(d.draught_m, 0.0, 25.5) * 10.0)),
      8);
  w.WriteSixbitString(d.destination, 20);
  w.WriteUnsigned(0, 1);  // DTE
  w.WriteUnsigned(0, 1);  // spare
  return w.bits();
}

Result<StaticVoyageData> DecodeStaticVoyageData(const PayloadBits& bits) {
  if (bits.size() < 6) return Status::Corruption("payload shorter than 6 bits");
  BitReader rd(bits);
  const int type = static_cast<int>(rd.ReadUnsigned(6));
  if (type != 5) {
    return Status::InvalidArgument(
        StrPrintf("message type %d is not static/voyage data", type));
  }
  StaticVoyageData d;
  rd.Skip(2);  // repeat indicator
  d.mmsi = static_cast<uint32_t>(rd.ReadUnsigned(30));
  rd.Skip(2);  // AIS version
  d.imo_number = static_cast<uint32_t>(rd.ReadUnsigned(30));
  d.call_sign = rd.ReadSixbitString(7);
  d.ship_name = rd.ReadSixbitString(20);
  d.ship_type = static_cast<int>(rd.ReadUnsigned(8));
  rd.Skip(9 + 9 + 6 + 6 + 4);  // dimensions, EPFD
  d.eta_month = static_cast<int>(rd.ReadUnsigned(4));
  d.eta_day = static_cast<int>(rd.ReadUnsigned(5));
  d.eta_hour = static_cast<int>(rd.ReadUnsigned(5));
  d.eta_minute = static_cast<int>(rd.ReadUnsigned(6));
  d.draught_m = static_cast<double>(rd.ReadUnsigned(8)) / 10.0;
  d.destination = rd.ReadSixbitString(20);
  rd.Skip(2);  // DTE + spare
  if (rd.overflow()) return Status::Corruption("truncated type 5 payload");
  return d;
}

std::vector<std::string> EncodeStaticToNmea(const StaticVoyageData& data,
                                            char channel, int sequence_id) {
  return BitsToNmea(EncodeStaticVoyageData(data), channel, sequence_id);
}

}  // namespace maritime::ais
