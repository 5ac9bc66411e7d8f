#ifndef MARITIME_AIS_MESSAGES_H_
#define MARITIME_AIS_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ais/bit_buffer.h"
#include "common/result.h"

namespace maritime::ais {

/// AIS message types handled by the system (paper Section 2: "we consider
/// AIS messages of certain types (1, 2, 3, 18, 19) and extract position
/// reports").
enum class MessageType : uint8_t {
  kPositionReportScheduled = 1,   ///< Class A, scheduled.
  kPositionReportAssigned = 2,    ///< Class A, assigned schedule.
  kPositionReportResponse = 3,    ///< Class A, response to interrogation.
  kStandardClassB = 18,           ///< Class B standard position report.
  kExtendedClassB = 19,           ///< Class B extended position report.
};

/// True for the five supported position-bearing message types.
bool IsSupportedType(int type);

/// Navigational status values (subset of ITU-R M.1371 Table 45).
enum class NavStatus : uint8_t {
  kUnderWayUsingEngine = 0,
  kAtAnchor = 1,
  kNotUnderCommand = 2,
  kRestrictedManoeuvrability = 3,
  kMoored = 5,
  kEngagedInFishing = 7,
  kUnderWaySailing = 8,
  kNotDefined = 15,
};

/// Sentinel raw-field values defined by ITU-R M.1371.
inline constexpr int kSogNotAvailableRaw = 1023;       // 0.1-knot units
inline constexpr int kCogNotAvailableRaw = 3600;       // 0.1-degree units
inline constexpr int kHeadingNotAvailable = 511;
inline constexpr int kUtcSecondNotAvailable = 60;
inline constexpr int32_t kLonNotAvailableRaw = 181 * 600000;  // 1/10000 min
inline constexpr int32_t kLatNotAvailableRaw = 91 * 600000;

/// Raw coordinate units (1/10000 arc-minute) per degree.
inline constexpr double kCoordScale = 600000.0;

/// A decoded AIS position report — the superset of the fields of message
/// types 1/2/3/18/19 that the surveillance system consumes.
struct PositionReport {
  MessageType type = MessageType::kPositionReportScheduled;
  uint32_t mmsi = 0;              ///< Maritime Mobile Service Identity.
  NavStatus nav_status = NavStatus::kNotDefined;  ///< Types 1–3 only.
  double lon_deg = 0.0;           ///< Longitude, degrees east.
  double lat_deg = 0.0;           ///< Latitude, degrees north.
  std::optional<double> sog_knots;    ///< Speed over ground.
  std::optional<double> cog_deg;      ///< Course over ground.
  std::optional<int> true_heading_deg;
  int utc_second = kUtcSecondNotAvailable;  ///< UTC second of report (0–59).
  bool position_accuracy_high = false;
  std::string ship_name;          ///< Type 19 only.
  int ship_type = 0;              ///< Type 19 only (ITU ship-type code).

  /// True iff lon/lat are real coordinates (not the N/A sentinels).
  bool HasPosition() const;
};

/// Encodes `report` into the raw AIS bit layout of its message type.
/// Out-of-range fields are clamped to the representable range.
PayloadBits EncodePositionReport(const PositionReport& report);

/// What the Data Scanner keeps of a position report: the MMSI and the raw
/// coordinates.
struct PositionFix {
  uint32_t mmsi = 0;
  int32_t lon_raw = 0;  ///< Longitude, 1/10000 arc-minute.
  int32_t lat_raw = 0;  ///< Latitude, 1/10000 arc-minute.
  /// The verdict of PositionReport::HasPosition on the decoded report.
  bool has_position = false;

  double lon_deg() const { return static_cast<double>(lon_raw) / kCoordScale; }
  double lat_deg() const { return static_cast<double>(lat_raw) / kCoordScale; }
};

/// The core of DecodePositionReport: the message type, length and position
/// checks, and the MMSI and coordinates, without the report's other fields.
/// Fails exactly when DecodePositionReport fails, with the same status.
Result<PositionFix> DecodePositionFix(const PayloadBits& bits);

/// Decodes a raw AIS payload. Fails with kCorruption on truncated payloads
/// and kUnimplemented on unsupported message types (the Data Scanner counts
/// and skips those).
Result<PositionReport> DecodePositionReport(const PayloadBits& bits);

/// Convenience: encodes `report` into one or more complete AIVDM sentences
/// (type 19 spans two sentences at 312 bits).
std::vector<std::string> EncodeToNmea(const PositionReport& report,
                                      char channel = 'A', int sequence_id = 0);

/// AIS message type 5: class A static and voyage related data (424 bits).
/// Vessels broadcast it every few minutes; it carries the static vessel
/// characteristics the CE definitions correlate with (ship type, draught)
/// plus crew-entered voyage data. The paper (Section 3.2) found the
/// voyage/destination fields "often missing or error-prone, mainly because
/// [they are] updated manually by the crew" — which is why trip destinations
/// are derived automatically from port stops instead.
struct StaticVoyageData {
  uint32_t mmsi = 0;
  uint32_t imo_number = 0;
  std::string call_sign;     ///< Up to 7 six-bit characters.
  std::string ship_name;     ///< Up to 20 six-bit characters.
  int ship_type = 0;         ///< ITU ship-type code (30 fishing, 7x cargo,
                             ///< 8x tanker, 6x passenger, 37 pleasure, ...).
  double draught_m = 0.0;    ///< Maximum present static draught (0.1 m res).
  int eta_month = 0;         ///< 0 = not available.
  int eta_day = 0;
  int eta_hour = 24;         ///< 24 = not available.
  int eta_minute = 60;       ///< 60 = not available.
  std::string destination;   ///< Crew-entered free text; often stale/wrong.
};

/// Encodes a type 5 message into its 424-bit payload.
PayloadBits EncodeStaticVoyageData(const StaticVoyageData& data);

/// Decodes a type 5 payload. Fails with kCorruption on truncation and
/// kInvalidArgument when the payload is not a type 5 message.
Result<StaticVoyageData> DecodeStaticVoyageData(const PayloadBits& bits);

/// Encodes a type 5 message into complete AIVDM sentences (three fragments
/// at the 28-character payload limit).
std::vector<std::string> EncodeStaticToNmea(const StaticVoyageData& data,
                                            char channel = 'A',
                                            int sequence_id = 0);

/// Reads the message type from the first six payload bits (-1 if too short).
int PeekMessageType(const PayloadBits& bits);

}  // namespace maritime::ais

#endif  // MARITIME_AIS_MESSAGES_H_
