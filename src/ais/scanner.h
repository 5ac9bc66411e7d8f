#ifndef MARITIME_AIS_SCANNER_H_
#define MARITIME_AIS_SCANNER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ais/messages.h"
#include "ais/nmea.h"
#include "common/result.h"
#include "stream/position.h"

namespace maritime::ais {

/// Counters describing what the scanner did with its input; exposed so
/// operators can monitor feed quality (the paper stresses AIS data "is not
/// noise-free; messages may be delayed, intermittent, or conflicting").
///
/// Every line lands in exactly one of the per-line counters: `lines` is the
/// sum of the eight after it. `fragment_groups_evicted` counts groups, not
/// lines, and stands outside that sum.
struct ScannerStats {
  uint64_t lines = 0;              ///< Input lines seen.
  uint64_t framing_errors = 0;     ///< Bad '!'/'*' framing or checksum.
  uint64_t fragment_pending = 0;   ///< Fragments awaiting their group.
  uint64_t fragment_errors = 0;    ///< Inconsistent multi-fragment groups.
  uint64_t payload_errors = 0;     ///< De-armoring / truncation failures.
  uint64_t unsupported_type = 0;   ///< Types other than 1/2/3/5/18/19.
  uint64_t invalid_position = 0;   ///< Lon/lat sentinel or out of range.
  uint64_t static_reports = 0;     ///< Type 5 static/voyage messages decoded.
  uint64_t accepted = 0;           ///< Tuples emitted downstream.
  /// Multi-fragment groups dropped incomplete: a fragment was lost on the
  /// air, and the group's held fragments with it.
  uint64_t fragment_groups_evicted = 0;
};

/// The Data Scanner of Figure 1: decodes each AIS message, keeps the four
/// attributes ⟨MMSI, Lon, Lat, τ⟩, and cleans transmission distortions
/// (discarding messages with bad checksums, unsupported types, or sentinel
/// coordinates).
///
/// AIS position reports carry only the UTC second of the fix, so a receiver
/// timestamps each line on arrival. `FeedLine` therefore takes the line's
/// arrival timestamp; `FeedTagged` parses the `"<tau>\t<sentence>"` format
/// our simulator and log files use.
class DataScanner {
 public:
  DataScanner() = default;

  /// Processes one NMEA line received at `arrival`. Returns a tuple when the
  /// line completes a valid position report; a non-OK status otherwise
  /// (kNotFound means "nothing to emit": a fragment held for its group, or a
  /// type 5 report queued for TakeStaticReports). Those two outcomes do not
  /// allocate.
  ///
  /// The line is decoded in one pass: parsed in place, de-armored into the
  /// scanner's own bit buffer, and only the MMSI and coordinates read.
  Result<stream::PositionTuple> FeedLine(std::string_view line,
                                         Timestamp arrival);

  /// Processes a line in the tagged format `"<tau>\t!AIVDM,..."`.
  Result<stream::PositionTuple> FeedTagged(std::string_view tagged_line);

  /// Decodes a whole tagged log (one sentence per line) and returns the
  /// accepted tuples in arrival order.
  std::vector<stream::PositionTuple> ScanTaggedLog(std::string_view log);

  /// Type 5 static/voyage messages decoded so far; consuming them clears the
  /// buffer. Feed these to the knowledge base (see
  /// surveillance::ApplyStaticVoyageData) to learn ship types and draughts
  /// from the stream itself.
  std::vector<StaticVoyageData> TakeStaticReports() {
    return std::exchange(static_reports_, {});
  }

  const ScannerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ScannerStats{}; }

 private:
  FragmentAssembler assembler_;
  PayloadBits payload_;  ///< The current line's bits, reused for every line.
  std::vector<StaticVoyageData> static_reports_;
  ScannerStats stats_;
};

}  // namespace maritime::ais

#endif  // MARITIME_AIS_SCANNER_H_
