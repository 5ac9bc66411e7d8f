// Fuzz target for the AIS front door: DataScanner::FeedLine / FeedTagged /
// ScanTaggedLog, which consume raw NMEA text straight off the wire. The
// scanner's contract is that arbitrary input is *rejected*, never a crash,
// a sanitizer report, or a violated counter invariant.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "ais/scanner.h"
#include "common/check.h"
#include "geo/geo_point.h"

namespace {

// Every line lands in exactly one per-line counter.
bool LinesAddUp(const maritime::ais::ScannerStats& s) {
  return s.lines == s.framing_errors + s.fragment_pending + s.fragment_errors +
                        s.payload_errors + s.unsupported_type +
                        s.invalid_position + s.static_reports + s.accepted;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  // Whole-log path: exercises line splitting, tag parsing, fragment
  // reassembly, and payload decoding with carried state across lines.
  maritime::ais::DataScanner scanner;
  const auto tuples = scanner.ScanTaggedLog(text);
  for (const auto& t : tuples) {
    // Every accepted tuple must carry an in-range position (the Data
    // Scanner's cleaning guarantee from the paper).
    MARITIME_DCHECK(maritime::geo::IsValidPosition(t.pos));
  }
  const auto& stats = scanner.stats();
  MARITIME_DCHECK(stats.accepted == tuples.size());
  MARITIME_DCHECK(stats.accepted <= stats.lines);
  MARITIME_DCHECK(LinesAddUp(stats));

  // Single-line path with a fixed arrival stamp: reaches FeedLine framing
  // states that the tagged wrapper rejects earlier.
  maritime::ais::DataScanner line_scanner;
  (void)line_scanner.FeedLine(text, 0);
  MARITIME_DCHECK(line_scanner.stats().lines == 1);
  MARITIME_DCHECK(LinesAddUp(line_scanner.stats()));
  (void)line_scanner.TakeStaticReports();
  return 0;
}
