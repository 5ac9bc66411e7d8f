#ifndef MARITIME_TESTS_LATTICE_HARNESS_H_
#define MARITIME_TESTS_LATTICE_HARNESS_H_

// The config-lattice differential harness. One seed draws an input — a small
// simulated world and fleet rendered to tagged NMEA, with corrupted
// sentences and type 5/19 multi-fragment messages, decoded by the Data
// Scanner — and a point of the config lattice. One runner drives the point;
// one comparator holds it to the serial, naive, on-demand run of the same
// partition count and input:
//   - every slide's deterministic SlideReport fields and every
//     RecognitionResult are equal;
//   - a restored pipeline or recognizer re-saves exactly the bytes it was
//     restored from;
//   - two runs of one config write identical bytes after their last slide,
//     and a run cut and resumed ends in the bytes of the uninterrupted run.
// lattice_test runs a fixed set of seeds; fuzz/fuzz_lattice.cc feeds
// arbitrary seeds and splices raw lines into the feed.

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/time.h"
#include "maritime/recognizer.h"

namespace maritime::lattice {

/// What a draw drives. kPipeline replays the decoded feed through a whole
/// SurveillancePipeline; the other shapes feed a critical-point stream to a
/// PartitionedRecognizer on an arrival schedule that holds a share of the
/// points back for one to three slides (delayed, out-of-order MEs).
enum class Shape : uint8_t {
  kPipeline,
  kTracked,    ///< The decoded feed's critical points (serial tracker).
  kSkewed,     ///< One active vessel cycling in one area; the rest idle.
  kLoitering,  ///< Random background plus loitering clusters near areas.
};

/// An optional snapshot cut: saved at a slide boundary (recognizer level:
/// after the slide's batch is fed, with its dirty marks pending) and resumed
/// on a fresh pipeline or recognizer.
enum class Cut : uint8_t {
  kNone,
  kMemory,  ///< SaveTo / RestoreFrom.
  kFile,    ///< The checksummed file container.
};

struct Draw {
  uint64_t seed = 0;
  // Input.
  int vessels = 8;  ///< Fleet size (idle vessels for kSkewed).
  Duration horizon = 4 * kHour;
  /// Raw lines spliced into the feed, each tagged with the arrival time of
  /// the line it follows.
  std::vector<std::string> raw_lines;
  // Config point.
  Shape shape = Shape::kPipeline;
  int shards = 1;
  int partitions = 1;
  bool spatial_facts = false;
  surveillance::EngineMode engine = surveillance::EngineMode::kNaive;
  bool archive = false;
  Duration slide = 5 * kMinute;  ///< β.
  int ratio = 1;                 ///< ω / β.
  Cut cut = Cut::kNone;
  int cut_slide = 1;        ///< Slides run before the cut (clamped).
  double hold_share = 0.0;  ///< Share of points held back (not kPipeline).
};

/// Samples the input size and the config point from `seed`.
Draw DrawFromSeed(uint64_t seed);

/// One line naming the seed, the input size and the config point.
std::string Describe(const Draw& d);

/// What a draw did: the comparator's verdict and what the config run's
/// engines counted (summed over partitions).
struct Outcome {
  std::string failure;  ///< Empty when every check held.
  bool incremental = false;  ///< The engine mode the config run resolved.
  /// Names of the CEs the reference recognized ("suspicious", ...).
  std::set<std::string> recognized;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t spans_narrowed = 0;
  uint64_t fleet_floor_hits = 0;
  uint64_t fast_forwards = 0;
  uint64_t evals = 0;
};

Outcome RunDraw(const Draw& d);

/// Halves the fleet, then the horizon, while `fails` holds; returns the
/// smallest draw that still fails.
Draw Shrink(Draw d, const std::function<bool(const Draw&)>& fails);

/// Runs `d`. On failure returns the seed, the config, the failure and the
/// smallest case that still fails; an empty string otherwise.
std::string Check(const Draw& d, Outcome* out = nullptr);

}  // namespace maritime::lattice

#endif  // MARITIME_TESTS_LATTICE_HARNESS_H_
