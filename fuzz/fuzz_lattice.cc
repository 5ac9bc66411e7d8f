// Fuzz target for the whole path from bytes to CEs, on the entry of the
// config-lattice harness (tests/lattice_harness.h). The first eight bytes
// are the draw's seed, which picks the input size and the config point; the
// rest, split at newlines, are spliced into the simulated NMEA feed as raw
// lines. Whatever the lines hold, the config run must agree with the
// serial, naive, on-demand reference, re-save its restored bytes and write
// the same bytes twice; a disagreement aborts with the draw that shows it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lattice_harness.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using maritime::lattice::Draw;
  const size_t head = std::min(size, sizeof(uint64_t));
  uint64_t seed = 0;
  if (head > 0) std::memcpy(&seed, data, head);
  Draw d = maritime::lattice::DrawFromSeed(seed);
  // A small input keeps an iteration in the millisecond range.
  d.vessels = std::min(d.vessels, 3);
  d.horizon = std::min(d.horizon, 2 * maritime::kHour);
  const std::string text =
      size > head ? std::string(reinterpret_cast<const char*>(data) + head,
                                size - head)
                  : std::string();
  for (size_t pos = 0; pos < text.size() && d.raw_lines.size() < 64;) {
    const size_t end = std::min(text.find('\n', pos), text.size());
    d.raw_lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  const maritime::lattice::Outcome o = maritime::lattice::RunDraw(d);
  if (!o.failure.empty()) {
    std::fprintf(stderr, "%s\n  %s\n", maritime::lattice::Describe(d).c_str(),
                 o.failure.c_str());
    std::abort();
  }
  return 0;
}
