// Figure 11(b): the same experiment as 11(a), but the ME stream is
// augmented with precomputed spatial facts — each ME is accompanied by
// timestamped `close(Vessel, Area)` facts, so recognition performs no
// on-demand spatial reasoning. The input stream is therefore substantially
// larger (MEs + SFs), yet recognition is faster.
//
// The end-to-end pool-size sweep runs in this mode too, with the
// spatial-fact precomputation on the feed path.
//
// Flags (all optional; argument-free reproduces the figure):
//   --engine=naive|incremental|both   restrict the engine axis (default both)
//   --scales=1,2,4                    fleet-scale axis (default 1)
//   --json=PATH                       JSON artifact path (default none)
//
// Expected shape (paper): despite roughly doubling the input facts, average
// recognition time drops substantially versus 11(a), and two processors
// scale it further (the paper reports ~1.5 s for 125K input facts).

#include <cstring>

#include "fig11_common.h"

int main(int argc, char** argv) {
  maritime::bench::Fig11Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--engine=", 9) == 0) {
      const char* v = arg + 9;
      opts.run_naive = std::strcmp(v, "incremental") != 0;
      opts.run_incremental = std::strcmp(v, "naive") != 0;
    } else if (std::strncmp(arg, "--scales=", 9) == 0) {
      opts.fleet_scales.clear();
      for (const char* p = arg + 9; *p != '\0';) {
        opts.fleet_scales.push_back(std::atof(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      if (opts.fleet_scales.empty()) opts.fleet_scales = {1.0};
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts.json_path = arg + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--engine=naive|incremental|both] "
                   "[--scales=1,2,4] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  maritime::bench::PrintHeader(
      "fig11b_ce_spatial_facts — CE recognition with precomputed spatial "
      "facts",
      "Figure 11(b), EDBT 2015 paper Section 5.2");
  maritime::bench::RunFig11(/*spatial_facts=*/true, opts);
  std::printf("\nexpected shape (paper): larger input (MEs + spatial facts) "
              "but lower recognition time than fig11a; parallel recognition "
              "reduces it further.\n");
  return 0;
}
