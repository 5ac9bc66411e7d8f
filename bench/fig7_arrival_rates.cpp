// Figure 7: online tracking latency at artificially increased arrival rates
// ρ up to 10,000 positions/sec, with ω = 10 min and β = 1 min.
//
// The paper stresses the tracker "by admitting bigger chunks of data for
// processing at considerably increased arrival rates": the original stream
// is replayed faster than real time, so each one-minute slide delivers
// ρ × 60 positions. We do the same — a long natural stream is consumed in
// wall-minute chunks of the target size and the per-slide processing time
// is measured. Expected shape: latency grows with ρ but the tracker always
// responds well before the next slide, even at 10K positions/sec (600,000
// fresh positions per slide).

#include "bench_common.h"
#include "tracker/compressor.h"
#include "tracker/mobility_tracker.h"

namespace maritime::bench {
namespace {

void Main() {
  PrintHeader("fig7_arrival_rates — tracking latency vs stream arrival rate",
              "Figure 7, EDBT 2015 paper Section 5.1 (omega=10min, beta=1min)");
  // A large fleet over 36 h provides enough positions to feed several
  // 600K-position slides (the paper replays its 6425-vessel stream).
  const BenchStream data = MakeBenchStream(/*base_vessels=*/3000,
                                           /*duration=*/36 * kHour,
                                           /*seed=*/1234);
  std::printf("natural stream: %zu positions from %zu vessels over 36h\n\n",
              data.tuples.size(), data.fleet.size());

  constexpr int kSlides = 10;
  for (const double rho : {1000.0, 2000.0, 5000.0, 10000.0}) {
    const size_t chunk = static_cast<size_t>(rho * 60.0);
    tracker::MobilityTracker tracker;
    tracker::Compressor compressor;
    size_t cursor = 0;
    double total = 0.0;
    double worst = 0.0;
    int slides = 0;
    for (int s = 0; s < kSlides && cursor < data.tuples.size(); ++s) {
      const size_t end = std::min(data.tuples.size(), cursor + chunk);
      const double t0 = NowSeconds();
      std::vector<tracker::CriticalPoint> raw;
      for (size_t i = cursor; i < end; ++i) {
        tracker.Process(data.tuples[i], &raw);
      }
      tracker.AdvanceTo(data.tuples[end - 1].tau, &raw);
      compressor.Compress(&raw, end - cursor);
      const double dt = NowSeconds() - t0;
      total += dt;
      worst = std::max(worst, dt);
      cursor = end;
      ++slides;
    }
    std::printf("  rho=%6.0f pos/s  (%7zu fresh/slide)  avg %8.1f ms/slide  "
                "max %8.1f ms  over %d slides\n",
                rho, chunk, total / std::max(1, slides) * 1e3, worst * 1e3,
                slides);
  }
  std::printf("\nexpected shape (paper): latency grows with the arrival rate "
              "but remains a small fraction of the 60 s slide period even at "
              "10K positions/sec.\n");
}

}  // namespace
}  // namespace maritime::bench

int main() {
  maritime::bench::Main();
  return 0;
}
