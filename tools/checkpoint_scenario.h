#ifndef MARITIME_TOOLS_CHECKPOINT_SCENARIO_H_
#define MARITIME_TOOLS_CHECKPOINT_SCENARIO_H_

// The deterministic simulated fleet that checkpoint_tool drives, shared with
// the tests that restore the committed snapshot fixture
// (tests/data/checkpoint_6_slides.msnp), so both run the same stream.

#include <vector>

#include "common/time.h"
#include "maritime/pipeline.h"
#include "sim/generator.h"
#include "sim/world.h"
#include "stream/position.h"

namespace maritime::checkpoint_scenario {

inline constexpr uint64_t kWorldSeed = 7;
inline constexpr uint64_t kFleetSeed = 42;

inline sim::World MakeWorld() {
  sim::WorldParams params;
  params.ports = 10;
  params.protected_areas = 4;
  params.forbidden_fishing_areas = 4;
  params.shallow_areas = 3;
  return sim::BuildWorld(kWorldSeed, params);
}

inline std::vector<stream::PositionTuple> MakeStream(sim::World* world) {
  sim::FleetConfig cfg;
  cfg.vessels = 20;
  cfg.duration = 6 * kHour;
  cfg.seed = kFleetSeed;
  sim::FleetSimulator fleet(world, cfg);
  return fleet.Generate();
}

inline surveillance::PipelineConfig MakeConfig() {
  surveillance::PipelineConfig cfg;
  cfg.window = stream::WindowSpec{kHour, 10 * kMinute};
  cfg.partitions = 1;
  cfg.archive = true;
  return cfg;
}

}  // namespace maritime::checkpoint_scenario

#endif  // MARITIME_TOOLS_CHECKPOINT_SCENARIO_H_
