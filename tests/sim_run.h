// Test helper: one functional run of a compiled program on a fresh
// sim::CachedLayerSim, the simulator's one functional entry point.
#pragma once

#include "common/thread_pool.h"
#include "sim/ftdl_sim.h"

namespace ftdl {

struct SimRun {
  nn::AccTensor output;  ///< wide accumulators (pre-requantization)
  sim::SimStats stats;   ///< the runner's cached stats
};

/// Builds a runner for `program` and runs it once on `pool` (nullptr runs
/// serially on the caller).
inline SimRun simulate(const compiler::LayerProgram& program,
                       const arch::OverlayConfig& config,
                       const nn::Tensor16& weights, const nn::Tensor16& input,
                       const sim::SimOptions& options = {},
                       ThreadPool* pool = nullptr) {
  const sim::CachedLayerSim runner(program, config, options);
  SimRun r;
  runner.run(weights, input, r.output, pool);
  r.stats = runner.stats();
  return r;
}

}  // namespace ftdl
