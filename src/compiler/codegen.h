// Instruction-stream generation.
//
// After the search fixes a mapping, codegen lowers it to the configuration
// instructions every SuperBlock-row Controller consumes over the InstBUS
// before Launch (Sec. V-A: "the compiler also dumps the control
// instructions for all Controllers"). Rows run in SIMD so one stream
// serves every row; the stream plus the mapping metadata is everything the
// cycle-level simulator needs.
#pragma once

#include <vector>

#include "arch/isa.h"
#include "compiler/analytical_model.h"
#include "compiler/search.h"
#include "nn/layer.h"

namespace ftdl::compiler {

/// A fully compiled overlay layer.
struct LayerProgram {
  nn::Layer layer;
  Workload workload;   ///< workload of ONE weight group (== layer if 1 group)
  Mapping mapping;
  Performance perf;    ///< performance of one weight group
  arch::InstStream row_stream;  ///< per-row controller configuration

  /// Layers whose weights exceed the total WBUF capacity are executed as
  /// `weight_groups` sequential groups along the weight-only dimension
  /// (output channels / output features), each with its weights preloaded
  /// in turn — the paper's weight-stationary methodology applied piecewise.
  int weight_groups = 1;

  /// DRAM-fed weight-reload cycles per group (0 unless the overlay charges
  /// reload; see OverlayConfig::charge_weight_reload).
  std::int64_t reload_cycles_per_group = 0;

  /// Execution cycles for the whole layer (all groups, incl. any charged
  /// reload time; the first group's preload is charged too when enabled —
  /// conservative for back-to-back frames where no idle preload slot
  /// exists).
  std::int64_t total_cycles() const {
    return (perf.c_exe + reload_cycles_per_group) * weight_groups;
  }

  /// Encoded 64-bit InstBUS words (what the hardware would receive).
  std::vector<std::uint64_t> encoded_stream() const;
};

/// Lowers a solved mapping to its instruction stream.
arch::InstStream generate_row_stream(const Workload& w, const Mapping& m,
                                     const Performance& perf);

/// Searches for the best mapping of `layer` under `objective` and lowers it.
/// When the layer's weights exceed the WBUF capacity for any mapping, the
/// layer is split into weight groups (doubling the group count until a
/// feasible mapping exists, with the one-channel slice tried last when
/// doubling overshoots the weight-only extent). A group count whose slice
/// has more weight words than all TPEs' WBUFs hold is skipped without a
/// search. Throws ftdl::InfeasibleError only when even the one-channel slice
/// has no feasible mapping.
LayerProgram compile_layer(const nn::Layer& layer,
                           const arch::OverlayConfig& config,
                           Objective objective = Objective::Performance,
                           std::int64_t max_candidates = 200'000);

/// The extent of `layer`'s weight-only dimension (conv output channels,
/// depthwise channels, MM output features): the dimension weight groups
/// split.
int weight_only_extent(const nn::Layer& layer);

/// The layer restricted to one of `groups` slices of its weight-only
/// dimension: the layer a program of `weight_groups == groups` maps.
nn::Layer weight_group_slice(const nn::Layer& layer, int groups);

/// Every weight-group slice of `layer` split `groups` ways, in channel
/// order: weight_group_slice's extent each, the last slice the rest. The
/// runtime runs the layer through one layer-level sim::CachedLayerSim over
/// the slices' programs; a full-size slice reuses the layer's own program,
/// so only a shorter last slice is compiled on its own.
std::vector<nn::Layer> weight_group_layers(const nn::Layer& layer,
                                           int groups);

/// Lowers an explicit solution (used by tests and the simulator harness).
LayerProgram lower_solution(const nn::Layer& layer, const Workload& w,
                            const Solution& solution);

}  // namespace ftdl::compiler
