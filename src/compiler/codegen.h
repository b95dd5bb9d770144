// Instruction-stream generation.
//
// After the search fixes a mapping, codegen lowers it to the configuration
// instructions every SuperBlock-row Controller consumes over the InstBUS
// before Launch (Sec. V-A: "the compiler also dumps the control
// instructions for all Controllers"). Rows run in SIMD so one stream
// serves every row; the stream plus the mapping metadata is everything the
// cycle-level simulator needs.
#pragma once

#include <memory>
#include <vector>

#include "arch/isa.h"
#include "compiler/analytical_model.h"
#include "compiler/search.h"
#include "nn/layer.h"

namespace ftdl::compiler {

/// A fully compiled overlay layer.
struct LayerProgram {
  nn::Layer layer;
  Workload workload;   ///< workload of ONE full-size part (== layer if 1 part)
  Mapping mapping;
  Performance perf;    ///< performance of one full-size part
  arch::InstStream row_stream;  ///< per-row controller configuration

  /// Layers whose weights exceed the total WBUF capacity are executed as
  /// `weight_groups` sequential parts along the weight-only dimension
  /// (output channels / output features), each with its weights preloaded
  /// in turn — the paper's weight-stationary methodology applied piecewise.
  /// Every part but `tail` maps the full-size slice this program describes.
  int weight_groups = 1;

  /// DRAM-fed weight-reload cycles per full-size part (0 unless the overlay
  /// charges reload; see OverlayConfig::charge_weight_reload).
  std::int64_t reload_cycles_per_group = 0;

  /// When the full-size slice does not divide the weight-only extent: the
  /// compiled program of the shorter last part (one part, its own layer is
  /// that slice). Null for an even split or a single part.
  std::shared_ptr<const LayerProgram> tail;

  /// The parts that run this program's mapping.
  int full_size_parts() const { return weight_groups - (tail ? 1 : 0); }

  /// Execution cycles for the whole layer: every part the overlay runs,
  /// incl. any charged reload time (the first part's preload is charged
  /// too when enabled — conservative for back-to-back frames where no idle
  /// preload slot exists).
  std::int64_t total_cycles() const {
    return (perf.c_exe + reload_cycles_per_group) * full_size_parts() +
           (tail ? tail->total_cycles() : 0);
  }

  /// DRAM bytes read / written for the whole layer: `perf`'s per-part
  /// traffic over every part the overlay runs, the tail's included, like
  /// total_cycles().
  double total_dram_rd_bytes() const {
    return perf.dram_rd_bytes * full_size_parts() +
           (tail ? tail->total_dram_rd_bytes() : 0.0);
  }
  double total_dram_wr_bytes() const {
    return perf.dram_wr_bytes * full_size_parts() +
           (tail ? tail->total_dram_wr_bytes() : 0.0);
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
/// search. The program records the parts the overlay runs: ceil(E / S)
/// parts of the slice extent S = ceil(E / groups), and, when S does not
/// divide E, the compiled shorter last part in `tail` (compiled by this
/// function at the same budget; a tail that needs a split of its own makes
/// the group count infeasible). Throws ftdl::InfeasibleError only when even
/// the one-channel slice has no feasible mapping.
LayerProgram compile_layer(const nn::Layer& layer,
                           const arch::OverlayConfig& config,
                           Objective objective = Objective::Performance,
                           std::int64_t max_candidates = 200'000);

/// DRAM-fed weight-reload cycles of one part mapped as `perf`: its weights
/// (duplication included, 2 bytes per word) stream in over the read
/// channel. 0 unless config.charge_weight_reload.
std::int64_t weight_reload_cycles(const Performance& perf,
                                  const arch::OverlayConfig& config);

/// The extent of `layer`'s weight-only dimension (conv output channels,
/// depthwise channels, MM output features): the dimension weight groups
/// split.
int weight_only_extent(const nn::Layer& layer);

/// The layer restricted to one of `groups` slices of its weight-only
/// dimension: the layer a program of `weight_groups == groups` maps.
nn::Layer weight_group_slice(const nn::Layer& layer, int groups);

/// The layer with its weight-only extent set to `extent` (a depthwise
/// layer's output channels follow its input channels).
nn::Layer with_weight_only_extent(const nn::Layer& layer, int extent);

/// Lowers an explicit solution (used by tests and the simulator harness).
LayerProgram lower_solution(const nn::Layer& layer, const Workload& w,
                            const Solution& solution);

}  // namespace ftdl::compiler
