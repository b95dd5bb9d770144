// Cycle-level, functionally-exact simulator of the FTDL overlay.
//
// Executes a compiled LayerProgram the way the hardware would:
//   * the iteration space is the padded 6-level x K-loop nest of Eqn. 2
//     (spatial D3/D2/D1 in parallel, temporal X/L/T in sequence);
//   * every valid iteration performs one int16 x int16 MACC into the wide
//     DSP accumulator of the owning output element;
//   * the Listing-1 control flow is timed: LoopT bursts overlap ActBUF
//     refills (double buffering), LoopX overlaps PSumBUF drains, and the
//     slower side stalls the machine — reproducing Eqn. 12's max() as an
//     emergent per-iteration behaviour rather than a formula;
//   * every off-chip transfer is logged to a dram::AccessTrace.
//
// One runner, CachedLayerSim, runs any compiled program, a layer split into
// weight groups included: it times each distinct part program once and
// computes the layer's MACCs in one engine call (sim_engine.h), in
// workload-loop order rather than the hardware's. Integer accumulation does
// not depend on the order, so the accumulators equal the hardware order's
// bit for bit; the test suite bit-compares them against
// nn::conv2d_reference / nn::depthwise_reference / nn::matmul_reference.
// simulate_layer_stats runs the same validation and timing of one part
// without tensors, and also yields the DRAM access trace.
#pragma once

#include <memory>

#include "arch/overlay_config.h"
#include "compiler/codegen.h"
#include "dram/trace.h"
#include "nn/tensor.h"
#include "sim/sim_engine.h"

namespace ftdl::sim {

// Field-by-field units and paper mappings: docs/observability.md
// ("SimStats <-> paper quantities").
struct SimOptions {
  /// simulate_layer_stats: log every off-chip transfer into
  /// SimResult::trace (a dram::AccessTrace of {cycle, kind, bytes} records)
  /// — the input of the DRAM power model and the Fig. 7 roofline's traffic
  /// axis. On by default; turn off for microbenchmarks where the trace
  /// allocation would dominate. CachedLayerSim never collects a trace.
  bool collect_trace = true;
  /// Guard for accidental huge runs, in padded MACCs (the Eqn. 2 iteration
  /// space, Mapping::padded_macs). Runs larger than the limit throw
  /// ftdl::Error instead of hanging.
  std::int64_t max_padded_macs = std::int64_t{1} << 33;
};

struct SimStats {
  /// Total execution time in CLKh cycles — the measured C_exe of the layer,
  /// the simulator's emergent counterpart of Eqn. 12's
  /// max(C_comp, C_actbus, C_psumbus, C_dram).
  std::int64_t cycles = 0;
  /// CLKh cycles spent in LoopT bursts (the Eqn. 7 compute term, including
  /// the 2x stretch when the double pump lacks T-level weight reuse).
  std::int64_t compute_cycles = 0;
  /// CLKh cycles of ActBUF refill time NOT hidden by compute — the Eqn. 12
  /// slack on the ActBUS / DRAM-read side.
  std::int64_t act_stall_cycles = 0;
  /// CLKh cycles of PSumBUF drain time NOT hidden by compute — the Eqn. 12
  /// slack on the PSumBUS / DRAM-write side.
  std::int64_t psum_stall_cycles = 0;
  /// MACCs on real (unpadded) iterations — the layer's true MAC count.
  std::int64_t valid_maccs = 0;
  /// MACCs issued including padding (== Mapping::padded_macs, Eqn. 2).
  std::int64_t padded_maccs = 0;
  /// ActBUF sub-buffer swaps executed (one per LoopL iteration).
  std::int64_t act_refills = 0;
  /// PSumBUF drains executed (one per LoopX iteration).
  std::int64_t psum_drains = 0;

  /// Hardware efficiency as defined for Table II: true MACs over issued
  /// MACC slots, valid_maccs / (cycles * #TPE). Dimensionless, in [0, 1];
  /// 0.0 when cycles or tpes is not positive (nothing was issued).
  double hardware_efficiency(int tpes) const {
    if (cycles <= 0 || tpes <= 0) return 0.0;
    return double(valid_maccs) / (double(cycles) * double(tpes));
  }
};

struct SimResult {
  SimStats stats;
  dram::AccessTrace trace;
};

/// Stats-only simulation of a program that maps the whole layer
/// (weight_groups == 1): SimStats, with valid_maccs counted from the
/// mapping's loop coverage, and the DRAM AccessTrace, without tensors. The
/// path for Table II / Fig. 7 / roofline sweeps that never look at an
/// output. Throws ftdl::ConfigError on a split program (run it through
/// CachedLayerSim), ftdl::Error when the padded iteration space exceeds
/// options.max_padded_macs or the stream disagrees with the mapping.
SimResult simulate_layer_stats(const compiler::LayerProgram& program,
                               const arch::OverlayConfig& config,
                               const SimOptions& options = {});

/// A layer's weights bound for its runners (CachedLayerSim::bind): the
/// weight layout checked, and every value a run derives from the weights
/// alone computed once. Refers to the weight tensor, which must outlive it
/// unmutated. Immutable, so runs on several threads may share one.
class BoundWeights {
 private:
  friend class CachedLayerSim;
  BoundWeights() = default;
  detail::EngineTables tables_;  ///< the layer geometry bound for
  detail::WeightBinding engine_;
};

/// Reusable functional runner for one compiled overlay layer — the only
/// functional path, and the steady state of the serving runtime. All
/// input-independent work (instruction stream decode and cross-check,
/// engine tables, the timing pass, the valid-MACC count) happens once at
/// construction, and all weight-derived work (the layout check, max |w|,
/// a strided conv's phase-split kernel) once per weight tensor, at bind();
/// run() on a binding executes only the functional pass, as one engine
/// call over the whole layer, so a warm runner allocates nothing beyond
/// what the calling thread's TensorArena pools.
class CachedLayerSim {
 public:
  /// Runner for `program`, split into weight groups or not. The overlay
  /// runs the parts back to back and a part's SimStats do not depend on the
  /// data, so each distinct part program (the full-size one, and the tail
  /// if there is one) is timed once, without a trace, and the cached stats
  /// are the full-size part's times its count plus the tail's. Throws
  /// ftdl::Error when a part's padded iteration space exceeds
  /// options.max_padded_macs or its stream disagrees with its mapping.
  CachedLayerSim(const compiler::LayerProgram& program,
                 const arch::OverlayConfig& config,
                 const SimOptions& options = {});
  ~CachedLayerSim();
  CachedLayerSim(CachedLayerSim&&) noexcept;
  CachedLayerSim& operator=(CachedLayerSim&&) noexcept;

  /// The cached per-run statistics (cycles, MACC counts, refills/drains),
  /// summed over the parts.
  const SimStats& stats() const;

  /// Binds the layer's full weight tensor (a weight group is a contiguous
  /// channel range of it) for run(): checks its layout (conv {out_c, in_c,
  /// kh, kw}; depthwise {c, kh, kw}; MM {N, M}; else ftdl::ConfigError),
  /// takes a conv's max |w| and, for a strided conv whose phase split moves
  /// taps, its phase-split kernel (drawn from the calling thread's
  /// TensorArena, or the heap). The binding serves every runner of this
  /// layer geometry.
  BoundWeights bind(const nn::Tensor16& weights) const;

  /// Functional pass over bound weights: validates the input layout (conv
  /// and depthwise {in_c, h, w}; MM {M, P}) and that `weights` was bound
  /// for this layer geometry (else ftdl::ConfigError), reshapes `out` to
  /// the layer's output shape if it does not already match (the only
  /// potential allocation — pooled under an installed TensorArena) and
  /// computes the whole layer, overwriting every element of `out`. Returns
  /// max |acc| over the output, as a magnitude (2^63 for INT64_MIN): the
  /// requantisation's calibration input. The pass fans out over `pool`,
  /// each task zeroing its own channel range and scanning it for that
  /// maximum; nullptr runs serially on the caller, and the output is
  /// bit-identical at every pool size. Throws ftdl::InternalError when the
  /// parts' mappings leave part of a loop uncovered (the coverage
  /// cross-check, docs/simulator.md).
  std::uint64_t run(const BoundWeights& weights, const nn::Tensor16& input,
                    nn::AccTensor& out, ThreadPool* pool = nullptr) const;

  /// run(bind(weights), input, out, pool).
  std::uint64_t run(const nn::Tensor16& weights, const nn::Tensor16& input,
                    nn::AccTensor& out, ThreadPool* pool = nullptr) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftdl::sim
