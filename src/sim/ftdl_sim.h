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
// One engine computes the MACCs (sim_engine.h), in workload-loop order
// rather than the hardware's: integer accumulation does not depend on the
// order, so the accumulators equal the hardware order's bit for bit. The
// test suite bit-compares them against nn::conv2d_reference /
// nn::depthwise_reference / nn::matmul_reference. simulate_layer_stats
// runs the same validation and timing without tensors.
#pragma once

#include <memory>
#include <span>

#include "arch/overlay_config.h"
#include "compiler/codegen.h"
#include "dram/trace.h"
#include "nn/tensor.h"

namespace ftdl {
class ThreadPool;
}

namespace ftdl::sim {

// Field-by-field units and paper mappings: docs/observability.md
// ("SimStats <-> paper quantities").
struct SimOptions {
  /// Log every off-chip transfer into SimResult::trace (a dram::AccessTrace
  /// of {cycle, kind, bytes} records) — the input of the DRAM power model
  /// and the Fig. 7 roofline's traffic axis. On by default; turn off for
  /// microbenchmarks where the trace allocation would dominate.
  bool collect_trace = true;
  /// Guard for accidental huge runs, in padded MACCs (the Eqn. 2 iteration
  /// space, Mapping::padded_macs). Runs larger than the limit throw
  /// ftdl::Error instead of hanging.
  std::int64_t max_padded_macs = std::int64_t{1} << 33;
  /// Worker-pool parallelism of the functional pass:
  /// 0 uses the shared CompilerSession pool (FTDL_JOBS / hardware threads),
  /// 1 runs serially on the caller, N > 1 runs on a transient pool of N.
  /// Outputs and SimStats are bit-identical at every value — each output
  /// accumulator is owned by exactly one worker.
  int jobs = 0;
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
  nn::AccTensor output;   ///< wide accumulators (pre-requantization)
  SimStats stats;
  dram::AccessTrace trace;
};

/// Simulates one compiled layer. `weights` / `input` use the reference
/// layouts (conv: {out_c, in_c, kh, kw} and {in_c, h, w}; MM: {N, M} and
/// {M, P}). `program` must map the whole layer (weight_groups == 1): a
/// program split into weight groups maps one group's slice, so run a split
/// layer through the layer-level CachedLayerSim instead. Throws
/// ftdl::ConfigError on layout mismatch or a split program, ftdl::Error
/// when the padded iteration space exceeds options.max_padded_macs, and
/// ftdl::InternalError when the mapping leaves part of a loop uncovered.
SimResult simulate_layer(const compiler::LayerProgram& program,
                         const arch::OverlayConfig& config,
                         const nn::Tensor16& weights, const nn::Tensor16& input,
                         const SimOptions& options = {});

/// Stats-only simulation without tensors: produces SimStats and the DRAM
/// AccessTrace bit-identical to simulate_layer on the same program, with
/// SimResult::output left empty and valid_maccs counted from the mapping's
/// loop coverage. The cheap path for Table II / Fig. 7 / roofline sweeps
/// that never look at the output; `options.jobs` is unused.
SimResult simulate_layer_stats(const compiler::LayerProgram& program,
                               const arch::OverlayConfig& config,
                               const SimOptions& options = {});

/// Reusable functional runner for one overlay layer — the steady-state
/// path of the serving runtime. All input-independent work (instruction
/// stream decode and cross-check, engine tables, the timing pass, the
/// valid-MACC count) happens once at construction; run() executes only the
/// functional pass, as one engine call over the whole layer, so a warm
/// runner allocates nothing beyond what the calling thread's TensorArena
/// pools. SimStats are input-independent, hence cached and identical to
/// what simulate_layer would report on every call.
class CachedLayerSim {
 public:
  /// Runner for a program that maps the whole layer. Analyses `program` as
  /// simulate_layer would (same validation and throwing behaviour, so a
  /// program split into weight groups is refused with ftdl::ConfigError).
  /// `options.jobs` is unused: run() takes its pool.
  CachedLayerSim(const compiler::LayerProgram& program,
                 const arch::OverlayConfig& config,
                 const SimOptions& options = {});

  /// Runner for `layer` split into weight groups: `groups` holds the
  /// compiled program of each group's slice (each weight_groups == 1), in
  /// channel order. A weight group is a contiguous range of the layer's
  /// weight-only extent (conv output channels, depthwise channels, MatMul
  /// output features); the groups' extents must tile the layer's and every
  /// other dimension must equal it, else ftdl::ConfigError. The overlay runs
  /// the groups back to back, so the cached SimStats are the sums of the
  /// groups' stats, and each run cross-checks the MACCs executed against
  /// the sum of the groups' mapped coverage. run() takes the layer's full
  /// weight tensor and produces the layer's full output in one call. With
  /// one group spanning the layer this is the single-program runner above.
  CachedLayerSim(const nn::Layer& layer,
                 std::span<const compiler::LayerProgram> groups,
                 const arch::OverlayConfig& config,
                 const SimOptions& options = {});
  ~CachedLayerSim();
  CachedLayerSim(CachedLayerSim&&) noexcept;
  CachedLayerSim& operator=(CachedLayerSim&&) noexcept;

  /// The cached per-run statistics (cycles, MACC counts, refills/drains),
  /// summed over the weight groups.
  const SimStats& stats() const;

  /// Functional pass: validates layouts, reshapes `out` to the layer's
  /// output shape if it does not already match (the only potential
  /// allocation — pooled under an installed TensorArena), zeroes it and
  /// accumulates the layer. `pool` as in SimOptions::jobs: nullptr runs
  /// serially on the caller. Bit-identical to simulate_layer's output.
  /// Throws ftdl::InternalError when the mapping leaves part of a loop
  /// uncovered (the coverage cross-check, docs/simulator.md).
  void run(const nn::Tensor16& weights, const nn::Tensor16& input,
           nn::AccTensor& out, ThreadPool* pool = nullptr) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftdl::sim
