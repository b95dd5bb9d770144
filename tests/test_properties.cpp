// Cross-cutting property sweeps: for randomized layers and overlay shapes,
// the whole pipeline (search -> analytical model -> codegen -> cycle-level
// simulation) must uphold its invariants.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/adjacency.h"
#include "compiler/codegen.h"
#include "nn/reference.h"
#include "sim/ftdl_sim.h"
#include "sim_run.h"

namespace ftdl {
namespace {

using compiler::HwLevel;
using compiler::Objective;
using compiler::Workload;

/// Deterministic pseudo-random overlay shapes that always validate.
arch::OverlayConfig random_config(Rng& rng) {
  arch::OverlayConfig c;
  c.d1 = static_cast<int>(rng.uniform(2, 8));
  c.d2 = static_cast<int>(rng.uniform(1, 4));
  c.d3 = static_cast<int>(rng.uniform(1, 5));
  c.actbuf_words = 64 << rng.uniform(0, 2);   // 64/128/256
  c.psumbuf_words = 1024 << rng.uniform(0, 2);
  c.validate();
  return c;
}

nn::Layer random_conv(Rng& rng, int idx) {
  const int in_c = static_cast<int>(rng.uniform(1, 12));
  const int hw = static_cast<int>(rng.uniform(4, 14));
  const int out_c = static_cast<int>(rng.uniform(1, 16));
  const int k = static_cast<int>(rng.uniform(1, std::min(hw, 5)));
  const int stride = static_cast<int>(rng.uniform(1, 2));
  const int pad = static_cast<int>(rng.uniform(0, k / 2));
  return nn::make_conv("prop_conv_" + std::to_string(idx), in_c, hw, hw, out_c,
                       k, stride, pad);
}

nn::Layer random_mm(Rng& rng, int idx) {
  return nn::make_matmul("prop_mm_" + std::to_string(idx),
                         rng.uniform(1, 96), rng.uniform(1, 64),
                         rng.uniform(1, 24));
}

class PropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(PropertySweep, PipelineInvariantsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const arch::OverlayConfig cfg = random_config(rng);
  const bool conv = rng.uniform01() < 0.6;
  const nn::Layer layer =
      conv ? random_conv(rng, GetParam()) : random_mm(rng, GetParam());

  const compiler::LayerProgram prog = compiler::compile_layer(
      layer, cfg, Objective::Performance, 4'000);
  const Workload& w = prog.workload;
  const auto& perf = prog.perf;
  const auto& m = prog.mapping;

  // --- compiler invariants ---------------------------------------------------
  EXPECT_TRUE(compiler::satisfies_adjacency(m, w));
  EXPECT_TRUE(
      compiler::satisfies_logical_constraints(m, w, cfg.d1, cfg.d2, cfg.d3));
  EXPECT_TRUE(perf.feasible);
  EXPECT_GT(perf.e_wbuf, 0.0);
  EXPECT_LE(perf.e_wbuf, 1.0 + 1e-9);
  EXPECT_LE(perf.buffers.actbuf_words_per_tpe, cfg.actbuf_usable());
  EXPECT_LE(perf.buffers.wbuf_words_per_tpe, cfg.wbuf_words);
  EXPECT_LE(perf.buffers.psum_words_per_superblock, cfg.psumbuf_usable());
  // Eqn. 12 really is the max of its channels.
  EXPECT_EQ(perf.c_exe, std::max({perf.c_comp, perf.c_act_bus, perf.c_psum_bus,
                                  perf.c_dram_rd, perf.c_dram_wr}));
  // Eqn. 7 lower bound: padded work / array size.
  EXPECT_GE(perf.c_comp * cfg.tpes(), w.macs());

  // --- functional + timing cross-check on the simulator ----------------------
  Rng data_rng(static_cast<std::uint64_t>(GetParam()) + 5);
  nn::Tensor16 weights, input;
  nn::AccTensor expected;
  if (conv) {
    const nn::Layer& part = nn::LayerKind::Conv == prog.layer.kind
                                ? prog.layer
                                : layer;
    input = nn::Tensor16({part.in_c, part.in_h, part.in_w});
    weights = nn::Tensor16({part.out_c, part.in_c, part.kh, part.kw});
    input.fill_random(data_rng);
    weights.fill_random(data_rng);
    expected = nn::conv2d_reference(part, input, weights);
  } else {
    input = nn::Tensor16({static_cast<int>(layer.mm_m),
                          static_cast<int>(layer.mm_p)});
    weights = nn::Tensor16({static_cast<int>(layer.mm_n),
                            static_cast<int>(layer.mm_m)});
    input.fill_random(data_rng);
    weights.fill_random(data_rng);
    expected = nn::matmul_reference(layer, input, weights);
  }
  if (prog.weight_groups != 1) return;  // stitching covered in test_runtime

  const SimRun r = simulate(prog, cfg, weights, input);
  EXPECT_EQ(r.output, expected) << m.to_string(w);
  // The simulated schedule is never faster than the analytical bound and
  // stays within a modest envelope above it.
  EXPECT_GE(r.stats.cycles, perf.c_comp * 9 / 10);
  // Upper bound: the simulated per-iteration max() can at worst sum the
  // channels the analytical model takes the max over.
  EXPECT_LE(r.stats.cycles,
            perf.c_comp + perf.c_act_bus + perf.c_psum_bus +
                std::max(perf.c_dram_rd, perf.c_dram_wr) +
                2 * cfg.pipeline_latency() * perf.x + 64);
  EXPECT_EQ(r.stats.padded_maccs, m.padded_macs());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertySweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace ftdl
