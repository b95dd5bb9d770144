// Cycle-level simulator tests: functional bit-exactness against the scalar
// reference, timing consistency with the analytical model, and the
// double-buffering stall behaviour. Parameterized sweeps act as
// property-based tests over random layer shapes and mappings.
#include <gtest/gtest.h>

#include "arch/overlay_config.h"
#include "common/rng.h"
#include "nn/reference.h"
#include "sim/ftdl_sim.h"

namespace ftdl::sim {
namespace {

using compiler::Objective;
using compiler::Workload;

/// A small overlay so functional simulation stays fast in tests.
arch::OverlayConfig small_config() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  c.actbuf_words = 128;
  c.wbuf_words = 1024;
  c.psumbuf_words = 2048;
  c.clocks = fpga::ClockPair::from_high(650e6);
  return c;
}

SimResult run_conv(const nn::Layer& layer, const arch::OverlayConfig& cfg,
                   nn::AccTensor* reference_out, Objective obj,
                   std::uint64_t seed = 7) {
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, obj, 8'000);
  Rng rng(seed);
  nn::Tensor16 input({layer.in_c, layer.in_h, layer.in_w});
  nn::Tensor16 weights({layer.out_c, layer.in_c, layer.kh, layer.kw});
  input.fill_random(rng);
  weights.fill_random(rng);
  if (reference_out) *reference_out = nn::conv2d_reference(layer, input, weights);
  return simulate_layer(prog, cfg, weights, input);
}

SimResult run_mm(const nn::Layer& layer, const arch::OverlayConfig& cfg,
                 nn::AccTensor* reference_out, std::uint64_t seed = 11) {
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 8'000);
  Rng rng(seed);
  nn::Tensor16 act({static_cast<int>(layer.mm_m), static_cast<int>(layer.mm_p)});
  nn::Tensor16 weights(
      {static_cast<int>(layer.mm_n), static_cast<int>(layer.mm_m)});
  act.fill_random(rng);
  weights.fill_random(rng);
  if (reference_out) *reference_out = nn::matmul_reference(layer, act, weights);
  return simulate_layer(prog, cfg, weights, act);
}

TEST(Sim, ConvMatchesReferenceBitExact) {
  const nn::Layer layer = nn::make_conv("c", 8, 10, 10, 12, 3, 1, 1);
  nn::AccTensor ref;
  const SimResult r = run_conv(layer, small_config(), &ref,
                               Objective::Performance);
  EXPECT_EQ(r.output, ref);
  EXPECT_EQ(r.stats.valid_maccs, layer.macs() - /*padding skips*/ 0 -
                                     (layer.macs() - r.stats.valid_maccs));
  EXPECT_GT(r.stats.cycles, 0);
}

TEST(Sim, StridedConvMatchesReference) {
  const nn::Layer layer = nn::make_conv("c", 6, 12, 12, 10, 3, 2, 1);
  nn::AccTensor ref;
  const SimResult r = run_conv(layer, small_config(), &ref,
                               Objective::Performance);
  EXPECT_EQ(r.output, ref);
}

TEST(Sim, NoPaddingConvMatchesReference) {
  const nn::Layer layer = nn::make_conv("c", 5, 9, 9, 7, 3, 1, 0);
  nn::AccTensor ref;
  const SimResult r = run_conv(layer, small_config(), &ref,
                               Objective::Performance);
  EXPECT_EQ(r.output, ref);
}

TEST(Sim, MatMulMatchesReferenceBitExact) {
  const nn::Layer layer = nn::make_matmul("fc", 32, 24, 8);
  nn::AccTensor ref;
  const SimResult r = run_mm(layer, small_config(), &ref);
  EXPECT_EQ(r.output, ref);
}

TEST(Sim, BalanceObjectiveMappingIsAlsoExact) {
  const nn::Layer layer = nn::make_conv("c", 8, 10, 10, 12, 3, 1, 1);
  nn::AccTensor ref;
  const SimResult r = run_conv(layer, small_config(), &ref, Objective::Balance);
  EXPECT_EQ(r.output, ref);
}

TEST(Sim, ValidMaccsEqualTrueMacs) {
  const nn::Layer layer = nn::make_conv("c", 7, 11, 11, 9, 3, 1, 1);
  const SimResult r =
      run_conv(layer, small_config(), nullptr, Objective::Performance);
  // Every true iteration executes exactly once; padded iterations are
  // dropped (conv padding skips are boundary zeros, not workload MACs,
  // so valid_maccs counts only in-bounds input positions).
  EXPECT_LE(r.stats.valid_maccs, layer.macs());
  EXPECT_GE(r.stats.padded_maccs, layer.macs());
}

TEST(Sim, CyclesTrackAnalyticalModelForComputeBound) {
  const nn::Layer layer = nn::make_conv("c", 16, 14, 14, 16, 3, 1, 1);
  const arch::OverlayConfig cfg = small_config();
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 8'000);
  Rng rng(3);
  nn::Tensor16 input({16, 14, 14});
  nn::Tensor16 weights({16, 16, 3, 3});
  input.fill_random(rng);
  weights.fill_random(rng);
  const SimResult r = simulate_layer(prog, cfg, weights, input);
  // The simulated schedule can only be slower than the analytical max
  // (per-iteration maxima vs global maxima) but should stay close.
  EXPECT_GE(r.stats.cycles, prog.perf.c_exe * 95 / 100);
  EXPECT_LE(r.stats.cycles, prog.perf.c_exe * 135 / 100 +
                                2 * cfg.pipeline_latency() * prog.perf.x);
}

TEST(Sim, TraceRecordsAllTraffic) {
  const nn::Layer layer = nn::make_conv("c", 8, 10, 10, 8, 3, 1, 1);
  const SimResult r =
      run_conv(layer, small_config(), nullptr, Objective::Performance);
  EXPECT_FALSE(r.trace.events.empty());
  EXPECT_GT(r.trace.read_bytes(), 0u);
  EXPECT_GT(r.trace.write_bytes(), 0u);
  EXPECT_EQ(r.trace.total_cycles, static_cast<std::uint64_t>(r.stats.cycles));
  // Refill/drain counts match the mapping's loop structure.
  const compiler::LayerProgram prog = compiler::compile_layer(
      layer, small_config(), Objective::Performance, 8'000);
  EXPECT_EQ(r.stats.act_refills, prog.perf.x * prog.perf.l);
  EXPECT_EQ(r.stats.psum_drains, prog.perf.x);
}

TEST(Sim, LayoutMismatchThrows) {
  const nn::Layer layer = nn::make_conv("c", 8, 10, 10, 8, 3, 1, 1);
  const arch::OverlayConfig cfg = small_config();
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  nn::Tensor16 bad_input({4, 10, 10});
  nn::Tensor16 weights({8, 8, 3, 3});
  EXPECT_THROW(simulate_layer(prog, cfg, weights, bad_input), ConfigError);
}

TEST(Sim, OversizedIterationSpaceRejected) {
  const nn::Layer layer = nn::make_conv("c", 8, 10, 10, 8, 3, 1, 1);
  const arch::OverlayConfig cfg = small_config();
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  Rng rng(5);
  nn::Tensor16 input({8, 10, 10});
  nn::Tensor16 weights({8, 8, 3, 3});
  input.fill_random(rng);
  weights.fill_random(rng);
  SimOptions opt;
  opt.max_padded_macs = 10;  // absurdly small
  EXPECT_THROW(simulate_layer(prog, cfg, weights, input, opt), Error);
}

// ---- property sweep: random shapes, both kinds, bit-exactness --------------

struct SweepParam {
  int in_c, hw, out_c, k, stride, pad;
};

class ConvSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConvSweep, SimEqualsReference) {
  const SweepParam p = GetParam();
  const nn::Layer layer =
      nn::make_conv("sweep", p.in_c, p.hw, p.hw, p.out_c, p.k, p.stride, p.pad);
  nn::AccTensor ref;
  const SimResult r = run_conv(layer, small_config(), &ref,
                               Objective::Performance,
                               /*seed=*/p.in_c * 131 + p.out_c);
  EXPECT_EQ(r.output, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(SweepParam{3, 8, 4, 3, 1, 1},   // tiny
                      SweepParam{4, 16, 8, 5, 1, 2},  // 5x5 kernel
                      SweepParam{8, 12, 16, 3, 2, 1}, // strided
                      SweepParam{16, 7, 8, 1, 1, 0},  // pointwise
                      SweepParam{5, 10, 11, 3, 1, 0}, // prime-ish extents
                      SweepParam{12, 6, 20, 3, 1, 1},
                      SweepParam{2, 20, 3, 7, 2, 3},  // large kernel, stride
                      SweepParam{9, 9, 9, 3, 3, 0})); // stride 3

class MmSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MmSweep, SimEqualsReference) {
  const auto [m, n, p] = GetParam();
  const nn::Layer layer = nn::make_matmul("sweep", m, n, p);
  nn::AccTensor ref;
  const SimResult r = run_mm(layer, small_config(), &ref,
                             /*seed=*/std::uint64_t(m * 7 + n * 3 + p));
  EXPECT_EQ(r.output, ref);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MmSweep,
                         ::testing::Values(std::tuple{16, 16, 16},
                                           std::tuple{64, 10, 4},
                                           std::tuple{7, 13, 5},
                                           std::tuple{128, 3, 2},
                                           std::tuple{1, 32, 9},
                                           std::tuple{33, 1, 17}));

}  // namespace
}  // namespace ftdl::sim
