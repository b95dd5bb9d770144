// Tests for depthwise-convolution support across the stack: workload
// lowering, adjacency consequences (no D2 split), scheduling, simulation
// bit-exactness, runtime execution and the MobileNet model.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "compiler/adjacency.h"
#include "compiler/codegen.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "reference_forward.h"
#include "runtime/executor.h"
#include "sim/ftdl_sim.h"
#include "sim_run.h"

namespace ftdl {
namespace {

using compiler::HwLevel;
using compiler::Objective;
using compiler::Workload;

arch::OverlayConfig small_config() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  return c;
}

TEST(Depthwise, LayerAccounting) {
  const nn::Layer l = nn::make_depthwise("dw", 32, 14, 14, 3, 1, 1);
  EXPECT_EQ(l.out_c, 32);
  EXPECT_EQ(l.out_h(), 14);
  EXPECT_EQ(l.macs(), 32LL * 14 * 14 * 9);
  EXPECT_EQ(l.weight_count(), 32LL * 9);
  EXPECT_EQ(l.conv_ops(), 2 * l.macs());  // CONV class in Table I terms
  EXPECT_TRUE(l.on_overlay());
}

TEST(Depthwise, WorkloadHasNoWeightOnlyLoop) {
  const Workload w =
      Workload::from_layer(nn::make_depthwise("dw", 32, 14, 14, 3, 1, 1));
  EXPECT_EQ(w.kind, compiler::WorkloadKind::DepthwiseConv);
  ASSERT_EQ(w.k(), 5);
  for (int i = 0; i < w.k(); ++i) {
    // No loop is weight-only -> D2 is unusable.
    EXPECT_FALSE(adjacency_allows(w, HwLevel::D2, i)) << w.loops[i].tag;
  }
  // D1 only accepts the kernel reduction loops.
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D1, w.loop_index('N')));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D1, w.loop_index('R')));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D1, w.loop_index('S')));
}

TEST(Depthwise, EfficiencyCappedByArchitecture) {
  // On the paper overlay (D2=5, D1=12), a depthwise layer can use neither
  // the D2 columns (no weight-only loop) nor more than kh*kw=9 of the 12
  // cascade slots: efficiency <= (9/12)/5 = 15%.
  const nn::Layer dw = nn::make_depthwise("dw", 256, 14, 14, 3, 1, 1);
  const auto prog = compiler::compile_layer(dw, arch::paper_config(),
                                            Objective::Performance, 20'000);
  EXPECT_LE(prog.perf.hardware_efficiency, 0.15 + 1e-9);
  EXPECT_GT(prog.perf.hardware_efficiency, 0.01);
  EXPECT_EQ(prog.mapping.level_product(HwLevel::D2), 1);
}

TEST(Depthwise, SimMatchesReferenceBitExact) {
  for (auto layer : {nn::make_depthwise("a", 8, 10, 10, 3, 1, 1),
                     nn::make_depthwise("b", 6, 12, 12, 3, 2, 1),
                     nn::make_depthwise("c", 12, 8, 8, 5, 1, 2)}) {
    const arch::OverlayConfig cfg = small_config();
    const auto prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 6'000);
    Rng rng(layer.in_c);
    nn::Tensor16 input({layer.in_c, layer.in_h, layer.in_w});
    nn::Tensor16 weights({layer.in_c, layer.kh, layer.kw});
    input.fill_random(rng);
    weights.fill_random(rng);
    const SimRun r = simulate(prog, cfg, weights, input);
    EXPECT_EQ(r.output, nn::depthwise_reference(layer, input, weights))
        << layer.name;
  }
}

TEST(Depthwise, RuntimeExecutesSeparableBlock) {
  nn::Network net("separable");
  net.add(nn::make_depthwise("dw", 8, 12, 12, 3, 1, 1));
  net.add(nn::make_conv("pw", 8, 12, 12, 16, 1, 1, 0));
  net.validate_graph();
  const auto ws = runtime::WeightStore::random_for(net, 3);
  Rng rng(5);
  nn::Tensor16 input({8, 12, 12});
  input.fill_random(rng);

  const ReferenceForward ref = reference_forward(net, ws, input);
  runtime::ExecOptions sim_opt;
  sim_opt.config = small_config();
  const auto simd = runtime::run_network(net, input, ws, sim_opt);
  EXPECT_EQ(ref.output, simd.output);
  EXPECT_EQ(ref.output.dims(), (std::vector<int>{16, 12, 12}));
}

TEST(Depthwise, MobileNetModelIsConsistent) {
  const nn::Network net = nn::mobilenet_v1();
  EXPECT_NO_THROW(net.validate_graph());
  const nn::NetworkStats s = net.stats();
  // ~1.1 GOP, ~4.2M params at width 1.0.
  EXPECT_NEAR(double(s.total_ops()), 1.14e9, 0.1e9);
  EXPECT_NEAR(double(s.weight_bytes()) / 1e6, 8.4, 0.6);  // 16-bit
  int dw_layers = 0;
  for (const nn::Layer& l : net.layers()) {
    if (l.kind == nn::LayerKind::Depthwise) ++dw_layers;
  }
  EXPECT_EQ(dw_layers, 13);
}

}  // namespace
}  // namespace ftdl
