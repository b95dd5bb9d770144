// Quickstart: compile one CONV layer onto the paper's overlay, inspect the
// schedule, and verify it functionally on the cycle-level simulator.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "common/str_util.h"
#include "ftdl/ftdl.h"

using namespace ftdl;

int main() {
  // 1. Build the framework: UltraScale vu125 with the Table II overlay
  //    (D1=12, D2=5, D3=20 -> 1200 TPEs at 650 MHz).
  Framework fw{FrameworkOptions{}};
  std::printf("Overlay: %s on %s (post-P&R fmax %s)\n\n",
              fw.config().to_string().c_str(), fw.device().name.c_str(),
              format_hz(fw.timing().clk_h_fmax_hz).c_str());

  // 2. Compile a GoogLeNet-class CONV layer.
  const nn::Layer layer = nn::make_conv("my_conv", 160, 14, 14, 320, 3, 1, 1);
  const compiler::LayerProgram prog = fw.compile(layer);
  std::printf("Layer %s: %s MACs\n", layer.name.c_str(),
              format_count(double(layer.macs())).c_str());
  std::printf("  mapping: %s\n",
              prog.mapping.to_string(prog.workload).c_str());
  std::printf("  C_exe = %lld cycles -> %.1f us at CLKh, efficiency %.1f%%, "
              "E_WBUF %.2f\n",
              static_cast<long long>(prog.perf.c_exe),
              prog.perf.seconds(fw.config()) * 1e6,
              100.0 * prog.perf.hardware_efficiency, prog.perf.e_wbuf);
  std::printf("  controller stream: %zu instructions, e.g. %s\n\n",
              prog.row_stream.size(), prog.row_stream[0].to_string().c_str());

  // 3. Functional check on a scaled-down sibling of the same layer, using
  //    a small overlay so the cycle-level simulation is instant.
  arch::OverlayConfig small = fw.config();
  small.d1 = 4;
  small.d2 = 2;
  small.d3 = 3;
  const nn::Layer tiny = nn::make_conv("tiny", 8, 10, 10, 12, 3, 1, 1);
  const compiler::LayerProgram tiny_prog =
      compiler::compile_layer(tiny, small);

  Rng rng(42);
  nn::Tensor16 input({tiny.in_c, tiny.in_h, tiny.in_w});
  nn::Tensor16 weights({tiny.out_c, tiny.in_c, tiny.kh, tiny.kw});
  input.fill_random(rng);
  weights.fill_random(rng);

  const sim::CachedLayerSim simulated(tiny_prog, small);
  nn::AccTensor output;
  simulated.run(weights, input, output);
  const nn::AccTensor expected = nn::conv2d_reference(tiny, input, weights);
  std::printf("Cycle-level simulation of %s: %lld cycles, %lld MACCs, "
              "output %s the scalar reference.\n",
              tiny.name.c_str(), static_cast<long long>(simulated.stats().cycles),
              static_cast<long long>(simulated.stats().valid_maccs),
              output == expected ? "bit-matches" : "DIFFERS FROM");
  return output == expected ? 0 : 1;
}
