// Simulator-engine benchmarks (google-benchmark): wall-clock of
// simulate_layer on a ResNet50 layer sweep at 1/2/8 jobs and of the
// stats-only simulate_layer_stats path, with MACCs/s reported per run.
//
// The sweep covers the shapes that stress different engine paths: the
// pad-heavy 7x7 stride-2 stem (int32 tiles over 2x2 phase planes), a 1x1
// bottleneck reduce and a 3x3 mid-stage conv (int32 tiles over one padded
// copy), the 1x1 stride-2 downsample (int32 tiles over the one phase plane
// with taps: a subsampled 1x1), and the fc1000 matmul (dot sweeps). Layers
// the compiler splits into weight groups run one group's slice. Outputs are
// bit-identical at every jobs count (pinned by tests/test_sim_engine.cpp);
// these benchmarks measure only speed.
//
// Unless the caller passes --benchmark_out themselves, results are also
// written to BENCH_sim.json (google-benchmark's JSON reporter); CI uploads
// the file as a build artifact.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "nn/model_zoo.h"
#include "sim/ftdl_sim.h"

namespace {

using namespace ftdl;

/// Search budget per layer: the mapping search is not what is being
/// measured, it just has to produce the same program for every variant.
constexpr std::int64_t kBudget = 4'000;

struct LayerCase {
  std::string label;
  compiler::LayerProgram prog;
  nn::Tensor16 weights, input;
};

LayerCase make_case(const std::string& label, const nn::Layer& full) {
  const arch::OverlayConfig cfg = arch::paper_config();
  LayerCase c;
  c.label = label;
  c.prog = compiler::compile_layer(full, cfg, compiler::Objective::Performance,
                                   kBudget);
  // simulate_layer takes a program that maps the whole layer, so a layer
  // split into weight groups is measured on one group's slice. (The runtime
  // runs all groups in one call of the layer-level CachedLayerSim.)
  const nn::Layer layer =
      compiler::weight_group_slice(full, c.prog.weight_groups);
  if (c.prog.weight_groups > 1)
    c.prog = compiler::compile_layer(layer, cfg,
                                     compiler::Objective::Performance, kBudget);
  Rng rng(0x5eedULL + std::hash<std::string>{}(label));
  if (layer.kind == nn::LayerKind::MatMul) {
    c.input = nn::Tensor16({static_cast<int>(layer.mm_m),
                            static_cast<int>(layer.mm_p)});
    c.weights = nn::Tensor16({static_cast<int>(layer.mm_n),
                              static_cast<int>(layer.mm_m)});
  } else {
    c.input = nn::Tensor16({layer.in_c, layer.in_h, layer.in_w});
    c.weights = nn::Tensor16({layer.out_c, layer.in_c, layer.kh, layer.kw});
  }
  c.input.fill_random(rng);
  c.weights.fill_random(rng);
  return c;
}

/// The sweep layers, pulled from the ResNet50 model zoo by name.
const std::vector<LayerCase>& cases() {
  static const std::vector<LayerCase> all = [] {
    const nn::Network& net = nn::model_by_name("ResNet50");
    auto layer = [&](const std::string& name) -> const nn::Layer& {
      for (const nn::Layer& l : net.layers())
        if (l.name == name) return l;
      throw Error("bench_sim: ResNet50 layer not found: " + name);
    };
    std::vector<LayerCase> v;
    v.push_back(make_case("conv1_7x7_s2", layer("conv1/7x7_s2")));
    v.push_back(make_case("res2_1_conv1_1x1", layer("res2_1/conv1_1x1")));
    v.push_back(make_case("res3_1_conv1_1x1", layer("res3_1/conv1_1x1")));
    v.push_back(make_case("res4_1_conv2_3x3", layer("res4_1/conv2_3x3")));
    v.push_back(make_case("fc1000", layer("fc1000")));
    return v;
  }();
  return all;
}

void report_rate(benchmark::State& state, std::int64_t padded,
                 std::int64_t valid) {
  state.counters["MACCs/s"] = benchmark::Counter(
      static_cast<double>(padded), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["valid_MACCs/s"] = benchmark::Counter(
      static_cast<double>(valid), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SimLayer(benchmark::State& state, std::size_t idx) {
  const LayerCase& c = cases()[idx];
  const arch::OverlayConfig cfg = arch::paper_config();
  sim::SimOptions opt;
  opt.jobs = static_cast<int>(state.range(0));
  std::int64_t padded = 0, valid = 0;
  for (auto _ : state) {
    const sim::SimResult r =
        sim::simulate_layer(c.prog, cfg, c.weights, c.input, opt);
    padded = r.stats.padded_maccs;
    valid = r.stats.valid_maccs;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  report_rate(state, padded, valid);
}

void BM_SimStatsOnly(benchmark::State& state, std::size_t idx) {
  const LayerCase& c = cases()[idx];
  const arch::OverlayConfig cfg = arch::paper_config();
  std::int64_t padded = 0, valid = 0;
  for (auto _ : state) {
    const sim::SimResult r = sim::simulate_layer_stats(c.prog, cfg);
    padded = r.stats.padded_maccs;
    valid = r.stats.valid_maccs;
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  report_rate(state, padded, valid);
}

void register_benchmarks() {
  for (std::size_t i = 0; i < cases().size(); ++i) {
    const std::string& label = cases()[i].label;
    for (int jobs : {1, 2, 8}) {
      benchmark::RegisterBenchmark(("BM_SimLayer/" + label).c_str(),
                                   BM_SimLayer, i)
          ->Arg(jobs)
          ->ArgName("jobs")
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(("BM_SimStatsOnly/" + label).c_str(),
                                 BM_SimStatsOnly, i)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_sim.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
