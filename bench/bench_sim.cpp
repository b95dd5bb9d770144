// Simulator-engine benchmarks (google-benchmark): wall-clock of
// CachedLayerSim::run on a ResNet50 and GoogLeNet layer sweep on pools of
// 1/2/8 jobs and of the stats-only simulate_layer_stats path, with MACCs/s
// reported per run; and of the host kernels behind every overlay layer of a
// GoogLeNet frame (and of ResNet50's residual adds), the oracle against the
// runtime kernel, with elements/s.
//
// BM_SimLayer binds the weights once, outside the timed loop, as the
// executor's warm-up does, so it times what a warm ExecContext runs per
// layer. The sweep covers the shapes that stress different engine paths:
// the pad-heavy 7x7 stride-2 stem (int32 tiles over 2x2 phase planes, the
// kernel rearranged at bind), a 1x1 bottleneck reduce (int32 tiles reading
// the input in place) and a 3x3 mid-stage conv (int32 tiles over one
// padded copy), the 1x1 stride-2 downsample (int32 tiles over the one phase
// plane with taps: a subsampled 1x1), GoogLeNet's inception_4a/1x1 (480 ->
// 192 at 14x14, the shape class that dominates GoogLeNet's 1x1 time; the
// ResNet50 1x1 rows have larger planes and fewer input channels), and the
// fc1000 matmul (dot sweeps). Layers
// the compiler splits into weight groups run one full-size part's slice, so
// both benchmarks time the same single-part program. Outputs are
// bit-identical at every jobs count (pinned by tests/test_sim_engine.cpp);
// these benchmarks measure only speed.
//
// BM_Epilogue times requantising the accumulators of all 57 GoogLeNet overlay
// layers (|acc| < 2^20, as the next layer's inputs keep them): the oracle
// row is calibrate_shift + nn::requantize_output, the kernel row
// shift_for_max + runtime::requantize_layer, whose max |acc| the engine
// reports as it writes (so the kernel row has no scan). BM_Pool times all 14
// GoogLeNet pooling layers on full-range int16 inputs:
// nn::maxpool/avgpool_reference against runtime::pool_layer. BM_AddRelu
// times the residual adds of all 16 ResNet50 bottlenecks on full-range int16
// inputs: the oracle row is the per-element relu(requantize(a + b, 0)) loop,
// the kernel row runtime::add_relu_layer. Kernel rows run serially (jobs 1)
// and on a 4-job pool.
//
// Unless the caller passes --benchmark_out themselves, results are also
// written to BENCH_sim.json (google-benchmark's JSON reporter); CI uploads
// the file as a build artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <string>
#include <tuple>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "compiler/codegen.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "runtime/executor.h"
#include "runtime/host_kernels.h"
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
  // simulate_layer_stats times one part, so a layer split into weight
  // groups is measured on one full-size part's slice.
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

/// The sweep layers, pulled from the ResNet50 and GoogLeNet model zoo by
/// name.
const std::vector<LayerCase>& cases() {
  static const std::vector<LayerCase> all = [] {
    const nn::Network resnet = nn::model_by_name("ResNet50");
    const nn::Network googlenet = nn::model_by_name("GoogLeNet");
    auto layer = [](const nn::Network& net,
                    const std::string& name) -> const nn::Layer& {
      for (const nn::Layer& l : net.layers())
        if (l.name == name) return l;
      throw Error("bench_sim: " + net.name() + " layer not found: " + name);
    };
    std::vector<LayerCase> v;
    v.push_back(make_case("conv1_7x7_s2", layer(resnet, "conv1/7x7_s2")));
    v.push_back(
        make_case("res2_1_conv1_1x1", layer(resnet, "res2_1/conv1_1x1")));
    v.push_back(
        make_case("res3_1_conv1_1x1", layer(resnet, "res3_1/conv1_1x1")));
    v.push_back(
        make_case("res4_1_conv2_3x3", layer(resnet, "res4_1/conv2_3x3")));
    v.push_back(make_case("inception_4a_1x1",
                          layer(googlenet, "inception_4a/1x1")));
    v.push_back(make_case("fc1000", layer(resnet, "fc1000")));
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
  const auto jobs = static_cast<int>(state.range(0));
  ThreadPool pool(jobs);
  const sim::CachedLayerSim runner(c.prog, cfg);
  const sim::BoundWeights weights = runner.bind(c.weights);
  nn::AccTensor out;
  for (auto _ : state) {
    runner.run(weights, c.input, out, jobs == 1 ? nullptr : &pool);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  report_rate(state, runner.stats().padded_maccs, runner.stats().valid_maccs);
  state.SetLabel(simd::isa_name());  // which conv tile ran
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

/// GoogLeNet's host-kernel operands: each overlay layer's accumulators with
/// their max |acc|, and each pooling layer's input.
struct HostCases {
  nn::Network net = nn::googlenet();
  struct Acc {
    const nn::Layer* layer;
    nn::AccTensor acc;
    std::uint64_t max_abs = 0;
  };
  std::vector<Acc> accs;
  std::vector<std::pair<const nn::Layer*, nn::Tensor16>> pools;
  std::int64_t acc_elems = 0, pool_elems = 0;
};

const HostCases& host_cases() {
  static const HostCases all = [] {
    HostCases h;
    Rng rng(0xe91);
    for (const nn::Layer& l : h.net.layers()) {
      if (l.kind == nn::LayerKind::Pool) {
        nn::Tensor16 in({l.in_c, l.in_h, l.in_w});
        for (std::int64_t i = 0; i < in.size(); ++i)
          in[i] = static_cast<std::int16_t>(rng.uniform(-32768, 32767));
        h.pool_elems += in.size();
        h.pools.emplace_back(&l, std::move(in));
      } else if (l.on_overlay()) {
        HostCases::Acc a{&l,
                         nn::AccTensor(l.kind == nn::LayerKind::MatMul
                                           ? nn::Dims{static_cast<int>(l.mm_n),
                                                      static_cast<int>(l.mm_p)}
                                           : nn::Dims{l.out_c, l.out_h(),
                                                      l.out_w()})};
        for (std::int64_t i = 0; i < a.acc.size(); ++i) {
          a.acc[i] = rng.uniform(-(1 << 20), 1 << 20);
          a.max_abs = std::max<std::uint64_t>(
              a.max_abs, static_cast<std::uint64_t>(std::abs(a.acc[i])));
        }
        h.acc_elems += a.acc.size();
        h.accs.push_back(std::move(a));
      }
    }
    return h;
  }();
  return all;
}

constexpr int kTargetBits = 7;

void BM_EpilogueOracle(benchmark::State& state) {
  const HostCases& h = host_cases();
  TensorArena arena;
  TensorArena::Scope scope(arena);
  for (auto _ : state) {
    for (const HostCases::Acc& a : h.accs) {
      const nn::Tensor16 out = nn::requantize_output(
          *a.layer, a.acc, runtime::calibrate_shift(a.acc, kTargetBits));
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * h.acc_elems);
}

void BM_EpilogueKernel(benchmark::State& state) {
  const HostCases& h = host_cases();
  const auto jobs = static_cast<int>(state.range(0));
  ThreadPool pool(jobs);
  TensorArena arena;
  TensorArena::Scope scope(arena);
  for (auto _ : state) {
    for (const HostCases::Acc& a : h.accs) {
      const nn::Tensor16 out = runtime::requantize_layer(
          *a.layer, a.acc, a.max_abs,
          runtime::shift_for_max(a.max_abs, kTargetBits),
          jobs == 1 ? nullptr : &pool);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * h.acc_elems);
}

void BM_PoolOracle(benchmark::State& state) {
  const HostCases& h = host_cases();
  TensorArena arena;
  TensorArena::Scope scope(arena);
  for (auto _ : state) {
    for (const auto& [layer, in] : h.pools) {
      const nn::Tensor16 out = layer->pool_op == nn::PoolOp::Max
                                   ? nn::maxpool_reference(*layer, in)
                                   : nn::avgpool_reference(*layer, in);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * h.pool_elems);
}

void BM_PoolKernel(benchmark::State& state) {
  const HostCases& h = host_cases();
  const auto jobs = static_cast<int>(state.range(0));
  ThreadPool pool(jobs);
  TensorArena arena;
  TensorArena::Scope scope(arena);
  for (auto _ : state) {
    for (const auto& [layer, in] : h.pools) {
      const nn::Tensor16 out =
          runtime::pool_layer(*layer, in, jobs == 1 ? nullptr : &pool);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * h.pool_elems);
}

/// ResNet50's residual-add operands: each add layer's two inputs, shaped
/// like the conv that feeds it.
struct AddCases {
  nn::Network net = nn::resnet50();
  std::vector<std::tuple<const nn::Layer*, nn::Tensor16, nn::Tensor16>> adds;
  std::int64_t elems = 0;
};

const AddCases& add_cases() {
  static const AddCases all = [] {
    AddCases c;
    Rng rng(0xadd);
    for (const nn::Layer& l : c.net.layers()) {
      if (l.kind != nn::LayerKind::Ewop || l.ewop_op != nn::EwopOp::AddRelu)
        continue;
      const nn::Layer& producer = c.net.layers()[static_cast<std::size_t>(
          c.net.find(l.input_names[0]))];
      const nn::Dims dims{producer.out_c, producer.out_h(), producer.out_w()};
      nn::Tensor16 a(dims), b(dims);
      for (nn::Tensor16* t : {&a, &b})
        for (std::int64_t i = 0; i < t->size(); ++i)
          (*t)[i] = static_cast<std::int16_t>(rng.uniform(-32768, 32767));
      c.elems += a.size();
      c.adds.emplace_back(&l, std::move(a), std::move(b));
    }
    return c;
  }();
  return all;
}

void BM_AddReluOracle(benchmark::State& state) {
  const AddCases& c = add_cases();
  TensorArena arena;
  TensorArena::Scope scope(arena);
  for (auto _ : state) {
    for (const auto& [layer, a, b] : c.adds) {
      nn::Tensor16 out(a.dims());
      for (std::int64_t i = 0; i < a.size(); ++i)
        out[i] = relu(requantize(acc_t{a[i]} + acc_t{b[i]}, 0));
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * c.elems);
}

void BM_AddReluKernel(benchmark::State& state) {
  const AddCases& c = add_cases();
  const auto jobs = static_cast<int>(state.range(0));
  ThreadPool pool(jobs);
  TensorArena arena;
  TensorArena::Scope scope(arena);
  for (auto _ : state) {
    for (const auto& [layer, a, b] : c.adds) {
      const nn::Tensor16 out =
          runtime::add_relu_layer(*layer, a, b, jobs == 1 ? nullptr : &pool);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * c.elems);
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
  benchmark::RegisterBenchmark("BM_Epilogue/googlenet/oracle",
                               BM_EpilogueOracle)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_Epilogue/googlenet/kernel",
                               BM_EpilogueKernel)
      ->Arg(1)
      ->Arg(4)
      ->ArgName("jobs")
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_Pool/googlenet/oracle", BM_PoolOracle)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_Pool/googlenet/kernel", BM_PoolKernel)
      ->Arg(1)
      ->Arg(4)
      ->ArgName("jobs")
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_AddRelu/resnet50/oracle", BM_AddReluOracle)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("BM_AddRelu/resnet50/kernel", BM_AddReluKernel)
      ->Arg(1)
      ->Arg(4)
      ->ArgName("jobs")
      ->Unit(benchmark::kMillisecond);
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
