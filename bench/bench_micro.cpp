// Microbenchmarks of the framework's own hot paths (google-benchmark):
// analytical-model evaluation rate, mapping-search throughput, instruction
// encode/decode, cycle-level simulation MACC rate, and timing analysis.
//
// Unless the caller passes --benchmark_out themselves, results are also
// written to BENCH_micro.json (google-benchmark's JSON reporter) so every
// perf PR has a machine-readable baseline to diff against; CI uploads the
// file as a build artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/isa.h"
#include "arch/overlay_config.h"
#include "common/arena.h"
#include "common/rng.h"
#include "common/simd.h"
#include "compiler/codegen.h"
#include "compiler/search.h"
#include "fpga/device_zoo.h"
#include "sim/ftdl_sim.h"
#include "frontend/spec_parser.h"
#include "nn/model_zoo.h"
#include "obs/stream_writer.h"
#include "prune/channel_prune.h"
#include "quant/quantize.h"
#include "rtlgen/verilog_gen.h"
#include "timing/scaling_study.h"
#include "winograd/winograd.h"

namespace {

using namespace ftdl;

const nn::Layer& bench_layer() {
  static const nn::Layer layer =
      nn::make_conv("bench", 160, 14, 14, 320, 3, 1, 1);
  return layer;
}

void BM_AnalyticalEvaluate(benchmark::State& state) {
  const auto w = compiler::Workload::from_layer(bench_layer());
  const arch::OverlayConfig cfg = arch::paper_config();
  const auto sol = compiler::best_mapping(w, cfg, compiler::Objective::Performance, 5'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::evaluate(w, sol.mapping, cfg));
  }
}
BENCHMARK(BM_AnalyticalEvaluate);

void BM_MappingSearch(benchmark::State& state) {
  const auto w = compiler::Workload::from_layer(bench_layer());
  const arch::OverlayConfig cfg = arch::paper_config();
  compiler::SearchOptions opt;
  opt.max_candidates = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::search_mappings(w, cfg, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 60000 is the Table II per-layer budget.
BENCHMARK(BM_MappingSearch)->Arg(1000)->Arg(10000)->Arg(60000);

// compile_layer of a layer that fits only when split into weight groups:
// GoogLeNet's loss3/classifier (a 1024x1000 FC) on the 4x2x3 serving
// overlay at the runtime's 8 k budget. Its first six group counts (1 to 32)
// cannot fit WBUF; one search, at 64 groups, finds the mapping.
void BM_CompileSplitLayer(benchmark::State& state) {
  arch::OverlayConfig cfg = arch::paper_config();
  cfg.d1 = 4;
  cfg.d2 = 2;
  cfg.d3 = 3;
  const nn::Network net = nn::googlenet();
  const auto layer = std::ranges::find(net.layers(), "loss3/classifier",
                                       &nn::Layer::name);
  if (layer == net.layers().end()) {
    state.SkipWithError("GoogLeNet has no loss3/classifier");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compile_layer(
        *layer, cfg, compiler::Objective::Performance, 8'000));
  }
}
BENCHMARK(BM_CompileSplitLayer)->Unit(benchmark::kMillisecond);

void BM_InstEncodeDecode(benchmark::State& state) {
  const arch::Instruction inst = arch::set_loop(arch::TemporalLevel::T, 12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::decode(arch::encode(inst)));
  }
}
BENCHMARK(BM_InstEncodeDecode);

void BM_SimulateConvLayer(benchmark::State& state) {
  arch::OverlayConfig cfg = arch::paper_config();
  cfg.d1 = 4;
  cfg.d2 = 2;
  cfg.d3 = 3;
  const nn::Layer layer = nn::make_conv("c", 8, 10, 10, 12, 3, 1, 1);
  const auto prog = compiler::compile_layer(layer, cfg,
                                            compiler::Objective::Performance,
                                            4'000);
  Rng rng(1);
  nn::Tensor16 input({8, 10, 10});
  nn::Tensor16 weights({12, 8, 3, 3});
  input.fill_random(rng);
  weights.fill_random(rng);
  nn::AccTensor out;
  for (auto _ : state) {
    // The whole layer: runner construction (stream checks, timing pass)
    // and the functional pass.
    const sim::CachedLayerSim runner(prog, cfg);
    runner.run(weights, input, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * layer.macs());
}
BENCHMARK(BM_SimulateConvLayer);

// The vector dispatch's before/after pair: one fully-connected layer
// (fc1000-shaped) simulated with the vector dispatch forced off (scalar
// oracles) and on. Each output's 2048-deep reduction is one dot_i16 sweep,
// so the ratio of the two MACC rates isolates the kernel-level speedup with
// the least non-kernel engine overhead; BENCH_sim covers the conv shapes.
void bench_fc_functional(benchmark::State& state, bool simd_on) {
  const arch::OverlayConfig cfg = arch::paper_config();
  // One of the two weight groups fc1000 (2048 -> 1000) runs as on this
  // overlay.
  const nn::Layer layer = nn::make_matmul("bench_fc", 2048, 500, 1);
  // Budget matches bench_sim's.
  const auto prog = compiler::compile_layer(layer, cfg,
                                            compiler::Objective::Performance,
                                            4'000);
  Rng rng(5);
  nn::Tensor16 input({2048, 1});
  nn::Tensor16 weights({500, 2048});
  input.fill_random(rng);
  weights.fill_random(rng);
  const sim::CachedLayerSim runner(prog, cfg);
  nn::AccTensor out;
  simd::set_enabled(simd_on);
  for (auto _ : state) {
    runner.run(weights, input, out);  // serial functional pass
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  simd::set_enabled(true);
  state.SetItemsProcessed(state.iterations() * layer.macs());
  state.SetLabel(simd_on ? simd::isa_name() : "scalar");
}

void BM_FcFunctionalScalar(benchmark::State& state) {
  bench_fc_functional(state, /*simd_on=*/false);
}
BENCHMARK(BM_FcFunctionalScalar);

void BM_FcFunctionalSimd(benchmark::State& state) {
  bench_fc_functional(state, /*simd_on=*/true);
}
BENCHMARK(BM_FcFunctionalSimd);

// Pool round-trip cost for a steady-state tensor shape: after the first
// (warm-up) iteration every acquire is a free-list pop, so this measures
// the mutex + size-class arithmetic the serving runtime pays per tensor.
void BM_ArenaAcquireRelease(benchmark::State& state) {
  TensorArena arena;
  TensorArena::Scope scope(arena);
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    ArenaVec<acc_t> v(n);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["fallback_allocs"] =
      static_cast<double>(arena.stats().fallback_allocs);
}
BENCHMARK(BM_ArenaAcquireRelease)->Arg(128)->Arg(4096)->Arg(65536);

void BM_TimingScalingStudy(benchmark::State& state) {
  const fpga::Device dev = fpga::ultrascale_vu125();
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::run_scaling_study(dev));
  }
}
BENCHMARK(BM_TimingScalingStudy);

void BM_WinogradTransformConv(benchmark::State& state) {
  const nn::Layer layer = nn::make_conv("c", 16, 16, 16, 16, 3, 1, 1);
  Rng rng(3);
  nn::Tensor16 in({16, 16, 16});
  nn::Tensor16 w({16, 16, 3, 3});
  in.fill_random(rng);
  w.fill_random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(winograd::winograd_conv(layer, in, w));
  }
  state.SetItemsProcessed(state.iterations() * layer.macs());
}
BENCHMARK(BM_WinogradTransformConv);

void BM_QuantizeRoundTrip(benchmark::State& state) {
  quant::TensorF t({256, 64});
  quant::fill_random_float(t, 5);
  const quant::QuantParams p = quant::calibrate(t, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::dequantize(quant::quantize(t, p), p));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_QuantizeRoundTrip);

void BM_SpecParse(benchmark::State& state) {
  const std::string spec = R"(
network micro
input 3 32 32
conv c1 out=32 k=3 pad=1
pool p1 k=2
conv c2 out=64 k=3 pad=1
pool p2 k=2
fc f1 out=128 relu
fc f2 out=10
)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(frontend::parse_network_spec(spec));
  }
}
BENCHMARK(BM_SpecParse);

void BM_PruneGoogLeNet(benchmark::State& state) {
  prune::PruneSpec spec;
  spec.conv_keep_ratio = 0.5;
  const nn::Network net = nn::googlenet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prune::prune_channels(net, spec, nullptr));
  }
}
BENCHMARK(BM_PruneGoogLeNet);

void BM_RtlGenerate(benchmark::State& state) {
  const arch::OverlayConfig cfg = arch::paper_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtlgen::generate_overlay_rtl(cfg));
  }
}
BENCHMARK(BM_RtlGenerate);

// Publish fast path of the streaming event-log backend: one span
// (SpanBegin + SpanEnd group) per iteration into a per-thread chunk
// buffer, serializer flushing in the background. Guards the "recording
// never blocks a request path" claim of docs/obs-stream-format.md.
void BM_ObsStreamPublish(benchmark::State& state) {
  const std::string path = "bench_obs_stream.tmp";
  obs::stream::StreamWriter writer(path);
  obs::stream::Record r[2];
  r[0].kind = static_cast<std::uint8_t>(obs::stream::RecordKind::SpanBegin);
  r[0].name_id = writer.intern("bench_span");
  r[0].aux_id = writer.intern("bench");
  r[1].kind = static_cast<std::uint8_t>(obs::stream::RecordKind::SpanEnd);
  double ts = 0.0;
  for (auto _ : state) {
    r[0].payload = obs::stream::double_bits(ts);
    r[1].payload = obs::stream::double_bits(ts + 0.5);
    ts += 1.0;
    benchmark::DoNotOptimize(writer.publish(r, 2));
  }
  state.SetItemsProcessed(state.iterations());
  writer.finish();
  std::remove(path.c_str());
}
BENCHMARK(BM_ObsStreamPublish);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
