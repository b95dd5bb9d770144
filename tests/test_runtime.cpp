// Tests for the functional end-to-end runtime: graph execution, equivalence
// with the nn-reference forward pass (including weight-group stitching, and
// committed output digests at zoo scale), host EWOP kernels and
// quantization calibration.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/session.h"
#include "nn/model_zoo.h"
#include "reference_forward.h"
#include "runtime/executor.h"
#include "sim/ftdl_sim.h"

namespace ftdl::runtime {
namespace {

arch::OverlayConfig small_config() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  return c;
}

/// A tiny branching network: conv -> {1x1 branch, 3x3 branch} -> concat ->
/// pool -> fc. Exercises graph resolution, concat, pooling and MM flatten.
nn::Network tiny_inception() {
  nn::Network net("tiny-inception");
  net.add(nn::make_conv("stem", 3, 12, 12, 8, 3, 1, 1));
  net.add(nn::with_inputs(nn::make_conv("b1", 8, 12, 12, 4, 1, 1, 0), {"stem"}));
  net.add(nn::with_inputs(nn::make_conv("b3", 8, 12, 12, 6, 3, 1, 1), {"stem"}));
  net.add(nn::make_concat("cat", {"b1", "b3"}));
  net.add(nn::make_pool("pool", 10, 12, 12, 2, 2));
  net.add(nn::make_matmul("fc", 10 * 6 * 6, 5, 1));
  net.validate_graph();
  return net;
}

/// A tiny residual network exercising AddRelu and projection shortcuts.
nn::Network tiny_resnet() {
  nn::Network net("tiny-resnet");
  net.add(nn::make_conv("stem", 3, 8, 8, 8, 3, 1, 1));
  net.add(nn::with_inputs(nn::make_conv("c1", 8, 8, 8, 8, 3, 1, 1), {"stem"}));
  net.add(nn::make_conv("c2", 8, 8, 8, 8, 3, 1, 1, /*relu=*/false));
  net.add(nn::make_add_relu("add", 8 * 8 * 8, {"c2", "stem"}));
  net.add(nn::make_matmul("fc", 8 * 8 * 8, 4, 1));
  net.validate_graph();
  return net;
}

TEST(WeightStore, RandomForCoversAllWeightedLayers) {
  const nn::Network net = tiny_inception();
  const WeightStore ws = WeightStore::random_for(net, 1);
  EXPECT_EQ(ws.size(), 4u);  // stem, b1, b3, fc
  EXPECT_TRUE(ws.contains("stem"));
  EXPECT_FALSE(ws.contains("cat"));
  EXPECT_GT(ws.total_words(), 0);
}

TEST(WeightStore, ShapeMismatchThrows) {
  WeightStore ws;
  ws.set("c", nn::Tensor16({2, 2}));
  const nn::Layer conv = nn::make_conv("c", 3, 8, 8, 4, 3, 1, 1);
  EXPECT_THROW(ws.get(conv), ConfigError);
  const nn::Layer missing = nn::make_conv("other", 3, 8, 8, 4, 3, 1, 1);
  EXPECT_THROW(ws.get(missing), ConfigError);
}

TEST(Executor, BranchingNetworkRunsEndToEnd) {
  const nn::Network net = tiny_inception();
  const WeightStore ws = WeightStore::random_for(net, 7);
  Rng rng(3);
  nn::Tensor16 input({3, 12, 12});
  input.fill_random(rng);

  ExecOptions opt;
  const ExecResult r = run_network(net, input, ws, opt);
  EXPECT_EQ(r.output.dims(), (std::vector<int>{5, 1}));
  EXPECT_EQ(r.runs.size(), net.layers().size());
  // Concat output is 4 + 6 = 10 channels (checked implicitly by fc shape).
}

TEST(Executor, ResidualNetworkRunsAndAppliesRelu) {
  const nn::Network net = tiny_resnet();
  const WeightStore ws = WeightStore::random_for(net, 11);
  Rng rng(5);
  nn::Tensor16 input({3, 8, 8});
  input.fill_random(rng);

  const ExecResult r = run_network(net, input, ws, ExecOptions{});
  EXPECT_EQ(r.output.dims(), (std::vector<int>{4, 1}));
  // The add_relu stage output (intermediate) is non-negative by definition;
  // check via re-running with the same seed and inspecting the fc input is
  // not exposed, so assert on run records instead.
  EXPECT_EQ(r.runs[3].kind, nn::LayerKind::Ewop);
}

TEST(Executor, MatchesReferenceForwardPass) {
  const nn::Network net = tiny_inception();
  const WeightStore ws = WeightStore::random_for(net, 21);
  Rng rng(9);
  nn::Tensor16 input({3, 12, 12});
  input.fill_random(rng);

  const ReferenceForward ref = reference_forward(net, ws, input);

  ExecOptions sim_opt;
  sim_opt.config = small_config();
  const ExecResult simd = run_network(net, input, ws, sim_opt);

  EXPECT_EQ(ref.output, simd.output);  // bit-exact end to end
  EXPECT_GT(simd.total_sim_cycles, 0);
  for (std::size_t i = 0; i < ref.requant_shifts.size(); ++i) {
    EXPECT_EQ(ref.requant_shifts[i], simd.runs[i].requant_shift);
  }
}

TEST(Executor, WeightGroupStitchingIsExact) {
  // Layers whose weights exceed one WBUF per TPE on a tiny overlay, so the
  // compiler must split them into groups. Each runs as one layer-level
  // runner over its full weight tensor: outputs must still be bit-exact,
  // and each layer's cycles are the sum of its per-group single-program
  // runners' — the groups run back to back on the overlay.
  arch::OverlayConfig cfg = small_config();
  cfg.wbuf_words = 256;  // force splitting
  nn::Network net("wide");
  net.add(nn::make_conv("wide_conv", 16, 6, 6, 51, 3, 1, 1));
  net.add(nn::make_matmul("wide_fc", 51 * 6 * 6, 70, 1));
  net.validate_graph();
  const WeightStore ws = WeightStore::random_for(net, 33);
  Rng rng(13);
  nn::Tensor16 input({16, 6, 6});
  input.fill_random(rng);

  ExecOptions sim_opt;
  sim_opt.config = cfg;
  const ExecResult simd = run_network(net, input, ws, sim_opt);
  const ReferenceForward ref = reference_forward(net, ws, input);
  EXPECT_EQ(ref.output, simd.output);

  compiler::CompilerSession& session = compiler::CompilerSession::global();
  std::int64_t group_cycles = 0;
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    const nn::Layer& layer = net.layers()[i];
    const compiler::LayerProgram master =
        session.compile(layer, cfg, compiler::Objective::Performance,
                        sim_opt.search_budget_per_layer);
    ASSERT_GT(master.weight_groups, 1) << layer.name;
    EXPECT_EQ(simd.runs[i].weight_groups, master.weight_groups);
    std::int64_t layer_cycles = 0;
    for (const nn::Layer& part :
         compiler::weight_group_layers(layer, master.weight_groups)) {
      const compiler::LayerProgram prog =
          session.compile(part, cfg, compiler::Objective::Performance,
                          sim_opt.search_budget_per_layer);
      layer_cycles += sim::CachedLayerSim(prog, cfg).stats().cycles;
    }
    EXPECT_EQ(simd.runs[i].sim_cycles, layer_cycles) << layer.name;
    group_cycles += layer_cycles;
  }
  EXPECT_EQ(simd.total_sim_cycles, group_cycles);
}

/// Field-by-field equality of two compiled programs (the structs define no
/// operator==; the workloads compare through their content-addressed key).
void expect_same_program(const compiler::LayerProgram& a,
                         const compiler::LayerProgram& b,
                         const arch::OverlayConfig& cfg) {
  const auto key = [&](const compiler::LayerProgram& p) {
    return compiler::program_cache_key(
        p.workload, cfg, compiler::Objective::Performance, 0);
  };
  EXPECT_EQ(a.layer.name, b.layer.name);
  EXPECT_EQ(compiler::weight_only_extent(a.layer),
            compiler::weight_only_extent(b.layer));
  EXPECT_EQ(key(a), key(b));
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.row_stream, b.row_stream);
  EXPECT_EQ(a.weight_groups, b.weight_groups);
  EXPECT_EQ(a.reload_cycles_per_group, b.reload_cycles_per_group);
  const compiler::Performance& p = a.perf;
  const compiler::Performance& q = b.perf;
  EXPECT_EQ(std::tie(p.x, p.l, p.t, p.c_comp, p.c_act_bus, p.c_psum_bus,
                     p.c_dram_rd, p.c_dram_wr, p.c_exe),
            std::tie(q.x, q.l, q.t, q.c_comp, q.c_act_bus, q.c_psum_bus,
                     q.c_dram_rd, q.c_dram_wr, q.c_exe));
  EXPECT_EQ(std::tie(p.dram_rd_bytes, p.dram_wr_bytes, p.e_wbuf,
                     p.hardware_efficiency),
            std::tie(q.dram_rd_bytes, q.dram_wr_bytes, q.e_wbuf,
                     q.hardware_efficiency));
  EXPECT_EQ(std::tie(p.buffers.wbuf_words_per_tpe,
                     p.buffers.actbuf_words_per_tpe,
                     p.buffers.psum_words_per_superblock, p.buffers_fit,
                     p.weight_reuse_ok, p.host_reduction, p.feasible),
            std::tie(q.buffers.wbuf_words_per_tpe,
                     q.buffers.actbuf_words_per_tpe,
                     q.buffers.psum_words_per_superblock, q.buffers_fit,
                     q.weight_reuse_ok, q.host_reduction, q.feasible));
}

TEST(Executor, FullSizeWeightGroupSlicesReuseTheLayerProgram) {
  // The warm-up runs a full-size weight-group slice on the layer's own
  // program (its search ran on weight_group_slice) instead of compiling the
  // slice again: that program, relabelled to the slice with one group, must
  // equal what compiling the slice yields, for every split layer. The
  // programs are compared with each other, so a small budget suffices.
  const arch::OverlayConfig cfg = small_config();
  const std::int64_t budget = 1'000;
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  const auto compile = [&](const nn::Layer& l) {
    return session.compile(l, cfg, compiler::Objective::Performance, budget);
  };
  for (const nn::Network& net :
       {nn::googlenet(), nn::mobilenet_v1(), nn::sentimental_seqcnn()}) {
    int reused = 0;
    for (const nn::Layer& layer : net.layers()) {
      if (!layer.on_overlay()) continue;
      const compiler::LayerProgram master = compile(layer);
      if (master.weight_groups == 1) continue;
      const int slice = compiler::weight_only_extent(
          compiler::weight_group_slice(layer, master.weight_groups));
      for (const nn::Layer& part :
           compiler::weight_group_layers(layer, master.weight_groups)) {
        if (compiler::weight_only_extent(part) != slice) continue;
        compiler::LayerProgram prog = master;
        prog.layer = part;
        prog.weight_groups = 1;
        SCOPED_TRACE(net.name() + "/" + layer.name);
        expect_same_program(prog, compile(part), cfg);
        ++reused;
      }
    }
    EXPECT_GT(reused, 0) << net.name() << " has no split layer at 4x2x3";
  }
}

TEST(Executor, ColdGoogLeNetWarmUpSearchesEachSliceShapeOnce) {
  // A cold GoogLeNet warm-up at 4x2x3 searches each distinct layer shape and
  // each shorter last slice once: 51 session misses. Compiling every slice
  // on its own, full-size ones included, made 76.
  const nn::Network net = nn::googlenet();
  const WeightStore ws = WeightStore::random_for(net, 5, /*magnitude=*/3);
  ExecOptions opt;
  opt.config = small_config();
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  session.clear_cache();
  const std::int64_t before = session.stats().misses;
  const ExecContext ctx(net, ws, opt);
  EXPECT_EQ(session.stats().misses - before, 51);
}

TEST(Executor, CalibrationKeepsOutputsInRange) {
  const nn::Network net = tiny_resnet();
  const WeightStore ws = WeightStore::random_for(net, 17, /*magnitude=*/31);
  Rng rng(19);
  nn::Tensor16 input({3, 8, 8});
  input.fill_random(rng, 31);

  ExecOptions opt;
  opt.target_magnitude_bits = 7;
  const ExecResult r = run_network(net, input, ws, opt);
  for (std::int64_t i = 0; i < r.output.size(); ++i) {
    EXPECT_LE(std::abs(r.output[i]), 255);  // 2^(7+1) headroom bound
  }
  // Conv layers with large accumulators must have received nonzero shifts.
  bool any_shift = false;
  for (const LayerRun& run : r.runs) any_shift |= run.requant_shift > 0;
  EXPECT_TRUE(any_shift);
}

TEST(Executor, RejectsRecurrentNetworks) {
  const nn::Network lstm = nn::sentimental_seqlstm();
  const WeightStore ws = WeightStore::random_for(lstm, 1);
  nn::Tensor16 input({2048, 1});
  EXPECT_THROW(run_network(lstm, input, ws, ExecOptions{}), ConfigError);
}

TEST(Executor, RejectsTransposedMatMulInput) {
  // A MatMul-first network consumes an {M, P} input. The transposed {P, M}
  // one has the right element count but the wrong layout.
  nn::Network net("mm-first");
  net.add(nn::make_matmul("fc", 16, 4, 1));
  net.validate_graph();
  const WeightStore ws = WeightStore::random_for(net, 1);
  EXPECT_THROW(run_network(net, nn::Tensor16({1, 16}), ws, ExecOptions{}),
               ConfigError);
}

TEST(Executor, RejectsShapeMismatch) {
  const nn::Network net = tiny_inception();
  const WeightStore ws = WeightStore::random_for(net, 1);
  nn::Tensor16 wrong({3, 10, 10});
  EXPECT_THROW(run_network(net, wrong, ws, ExecOptions{}), ConfigError);
}

TEST(Executor, OutputComesFromGraphSinkNotLastDeclaredLayer) {
  // Regression: the executor used to return layers().back()'s tensor as
  // "the" output. In this DAG representation the last layer is always *a*
  // sink, but a multi-headed network has several — returning one silently
  // truncates the rest. The executor must resolve the unique sink and
  // refuse ambiguous graphs by name.
  nn::Network multi("two-heads");
  multi.add(nn::make_conv("stem", 3, 8, 8, 4, 3, 1, 1));
  multi.add(nn::with_inputs(nn::make_conv("head_a", 4, 8, 8, 2, 1, 1, 0),
                            {"stem"}));
  multi.add(nn::with_inputs(nn::make_conv("head_b", 4, 8, 8, 2, 1, 1, 0),
                            {"stem"}));
  multi.validate_graph();
  EXPECT_EQ(multi.sink_names(), (std::vector<std::string>{"head_a", "head_b"}));

  const WeightStore ws = WeightStore::random_for(multi, 29);
  Rng rng(31);
  nn::Tensor16 input({3, 8, 8});
  input.fill_random(rng);
  try {
    run_network(multi, input, ws, ExecOptions{});
    FAIL() << "ambiguous sinks must be rejected";
  } catch (const ConfigError& e) {
    // The error names the offending sinks so the fix is obvious.
    EXPECT_NE(std::string(e.what()).find("head_a"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("head_b"), std::string::npos);
  }

  // Single-sink branching graphs (concat rejoins both branches) still
  // resolve: the sink is the last layer here, and execution is unchanged.
  const nn::Network net = tiny_inception();
  EXPECT_EQ(net.sink_names(), std::vector<std::string>{"fc"});
  EXPECT_EQ(nn::googlenet().sink_names().size(), 1u);
}

TEST(Executor, CalibrateShiftBoundariesAreExact) {
  // Regression: calibrate_shift used std::abs on acc_t (UB at the most
  // negative accumulator) and its shift landed one off around the
  // 2^target_bits boundary. The contract is the smallest shift s >= 0 with
  // (max |acc| >> s) <= 2^target_bits.
  const int t = 7;
  const auto shift_for = [&](acc_t v) {
    nn::AccTensor acc({1});
    acc[0] = v;
    return calibrate_shift(acc, t);
  };
  EXPECT_EQ(shift_for(0), 0);
  EXPECT_EQ(shift_for(127), 0);
  EXPECT_EQ(shift_for(128), 0);       // exactly 2^t: already in range
  EXPECT_EQ(shift_for(129), 1);       // one past: one shift
  EXPECT_EQ(shift_for(-129), 1);      // symmetric for negatives
  EXPECT_EQ(shift_for(256), 1);       // 2^(t+1) >> 1 == 2^t: in range
  EXPECT_EQ(shift_for(257), 1);       // floor(257 >> 1) == 128: still in range
  EXPECT_EQ(shift_for(259), 2);       // 259 >> 1 == 129 > 128: one more
  EXPECT_EQ(shift_for(3 * 128), 2);   // 384 >> 1 = 192 > 128; >> 2 = 96
  // Most negative accumulator: |INT64_MIN| overflows std::abs; the shift
  // must still be exact: 2^63 >> 56 == 2^7 == 256.
  EXPECT_EQ(shift_for(std::numeric_limits<acc_t>::min()), 64 - 1 - t);
  for (const acc_t v : {acc_t{1} << 20, (acc_t{1} << 20) + 1}) {
    const int s = shift_for(v);
    // Minimality: s keeps the value in range, s - 1 would not.
    EXPECT_LE(std::uint64_t(v) >> s, std::uint64_t{1} << t);
    ASSERT_GT(s, 0);
    EXPECT_GT(std::uint64_t(v) >> (s - 1), std::uint64_t{1} << t);
  }
}

/// FNV-1a over an output's dims and values.
std::uint64_t output_digest(const nn::Tensor16& t) {
  Hash64 h;
  for (const int d : t.dims()) h.i32(d);
  for (std::int64_t i = 0; i < t.size(); ++i) h.i32(t[i]);
  return h.digest();
}

TEST(Executor, ZooOutputsMatchReferenceDigests) {
  // Zoo-scale pin of executor == nn reference. Each digest is of the output
  // the nn-reference forward pass gives for these weights and this input
  // (weight seed 5, input seed 23, magnitude 3). That pass takes about 40 s
  // over the four networks, so only its digests are committed. GoogLeNet
  // covers every inception module, avg pooling and the classifier flatten;
  // at 4x2x3 its classifier and ResNet50's fc1000 run as weight groups, with
  // a shorter last part. Outputs do not depend on the schedule (they are the
  // same at the default 8 k budget), so a small search budget keeps the
  // warm-ups cheap.
  const std::pair<nn::Network, std::uint64_t> cases[] = {
      {nn::googlenet(), 0x69e28f2b6fb38cf1ull},
      {nn::resnet50(), 0x2abcebab24b59506ull},
      {nn::mobilenet_v1(), 0xb6449252e474ae5bull},
      {nn::sentimental_seqcnn(), 0x26d55c485ddfc883ull},
  };
  ExecOptions opt;
  opt.config = small_config();
  opt.search_budget_per_layer = 1'000;
  for (const auto& [net, digest] : cases) {
    const WeightStore ws = WeightStore::random_for(net, 5, /*magnitude=*/3);
    const nn::Layer& first = net.layers().front();
    nn::Tensor16 input =
        first.kind == nn::LayerKind::MatMul
            ? nn::Tensor16({static_cast<int>(first.mm_m),
                            static_cast<int>(first.mm_p)})
            : nn::Tensor16({first.in_c, first.in_h, first.in_w});
    Rng rng(23);
    input.fill_random(rng, 3);

    const ExecResult r = run_network(net, input, ws, opt);
    EXPECT_EQ(output_digest(r.output), digest) << net.name();
    EXPECT_EQ(r.runs.size(), net.layers().size()) << net.name();
    if (net.name() == "GoogLeNet") {
      EXPECT_EQ(r.output.dims(), (std::vector<int>{1000, 1}));
    }
  }
}

TEST(Graph, ValidateCatchesBadReferences) {
  nn::Network net("bad");
  net.add(nn::make_conv("a", 3, 8, 8, 4, 3, 1, 1));
  net.add(nn::with_inputs(nn::make_conv("b", 4, 8, 8, 4, 3, 1, 1), {"nope"}));
  EXPECT_THROW(net.validate_graph(), ConfigError);

  nn::Network dup("dup");
  dup.add(nn::make_conv("a", 3, 8, 8, 4, 3, 1, 1));
  dup.add(nn::make_conv("a", 4, 8, 8, 4, 3, 1, 1));
  EXPECT_THROW(dup.validate_graph(), ConfigError);
}

TEST(Graph, AllZooModelsValidate) {
  for (const nn::Network& net : nn::mlperf_models()) {
    EXPECT_NO_THROW(net.validate_graph()) << net.name();
  }
}

}  // namespace
}  // namespace ftdl::runtime
