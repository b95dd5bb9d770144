// Tests for the functional end-to-end runtime: graph execution, equivalence
// with the nn-reference forward pass (including weight-group stitching, and
// committed output digests at zoo scale at several pool sizes), the host
// EWOP kernels (requantisation, pooling and the residual add, swept against
// their oracles) and quantization calibration.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "compiler/codegen.h"
#include "compiler/session.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "reference_forward.h"
#include "runtime/executor.h"
#include "runtime/host_kernels.h"
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

/// The slice each part of `prog` maps, one entry per part the overlay runs:
/// the full-size slice, then the tail's.
std::vector<nn::Layer> part_layers(const compiler::LayerProgram& prog) {
  std::vector<nn::Layer> parts(
      static_cast<std::size_t>(prog.full_size_parts()),
      compiler::weight_group_slice(prog.layer, prog.weight_groups));
  if (prog.tail) parts.push_back(prog.tail->layer);
  return parts;
}

TEST(Executor, WeightGroupStitchingIsExact) {
  // Layers whose weights exceed one WBUF per TPE on a tiny overlay, so the
  // compiler must split them into groups. Each runs as one runner over its
  // full weight tensor: outputs must still be bit-exact, and each layer's
  // cycles are the sum of single-program runners over its parts' slices —
  // the parts run back to back on the overlay.
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
    for (const nn::Layer& part : part_layers(master)) {
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
  // A split program runs its own mapping on every full-size part and its
  // tail's on the shorter last part. Relabelled to the full-size slice with
  // one part, the program must equal what compiling that slice yields, and
  // its tail what compiling the tail's slice yields, for every split layer.
  // The programs are compared with each other, so a small budget suffices.
  const arch::OverlayConfig cfg = small_config();
  const std::int64_t budget = 1'000;
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  const auto compile = [&](const nn::Layer& l) {
    return session.compile(l, cfg, compiler::Objective::Performance, budget);
  };
  for (const nn::Network& net :
       {nn::googlenet(), nn::mobilenet_v1(), nn::sentimental_seqcnn()}) {
    int split = 0;
    for (const nn::Layer& layer : net.layers()) {
      if (!layer.on_overlay()) continue;
      const compiler::LayerProgram master = compile(layer);
      if (master.weight_groups == 1) continue;
      SCOPED_TRACE(net.name() + "/" + layer.name);
      const std::vector<nn::Layer> parts = part_layers(master);
      ASSERT_EQ(static_cast<int>(parts.size()), master.weight_groups);
      compiler::LayerProgram prog = master;
      prog.layer = parts.front();
      prog.weight_groups = 1;
      prog.tail = nullptr;
      expect_same_program(prog, compile(parts.front()), cfg);
      if (master.tail) {
        EXPECT_EQ(master.tail->weight_groups, 1);
        expect_same_program(*master.tail, compile(parts.back()), cfg);
      }
      ++split;
    }
    EXPECT_GT(split, 0) << net.name() << " has no split layer at 4x2x3";
  }
}

TEST(Executor, ColdGoogLeNetWarmUpSearchesEachSliceShapeOnce) {
  // A cold GoogLeNet warm-up at 4x2x3 searches each distinct layer shape
  // once (the session misses) and, inside that layer's compile, each
  // shorter last slice once: 51 searches. Compiling every slice on its own,
  // full-size ones included, made 76. The runners time each distinct part
  // program once: 59 timing passes, where timing every part made 424.
  const nn::Network net = nn::googlenet();
  const WeightStore ws = WeightStore::random_for(net, 5, /*magnitude=*/3);
  ExecOptions opt;
  opt.config = small_config();
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  session.clear_cache();
  const std::int64_t before = session.stats().misses;
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_capacity(1'024);  // only the counters are read
  obs::set_enabled(true);
  { const ExecContext ctx(net, ws, opt); }
  obs::set_enabled(false);
  const std::int64_t passes = reg.counter("sim/timing_passes");
  reg.reset();
  reg.set_capacity(std::size_t{1} << 20);
  const std::int64_t misses = session.stats().misses - before;

  std::set<std::uint64_t> shapes;
  int tails = 0;
  for (const nn::Layer& layer : net.overlay_layers()) {
    const std::uint64_t key = compiler::program_cache_key(
        compiler::Workload::from_layer(layer), opt.config,
        compiler::Objective::Performance, opt.search_budget_per_layer);
    if (!shapes.insert(key).second) continue;
    tails += session
                 .compile(layer, opt.config, compiler::Objective::Performance,
                          opt.search_budget_per_layer)
                 .tail != nullptr;
  }
  EXPECT_EQ(misses, static_cast<std::int64_t>(shapes.size()));
  EXPECT_EQ(misses + tails, 51);
  EXPECT_EQ(passes, 59);
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

TEST(Executor, RejectsResidualAddWithoutTwoInputs) {
  // make_add_relu insists on two inputs, but a layer built by hand or loaded
  // from a network bundle can name any number; the warm-up's graph check
  // rejects it before anything runs.
  for (const std::vector<std::string>& inputs :
       {std::vector<std::string>{"a"},
        std::vector<std::string>{"a", "b", "b"}}) {
    nn::Network net("bad-add");
    net.add(nn::make_conv("a", 3, 8, 8, 4, 3, 1, 1));
    net.add(nn::make_conv("b", 4, 8, 8, 4, 3, 1, 1));
    nn::Layer add = nn::make_add_relu("add", 4 * 8 * 8, {"a", "b"});
    add.input_names = inputs;
    net.add(add);
    EXPECT_THROW(net.validate_graph(), ConfigError) << inputs.size();
    const WeightStore ws = WeightStore::random_for(net, 1);
    EXPECT_THROW(ExecContext(net, ws, ExecOptions{}), ConfigError)
        << inputs.size();
  }
}

TEST(Executor, RejectsSingleInputLayerWithSeveralInputs) {
  // Conv, depthwise, MatMul, pool and generic EWOP layers read one input; a
  // second named producer would be dropped without a word, so the graph
  // check rejects it (and a concat still takes several).
  const std::vector<std::string> two = {"a", nn::kNetworkInput};
  const nn::Layer layers[] = {
      nn::with_inputs(nn::make_conv("x", 4, 8, 8, 4, 3, 1, 1), two),
      nn::with_inputs(nn::make_depthwise("x", 4, 8, 8, 3, 1, 1), two),
      nn::with_inputs(nn::make_matmul("x", 256, 4, 1), two),
      nn::with_inputs(nn::make_pool("x", 4, 8, 8, 2, 2), two),
      nn::with_inputs(nn::make_ewop("x", 256), two),
  };
  for (const nn::Layer& bad : layers) {
    nn::Network net("bad-arity");
    net.add(nn::make_conv("a", 4, 8, 8, 4, 3, 1, 1));
    net.add(bad);
    EXPECT_THROW(net.validate_graph(), ConfigError) << nn::to_string(bad.kind);
    const WeightStore ws = WeightStore::random_for(net, 1);
    EXPECT_THROW(ExecContext(net, ws, ExecOptions{}), ConfigError)
        << nn::to_string(bad.kind);
  }
  nn::Network concat("concat-two");
  concat.add(nn::make_conv("a", 4, 8, 8, 4, 3, 1, 1));
  concat.add(nn::make_concat("x", two));
  EXPECT_NO_THROW(concat.validate_graph());
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
  // at 4x2x3 its classifier (with a shorter last part) and ResNet50's fc1000
  // run as weight groups. Outputs do not depend on the schedule (they are the
  // same at the default 8 k budget), so a small search budget keeps the
  // warm-ups cheap. The simulated cycles at this budget are pinned too: they
  // were recorded when the runtime still compiled and timed every weight
  // group on its own.
  struct Case {
    nn::Network net;
    std::uint64_t digest;
    std::int64_t sim_cycles;
  };
  const Case cases[] = {
      {nn::googlenet(), 0x69e28f2b6fb38cf1ull, 76'742'908},
      {nn::resnet50(), 0x2abcebab24b59506ull, 193'393'657},
      {nn::mobilenet_v1(), 0xb6449252e474ae5bull, 30'938'844},
      {nn::sentimental_seqcnn(), 0x26d55c485ddfc883ull, 558'638},
  };
  ExecOptions opt;
  opt.config = small_config();
  opt.search_budget_per_layer = 1'000;
  for (const auto& [net, digest, sim_cycles] : cases) {
    const WeightStore ws = WeightStore::random_for(net, 5, /*magnitude=*/3);
    const nn::Layer& first = net.layers().front();
    nn::Tensor16 input =
        first.kind == nn::LayerKind::MatMul
            ? nn::Tensor16({static_cast<int>(first.mm_m),
                            static_cast<int>(first.mm_p)})
            : nn::Tensor16({first.in_c, first.in_h, first.in_w});
    Rng rng(23);
    input.fill_random(rng, 3);

    // jobs-N == jobs-1 at zoo scale: the two large networks also run
    // serially and on a dedicated 4-job pool, so the engine's fan-out, its
    // per-task max |acc|, and the requantisation and pooling kernels' fan-out
    // all meet the same digest.
    std::vector<int> sim_jobs = {0};
    if (net.name() == "GoogLeNet" || net.name() == "ResNet50")
      sim_jobs = {0, 1, 4};
    for (const int jobs : sim_jobs) {
      opt.sim_jobs = jobs;
      const ExecResult r = run_network(net, input, ws, opt);
      EXPECT_EQ(output_digest(r.output), digest)
          << net.name() << " sim_jobs=" << jobs;
      EXPECT_EQ(r.total_sim_cycles, sim_cycles)
          << net.name() << " sim_jobs=" << jobs;
      EXPECT_EQ(r.runs.size(), net.layers().size()) << net.name();
      if (net.name() == "GoogLeNet") {
        EXPECT_EQ(r.output.dims(), (std::vector<int>{1000, 1}));
      }
    }
  }
}

// ---- host kernels vs the nn:: oracles -------------------------------------

/// Runs `body(pool)` with SIMD on and off, serially and on a 4-job pool.
template <typename Body>
void at_jobs_and_isa(const Body& body) {
  static ThreadPool four(4);
  for (const bool vector : {true, false}) {
    simd::set_enabled(vector);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      SCOPED_TRACE(::testing::Message()
                   << "simd " << (vector ? "on" : "off") << ", jobs "
                   << (pool != nullptr ? 4 : 1));
      body(pool);
    }
  }
  simd::set_enabled(true);
}

/// Full-range int16 input, -32768 included.
nn::Tensor16 full_range_input(const nn::Layer& l, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<int> dist(-32768, 32767);
  nn::Tensor16 t({l.in_c, l.in_h, l.in_w});
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<std::int16_t>(dist(gen));
  return t;
}

void expect_pool_matches_oracle(nn::Layer layer, std::uint64_t seed) {
  nn::validate(layer);
  const nn::Tensor16 in = full_range_input(layer, seed);
  for (const nn::PoolOp op : {nn::PoolOp::Max, nn::PoolOp::Avg}) {
    layer.pool_op = op;
    const nn::Tensor16 want = op == nn::PoolOp::Max
                                  ? nn::maxpool_reference(layer, in)
                                  : nn::avgpool_reference(layer, in);
    at_jobs_and_isa([&](ThreadPool* pool) {
      EXPECT_EQ(pool_layer(layer, in, pool), want)
          << layer.name << (op == nn::PoolOp::Max ? " max" : " avg") << " "
          << layer.in_c << "x" << layer.in_h << "x" << layer.in_w << " k "
          << layer.kh << "x" << layer.kw << " s " << layer.stride << " p "
          << layer.pad;
    });
  }
}

TEST(HostKernels, PoolingMatchesOracleOnEveryZooShape) {
  std::set<std::tuple<int, int, int, int, int, int, int>> seen;
  std::vector<nn::Network> nets = nn::mlperf_models();
  nets.push_back(nn::mobilenet_v1());
  for (const nn::Network& net : nets)
    for (const nn::Layer& l : net.layers()) {
      if (l.kind != nn::LayerKind::Pool) continue;
      if (!seen.insert({l.in_c, l.in_h, l.in_w, l.kh, l.kw, l.stride, l.pad})
               .second)
        continue;
      expect_pool_matches_oracle(l, seen.size());
    }
  EXPECT_GE(seen.size(), 8u);
}

TEST(HostKernels, PoolingMatchesOracleOnOddGeometry) {
  // Odd widths around the 16-lane vector blocks, pads that leave empty
  // windows, kernels wider than the input, strides 1-3.
  std::uint64_t seed = 0;
  for (const int w : {1, 15, 17, 33})
    for (const int h : {1, 6, 17})
      for (const auto& [kh, kw] : {std::pair{1, 1}, std::pair{2, 2},
                                   std::pair{3, 3}, std::pair{3, 5},
                                   std::pair{5, 2}, std::pair{h + 2, w + 2}})
        for (const int stride : {1, 2, 3})
          for (const int pad : {0, 1, 2}) {
            if (h + 2 * pad < kh || w + 2 * pad < kw) continue;
            expect_pool_matches_oracle(
                nn::make_pool2("odd", 3, h, w, kh, kw, stride, pad), ++seed);
          }
  // Large enough to fan out over the pool.
  static_assert(40 * 45 * 37 >= kSerialBelow);
  expect_pool_matches_oracle(nn::make_pool("fan", 40, 45, 37, 3, 2, 1), 1);
  expect_pool_matches_oracle(nn::make_pool("fan_s1", 40, 45, 37, 3, 1, 1), 2);
  // Layers whose window rows do not fit a band buffer (wide rows, a window
  // wider than the buffer, tall windows) run on the oracle.
  expect_pool_matches_oracle(nn::make_pool2("long", 2, 3, 5000, 3, 3, 1, 1),
                             3);
  expect_pool_matches_oracle(
      nn::make_pool2("wide", 1, 2, 10'000, 2, 9'000, 500, 0), 4);
  // A stride past the kernel: band rows no window reads.
  expect_pool_matches_oracle(nn::make_pool2("sparse", 2, 50, 50, 2, 3, 4, 1),
                             6);
  expect_pool_matches_oracle(
      nn::make_pool2("tall", 1, 70'000, 2, 66'000, 2, 4'000, 0), 5);
  // Windows that are the whole unpadded plane (a 1x1 output: global
  // average pooling), one per stride; the last plane is larger than a band
  // buffer.
  expect_pool_matches_oracle(nn::make_pool2("global", 4, 7, 7, 7, 7, 1, 0), 7);
  expect_pool_matches_oracle(nn::make_pool2("global", 3, 6, 17, 6, 17, 2, 0),
                             8);
  expect_pool_matches_oracle(
      nn::make_pool2("global", 2, 90, 100, 90, 100, 3, 0), 9);
}

/// Requantisation of `acc` against nn::requantize_output at several shifts,
/// ReLU on and off, with the max |acc| the engine would report.
void expect_requant_matches_oracle(const nn::AccTensor& acc) {
  std::uint64_t max_abs = 0;
  for (std::int64_t i = 0; i < acc.size(); ++i) {
    const acc_t v = acc[i];
    max_abs = std::max<std::uint64_t>(max_abs, v < 0 ? 0ULL - static_cast<std::uint64_t>(v)
                                      : static_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(shift_for_max(max_abs, 7), calibrate_shift(acc, 7));
  for (const bool relu : {false, true}) {
    nn::Layer layer = nn::make_conv("rq", 1, 1, 1, 1, 1, 1, 0, relu);
    for (const int shift : {0, 1, 7, calibrate_shift(acc, 7), 31, 32, 40, 63}) {
      const nn::Tensor16 want = nn::requantize_output(layer, acc, shift);
      at_jobs_and_isa([&](ThreadPool* pool) {
        EXPECT_EQ(requantize_layer(layer, acc, max_abs, shift, pool), want)
            << "shift " << shift << " relu " << relu << " max|acc| "
            << max_abs;
      });
    }
  }
}

TEST(HostKernels, RequantisationMatchesOracleAcrossMagnitudes) {
  constexpr acc_t k31 = acc_t{1} << 31;
  struct Range {
    acc_t lo, hi;  ///< values drawn in [lo, hi]
    acc_t pin;     ///< one element set to this
  };
  const Range ranges[] = {
      {-(k31 - 1), k31 - 1, k31 - 1},   // just below 2^31: int32 lanes
      {-(k31 - 1), k31 - 1, -(k31 - 1)},
      {-k31, k31 - 1, -k31},            // |acc| == 2^31: scalar
      {-(k31 + 5), k31 + 5, k31},       // just above 2^31
      {-(acc_t{1} << 50), acc_t{1} << 50, acc_t{1} << 49},  // saturate48
      {-(acc_t{1} << 50), acc_t{1} << 50,
       std::numeric_limits<acc_t>::min()},
      {-300, 300, 0},                   // small: shift 0 keeps them
  };
  static_assert(64 * 33 * 33 >= kSerialBelow);  // the last shape fans out
  std::uint64_t seed = 0;
  for (const Range& r : ranges)
    for (const nn::Dims& dims :
         {nn::Dims{3, 5, 7}, nn::Dims{1, 17}, nn::Dims{64, 33, 33}}) {
      nn::AccTensor acc(dims);
      std::mt19937_64 gen(++seed);
      std::uniform_int_distribution<acc_t> dist(r.lo, r.hi);
      for (std::int64_t i = 0; i < acc.size(); ++i) acc[i] = dist(gen);
      acc[acc.size() / 2] = r.pin;
      expect_requant_matches_oracle(acc);
    }
}

TEST(HostKernels, ResidualAddMatchesOracle) {
  // Every distinct residual-add shape of the two residual zoo networks, on
  // full-range inputs (so sums saturate both ways and half are negative),
  // against the executor's former per-element formula.
  std::set<std::tuple<int, int, int>> shapes;
  for (const nn::Network& net : {nn::resnet50(), nn::alphago_zero()})
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
      const nn::Layer& l = net.layers()[i];
      if (l.kind != nn::LayerKind::Ewop || l.ewop_op != nn::EwopOp::AddRelu)
        continue;
      const nn::Layer& producer =
          net.layers()[static_cast<std::size_t>(net.find(l.input_names[0]))];
      shapes.insert({producer.out_c, producer.out_h(), producer.out_w()});
    }
  ASSERT_GE(shapes.size(), 5u);
  static_assert(256 * 56 * 56 >= kSerialBelow);  // ResNet50's first stage
  const nn::Layer layer = nn::make_add_relu("add", 1, {"a", "b"});
  std::uint64_t seed = 0;
  for (const auto& [c, h, w] : shapes) {
    nn::Layer shape_of;
    shape_of.in_c = c;
    shape_of.in_h = h;
    shape_of.in_w = w;
    const nn::Tensor16 a = full_range_input(shape_of, ++seed);
    const nn::Tensor16 b = full_range_input(shape_of, ++seed);
    nn::Tensor16 want(a.dims());
    for (std::int64_t i = 0; i < want.size(); ++i)
      want[i] = relu(requantize(acc_t{a[i]} + acc_t{b[i]}, 0));
    at_jobs_and_isa([&](ThreadPool* pool) {
      EXPECT_EQ(add_relu_layer(layer, a, b, pool), want)
          << c << "x" << h << "x" << w;
    });
  }
  at_jobs_and_isa([&](ThreadPool* pool) {
    EXPECT_THROW(add_relu_layer(layer, nn::Tensor16({2, 3, 4}),
                                nn::Tensor16({2, 4, 3}), pool),
                 ConfigError);
  });
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
