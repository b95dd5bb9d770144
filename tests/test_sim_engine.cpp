// Pins the simulator's functional engine to the nn:: reference kernels:
// bit-identical outputs across odd strides / pads / tail sizes, at every
// jobs count and with SIMD on and off, and SimStats identical on the
// stats-only path (docs/simulator.md). A tensor-free walker over the
// padded Eqn. 2 space is the oracle for the MACC counts and for the Eqn.
// 10-11 buffer bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "compiler/codegen.h"
#include "compiler/session.h"
#include "nn/reference.h"
#include "sim/ftdl_sim.h"
#include "sim/sim_engine.h"
#include "sim_run.h"

namespace ftdl {
namespace {

using compiler::Objective;

arch::OverlayConfig random_config(Rng& rng) {
  arch::OverlayConfig c;
  c.d1 = static_cast<int>(rng.uniform(2, 8));
  c.d2 = static_cast<int>(rng.uniform(1, 4));
  c.d3 = static_cast<int>(rng.uniform(1, 5));
  c.actbuf_words = 64 << rng.uniform(0, 2);
  c.psumbuf_words = 1024 << rng.uniform(0, 2);
  c.validate();
  return c;
}

/// Odd extents, strides and pads on purpose: trip counts that spill past the
/// padded tiles exercise the walker and the coverage count, and pad
/// clipping exercises the engine's clipped windows and row-fused sweeps.
nn::Layer random_layer(Rng& rng, int idx) {
  const double pick = rng.uniform01();
  if (pick < 0.45) {
    const int in_c = static_cast<int>(rng.uniform(1, 13));
    const int hw = static_cast<int>(rng.uniform(5, 17));
    const int out_c = static_cast<int>(rng.uniform(1, 17));
    const int k = static_cast<int>(rng.uniform(1, std::min(hw, 5)));
    const int stride = static_cast<int>(rng.uniform(1, 3));
    const int pad = static_cast<int>(rng.uniform(0, k - 1 > 0 ? k - 1 : 0));
    return nn::make_conv("eng_conv_" + std::to_string(idx), in_c, hw, hw,
                         out_c, k, stride, pad);
  }
  if (pick < 0.65) {
    const int ch = static_cast<int>(rng.uniform(2, 24));
    const int hw = static_cast<int>(rng.uniform(5, 15));
    const int k = static_cast<int>(rng.uniform(2, std::min(hw, 4)));
    const int stride = static_cast<int>(rng.uniform(1, 2));
    return nn::make_depthwise("eng_dw_" + std::to_string(idx), ch, hw, hw, k,
                              stride, k / 2);
  }
  return nn::make_matmul("eng_mm_" + std::to_string(idx), rng.uniform(1, 97),
                         rng.uniform(1, 65), rng.uniform(1, 25));
}

struct LayerData {
  nn::Tensor16 weights, input;
};

LayerData make_data(const nn::Layer& layer, std::uint64_t seed) {
  Rng rng(seed);
  LayerData d;
  if (layer.kind == nn::LayerKind::Conv) {
    d.input = nn::Tensor16({layer.in_c, layer.in_h, layer.in_w});
    d.weights = nn::Tensor16({layer.out_c, layer.in_c, layer.kh, layer.kw});
  } else if (layer.kind == nn::LayerKind::Depthwise) {
    d.input = nn::Tensor16({layer.in_c, layer.in_h, layer.in_w});
    d.weights = nn::Tensor16({layer.in_c, layer.kh, layer.kw});
  } else {
    d.input = nn::Tensor16({static_cast<int>(layer.mm_m),
                            static_cast<int>(layer.mm_p)});
    d.weights = nn::Tensor16({static_cast<int>(layer.mm_n),
                              static_cast<int>(layer.mm_m)});
  }
  d.input.fill_random(rng);
  d.weights.fill_random(rng);
  return d;
}

/// One seed of the randomized sweeps: a random overlay, a random layer and
/// its compiled program.
struct SweepCase {
  arch::OverlayConfig cfg;
  nn::Layer layer;
  compiler::LayerProgram prog;
};

SweepCase sweep_case(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  SweepCase c;
  c.cfg = random_config(rng);
  c.layer = random_layer(rng, seed);
  c.prog = compiler::compile_layer(c.layer, c.cfg, Objective::Performance,
                                   4'000);
  return c;
}

bool takes_tiles(const compiler::LayerProgram& prog, const LayerData& data) {
  const sim::detail::EngineTables tb = sim::detail::build_tables(prog);
  return sim::detail::uses_int32_tiles(
      tb, sim::detail::bind_weights(tb, data.weights.data()),
      data.input.data());
}

/// One functional run of `prog` fanned over a pool of `jobs` workers (1 runs
/// serially on the caller).
SimRun run_jobs(const compiler::LayerProgram& prog,
                const arch::OverlayConfig& cfg, const LayerData& data,
                int jobs) {
  ThreadPool pool(jobs);
  return simulate(prog, cfg, data.weights, data.input, {},
                  jobs == 1 ? nullptr : &pool);
}

void expect_same_stats(const sim::SimStats& a, const sim::SimStats& b,
                       const char* what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << what;
  EXPECT_EQ(a.act_stall_cycles, b.act_stall_cycles) << what;
  EXPECT_EQ(a.psum_stall_cycles, b.psum_stall_cycles) << what;
  EXPECT_EQ(a.valid_maccs, b.valid_maccs) << what;
  EXPECT_EQ(a.padded_maccs, b.padded_maccs) << what;
  EXPECT_EQ(a.act_refills, b.act_refills) << what;
  EXPECT_EQ(a.psum_drains, b.psum_drains) << what;
}

nn::AccTensor nn_golden(const nn::Layer& layer, const LayerData& data) {
  switch (layer.kind) {
    case nn::LayerKind::Conv:
      return nn::conv2d_reference(layer, data.input, data.weights);
    case nn::LayerKind::Depthwise:
      return nn::depthwise_reference(layer, data.input, data.weights);
    default:
      return nn::matmul_reference(layer, data.input, data.weights);
  }
}

/// What walk_program measures on one program: the valid and padded MACC
/// counts of the padded Eqn. 2 space and the true buffer footprints, in
/// 16-bit words (psums: accumulator entries).
struct Walk {
  std::int64_t valid = 0, padded = 0;
  std::int64_t max_act_words_per_tpe = 0;   ///< worst LoopL phase
  std::int64_t max_psum_words_per_sb = 0;   ///< worst LoopX phase
  std::int64_t max_wbuf_words_per_tpe = 0;  ///< whole layer
};

/// The per-loop digits of every state of hardware level `lv`, state-major,
/// last loop fastest (an odometer's visiting order).
std::vector<std::int64_t> level_states(const compiler::Mapping& m,
                                       compiler::HwLevel lv) {
  const int nk = m.k();
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(m.level_product(lv) * nk));
  for (std::int64_t s = 0; s < m.level_product(lv); ++s) {
    std::int64_t r = s;
    for (int k = nk - 1; k >= 0; --k) {
      out[static_cast<std::size_t>(s * nk + k)] = r % m.tile(lv, k);
      r /= m.tile(lv, k);
    }
  }
  return out;
}

/// Tensor-free brute-force walk of a program's padded X/L/T x TPE space:
/// the independent oracle for the Eqn. 10-11 buffer bounds. A TPE's
/// activation set resets every LoopL phase, a SuperBlock's (its D1 TPEs')
/// psum set every LoopX phase; a TPE's weight set spans the layer.
Walk walk_program(const compiler::LayerProgram& prog) {
  using compiler::HwLevel;
  const compiler::Mapping& m = prog.mapping;
  const nn::Layer& ly = prog.layer;
  const int nk = m.k();
  // Eqn. 2 nesting, outermost first: spatial D3 D2 D1, temporal X L T.
  constexpr HwLevel levels[] = {HwLevel::D3, HwLevel::D2, HwLevel::D1,
                                HwLevel::X,  HwLevel::L,  HwLevel::T};
  std::int64_t n[6];
  std::vector<std::int64_t> digits[6];
  for (int i = 0; i < 6; ++i) {
    n[i] = m.level_product(levels[i]);
    digits[i] = level_states(m, levels[i]);
  }
  const std::int64_t tpes = n[0] * n[1] * n[2];
  using Set = std::unordered_set<std::int64_t>;
  std::vector<Set> act(static_cast<std::size_t>(tpes)),
      wbuf(static_cast<std::size_t>(tpes)),
      psum(static_cast<std::size_t>(n[0] * n[1]));  // one per SuperBlock
  auto flush = [](std::vector<Set>& sets, std::int64_t& max) {
    for (Set& s : sets) {
      max = std::max(max, static_cast<std::int64_t>(s.size()));
      s.clear();
    }
  };
  Walk wk;
  for (std::int64_t x = 0; x < n[3]; ++x) {
    for (std::int64_t l = 0; l < n[4]; ++l) {
      for (std::int64_t t = 0; t < n[5]; ++t) {
        for (std::int64_t p = 0; p < tpes; ++p) {
          ++wk.padded;
          const std::int64_t state[] = {p / (n[1] * n[2]), p / n[2] % n[1],
                                        p % n[2], x, l, t};
          std::array<std::int64_t, 128> g{};  // global loop index by tag
          bool in_range = true;
          for (int k = 0; k < nk && in_range; ++k) {
            std::int64_t v = 0;
            for (int i = 0; i < 6; ++i)
              v = v * m.tile(levels[i], k) +
                  digits[i][static_cast<std::size_t>(state[i] * nk + k)];
            const compiler::WorkloadLoop& loop =
                prog.workload.loops[static_cast<std::size_t>(k)];
            g[static_cast<std::size_t>(loop.tag)] = v;
            in_range = v < loop.trip;
          }
          if (!in_range) continue;
          std::int64_t a_id, w_id, o_id;  // element ids in the layer tensors
          if (ly.kind == nn::LayerKind::MatMul) {
            a_id = g['M'] * ly.mm_p + g['P'];
            w_id = g['N'] * ly.mm_m + g['M'];
            o_id = g['N'] * ly.mm_p + g['P'];
          } else {
            const std::int64_t y = g['E'] * ly.stride + g['R'] - ly.pad;
            const std::int64_t xc = g['F'] * ly.stride + g['S'] - ly.pad;
            if (y < 0 || y >= ly.in_h || xc < 0 || xc >= ly.in_w) continue;
            const std::int64_t mo =
                ly.kind == nn::LayerKind::Depthwise ? g['N'] : g['M'];
            a_id = (g['N'] * ly.in_h + y) * ly.in_w + xc;
            w_id = ((mo * ly.in_c + g['N']) * ly.kh + g['R']) * ly.kw + g['S'];
            o_id = (mo * ly.out_h() + g['E']) * ly.out_w() + g['F'];
          }
          ++wk.valid;
          act[static_cast<std::size_t>(p)].insert(a_id);
          wbuf[static_cast<std::size_t>(p)].insert(w_id);
          psum[static_cast<std::size_t>(p / n[2])].insert(o_id);
        }
      }
      flush(act, wk.max_act_words_per_tpe);
    }
    flush(psum, wk.max_psum_words_per_sb);
  }
  flush(wbuf, wk.max_wbuf_words_per_tpe);
  return wk;
}

class EngineSweep : public ::testing::TestWithParam<int> {};

/// The walker's footprints must stay within the analytical model's buffer
/// sizing (prog.perf.buffers): the executable proof that the halo-aware
/// ActBUF formula, the psum-tile formula and the WBUF-tile formula are upper
/// bounds of reality.
void expect_footprints_within_bounds(const compiler::LayerProgram& prog,
                                     const Walk& wk) {
  const auto& bounds = prog.perf.buffers;
  EXPECT_GT(wk.max_act_words_per_tpe, 0) << prog.layer.name;
  EXPECT_LE(wk.max_act_words_per_tpe, bounds.actbuf_words_per_tpe)
      << prog.layer.name;
  EXPECT_LE(wk.max_psum_words_per_sb, bounds.psum_words_per_superblock)
      << prog.layer.name;
  EXPECT_LE(wk.max_wbuf_words_per_tpe, bounds.wbuf_words_per_tpe)
      << prog.layer.name;
}

TEST_P(EngineSweep, EngineMatchesReferenceBitExactly) {
  const SweepCase c = sweep_case(GetParam());
  const arch::OverlayConfig& cfg = c.cfg;
  const nn::Layer& layer = c.layer;
  const compiler::LayerProgram& prog = c.prog;
  if (prog.weight_groups != 1) return;  // see LayerRunnerOverWeightGroups

  const LayerData data =
      make_data(layer, static_cast<std::uint64_t>(GetParam()) + 11);

  // (a) jobs = 1 and jobs = 8 both equal the nn:: golden kernel (each
  // accumulator is owned by exactly one worker; integer sums are
  // associative).
  const nn::AccTensor golden = nn_golden(layer, data);
  const SimRun fast = run_jobs(prog, cfg, data, 1);
  EXPECT_EQ(fast.output, golden) << prog.mapping.to_string(prog.workload);
  EXPECT_EQ(run_jobs(prog, cfg, data, 8).output, golden);

  // (b) stats-only: SimStats identical to the functional runner's, and a
  // trace spanning its cycles.
  const sim::SimResult stats = sim::simulate_layer_stats(prog, cfg);
  expect_same_stats(stats.stats, fast.stats, "stats-only vs functional");
  EXPECT_EQ(stats.trace.total_cycles,
            static_cast<std::uint64_t>(fast.stats.cycles));

  // (c) the walker counts the same MACCs, and its footprints stay within
  // the model's buffer bounds.
  const Walk wk = walk_program(prog);
  EXPECT_EQ(wk.valid, fast.stats.valid_maccs);
  EXPECT_EQ(wk.padded, fast.stats.padded_maccs);
  expect_footprints_within_bounds(prog, wk);
}

constexpr int kEngineSeeds = 48;
INSTANTIATE_TEST_SUITE_P(Sweep, EngineSweep, ::testing::Range(0, kEngineSeeds));

// The sweep keeps exercising the phase-split tile path: at least one of its
// seeds is a strided conv that runs (one weight group) on the int32 tiles.
TEST(SimEngine, EngineSweepHasStridedTileSeeds) {
  int strided_tiles = 0;
  for (int seed = 0; seed < kEngineSeeds; ++seed) {
    const SweepCase c = sweep_case(seed);
    if (c.prog.weight_groups != 1 || c.layer.kind != nn::LayerKind::Conv ||
        c.layer.stride == 1)
      continue;
    const LayerData data =
        make_data(c.layer, static_cast<std::uint64_t>(seed) + 11);
    strided_tiles += takes_tiles(c.prog, data) ? 1 : 0;
  }
  EXPECT_EQ(strided_tiles > 0, simd::has_conv_tile()) << strided_tiles;
}

/// A small overlay with tight buffers, so the model's bounds bind.
arch::OverlayConfig small_buffers() {
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

TEST(Sim, BufferFootprintsWithinModelBounds) {
  for (const nn::Layer& layer : {nn::make_conv("c1", 8, 12, 12, 12, 3, 1, 1),
                                 nn::make_conv("c2", 6, 10, 10, 8, 5, 2, 2),
                                 nn::make_conv("c3", 16, 7, 7, 8, 1, 1, 0)}) {
    const compiler::LayerProgram prog = compiler::compile_layer(
        layer, small_buffers(), Objective::Performance, 6'000);
    expect_footprints_within_bounds(prog, walk_program(prog));
  }
}

TEST(Sim, BufferFootprintsMatMul) {
  const compiler::LayerProgram prog =
      compiler::compile_layer(nn::make_matmul("fc", 48, 20, 6),
                              small_buffers(), Objective::Performance, 6'000);
  expect_footprints_within_bounds(prog, walk_program(prog));
}

/// max |acc| over `t`, as a magnitude.
std::uint64_t max_abs_of(const nn::AccTensor& t) {
  std::uint64_t m = 0;
  for (std::int64_t i = 0; i < t.size(); ++i)
    m = std::max<std::uint64_t>(m, t[i] < 0 ? 0ULL - static_cast<std::uint64_t>(t[i])
                             : static_cast<std::uint64_t>(t[i]));
  return m;
}

/// Forces the scalar oracles for its lifetime; restores the vector path on
/// exit (set_enabled(true) is a no-op where no vector path exists).
struct ScopedScalarOnly {
  ScopedScalarOnly() { simd::set_enabled(false); }
  ~ScopedScalarOnly() { simd::set_enabled(true); }
};

/// Runs the engine twice — vector dispatch vs forced-scalar — and both must
/// equal the nn:: golden kernel bit-exactly.
void expect_simd_scalar_golden_agree(const compiler::LayerProgram& prog,
                                     const arch::OverlayConfig& cfg,
                                     const LayerData& data, int jobs) {
  const SimRun vec = run_jobs(prog, cfg, data, jobs);
  SimRun sca;
  {
    ScopedScalarOnly scalar_only;
    sca = run_jobs(prog, cfg, data, jobs);
  }
  EXPECT_EQ(vec.output, sca.output)
      << "SIMD vs scalar, jobs=" << jobs << ": "
      << prog.mapping.to_string(prog.workload);
  expect_same_stats(vec.stats, sca.stats, "SIMD vs scalar");
  EXPECT_EQ(vec.output, nn_golden(prog.layer, data))
      << "SIMD vs nn reference, jobs=" << jobs;
  EXPECT_EQ(vec.max_abs, sca.max_abs) << "SIMD vs scalar max |acc|";
  EXPECT_EQ(vec.max_abs, max_abs_of(vec.output));
}

// The randomized sweep again, now pinning the vector dispatch against the
// forced-scalar engine (simd::set_enabled test hook) and the nn:: golden
// kernel. One extra seed past EngineSweep keeps the two suites from sharing
// every case.
class SimdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimdSweep, SimdMatchesScalarBitExactly) {
  const SweepCase c = sweep_case(GetParam());
  if (c.prog.weight_groups != 1) return;
  const LayerData data =
      make_data(c.layer, static_cast<std::uint64_t>(GetParam()) + 11);
  expect_simd_scalar_golden_agree(c.prog, c.cfg, data, /*jobs=*/1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdSweep, ::testing::Range(0, 49));

// Kernel edge geometry: burst/tail widths that straddle the inline cutoff
// and every vector tail length (1..2*lanes for the widest 16-lane AVX2
// path), at jobs = 1 and jobs = 8. MatMul column length m is the dot/axpy
// sweep width, so it is the direct lever on kernel width.
TEST(SimEngine, EdgeTailWidthsSimdMatchesScalar) {
  const arch::OverlayConfig cfg = arch::paper_config();
  for (int m : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
    const nn::Layer layer =
        nn::make_matmul("eng_tail_mm_" + std::to_string(m), 5, m, 3);
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << "m=" << m;
    const LayerData data = make_data(layer, static_cast<std::uint64_t>(m));
    for (int jobs : {1, 8})
      expect_simd_scalar_golden_agree(prog, cfg, data, jobs);
  }
}

// Single-element temporal runs (1x1 outputs, unit matmuls) and narrow
// bursts (single-column images, 1-wide kernels): the degenerate loop trips
// where a vector path must fall through to scalar tails cleanly.
TEST(SimEngine, SingleElementRunsAndNarrowBursts) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer cases[] = {
      // k == hw, pad 0: exactly one output pixel per channel.
      nn::make_conv("eng_edge_1x1out", 4, 3, 3, 6, 3, 1, 0),
      // 1x1 kernel on a single-column image: narrow burst per row.
      nn::make_conv("eng_edge_col", 5, 9, 1, 7, 1, 1, 0),
      // Depthwise with k == hw: one output element per channel.
      nn::make_depthwise("eng_edge_dw", 6, 4, 4, 4, 1, 0),
      // Fully degenerate matmul.
      nn::make_matmul("eng_edge_unit_mm", 1, 1, 1),
  };
  for (const nn::Layer& layer : cases) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << layer.name;
    const LayerData data = make_data(layer, 31);
    for (int jobs : {1, 8})
      expect_simd_scalar_golden_agree(prog, cfg, data, jobs);
  }
}

/// The overlay the repo benchmark simulates GoogLeNet on.
arch::OverlayConfig bench_overlay() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  c.validate();
  return c;
}

// Zoo-scale shapes on the benchmark overlay, one per sweep shape of the
// engine: the strided 7x7 stem and ResNet50's 1x1/s2 shortcut (phase-split
// tiles; the shortcut drops every phase but one), a 5x5 same-padded conv
// (row-fused sweeps across the pad-clipped columns), a 1x1 conv (one
// whole-plane sweep), seqCNN's kh x 1 conv over a 1-wide image (rows fused
// along the sequence), a stride-2 depthwise conv, and MatMul with P = 1
// (dot) and P > 1 (axpy). Each runs at zoo scale and as a reduced copy;
// both must equal the nn:: golden kernels at jobs {1, 4}, with SIMD on and
// off, and every conv takes the int32 tiles exactly when SIMD has them.
/// Each sweep shape at zoo scale followed by its reduced copy.
std::vector<nn::Layer> zoo_shape_layers() {
  return {
      nn::make_conv("zoo_stem", 3, 224, 224, 8, 7, 2, 3),
      nn::make_conv("zoo_stem_small", 3, 30, 30, 4, 7, 2, 3),
      nn::make_conv("zoo_shortcut_s2", 256, 56, 56, 8, 1, 2, 0),
      nn::make_conv("zoo_shortcut_s2_small", 12, 11, 9, 6, 1, 2, 0),
      nn::make_conv("zoo_5x5", 16, 28, 28, 24, 5, 1, 2),
      nn::make_conv("zoo_5x5_small", 4, 12, 12, 6, 5, 1, 2),
      nn::make_conv("zoo_1x1", 64, 28, 28, 32, 1, 1, 0),
      nn::make_conv("zoo_1x1_small", 8, 10, 10, 6, 1, 1, 0),
      // One of the four weight groups the executor splits conv_w5 into.
      nn::make_conv2("zoo_conv_w5", 128, 75, 1, 25, 5, 1, 1, 0),
      nn::make_conv2("zoo_conv_w5_small", 8, 20, 1, 6, 5, 1, 1, 0),
      nn::make_depthwise("zoo_dw_s2", 32, 28, 28, 3, 2, 1),
      nn::make_depthwise("zoo_dw_s2_small", 6, 11, 11, 3, 2, 1),
      nn::make_matmul("zoo_fc_p1", 1024, 12, 1),
      nn::make_matmul("zoo_fc_p1_small", 40, 30, 1),
      nn::make_matmul("zoo_mm_p", 96, 64, 20),
      nn::make_matmul("zoo_mm_p_small", 17, 9, 6),
  };
}

TEST(SimEngine, ZooShapesMatchNnReference) {
  const arch::OverlayConfig cfg = bench_overlay();
  for (const nn::Layer& layer : zoo_shape_layers()) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << layer.name;
    const LayerData data = make_data(layer, 17);
    const nn::AccTensor golden = nn_golden(layer, data);
    const bool conv = layer.kind == nn::LayerKind::Conv;
    auto expect_fast_matches = [&](const char* kernels) {
      EXPECT_EQ(takes_tiles(prog, data), conv && simd::has_conv_tile())
          << layer.name << " " << kernels;
      for (int jobs : {1, 4}) {
        EXPECT_EQ(run_jobs(prog, cfg, data, jobs).output, golden)
            << layer.name << " " << kernels << " jobs=" << jobs;
      }
    };
    expect_fast_matches("simd");
    {
      ScopedScalarOnly scalar_only;
      expect_fast_matches("scalar");
    }
  }
}

/// Fast at jobs {1, 4} must equal the nn:: golden kernel.
void expect_fast_matches_golden(const compiler::LayerProgram& prog,
                                const arch::OverlayConfig& cfg,
                                const LayerData& data, const char* what) {
  const nn::AccTensor golden = nn_golden(prog.layer, data);
  for (int jobs : {1, 4}) {
    EXPECT_EQ(run_jobs(prog, cfg, data, jobs).output, golden)
        << prog.layer.name << " " << what << " jobs=" << jobs;
  }
}

// The int32 tile path runs only when K * max|w| * max|x| <= 2^31 - 1, with K
// the phase-split reduction length rounded up to pairs. Same-sign extremes
// put the partial sums next to the bound: just inside, the tiles sum
// exactly; just outside (and at the (-32768)^2 corner), the acc_t path runs,
// where a 1x1 layer's sums would overflow int32. All equal the nn
// reference.
/// A layer next to the int32 tile bound, and its reduction length K.
struct TileBoundCase {
  nn::Layer layer;
  std::int64_t k;  ///< phase-split reduction length rounded up to pairs
};

std::vector<TileBoundCase> tile_bound_cases() {
  return {
      // 1x1 pairs channels: K = in_c.
      {nn::make_conv("tile_bound_1x1", 4, 5, 5, 6, 1, 1, 0), 4},
      // 3x3 pairs taps: 9 round up to 10 per channel.
      {nn::make_conv("tile_bound_3x3", 3, 6, 6, 5, 3, 1, 1), 30},
      // 7x7/s2 splits each channel into 2x2 phase planes of 4x4 taps:
      // K = 3 * 4 * 16.
      {nn::make_conv("tile_bound_7x7_s2", 3, 11, 13, 5, 7, 2, 3), 192},
      // 3x3/s3 splits each channel into 3x3 phase planes of one tap, which
      // pair as planes: 27 round up to 28.
      {nn::make_conv("tile_bound_3x3_s3", 3, 10, 8, 6, 3, 3, 1), 28},
  };
}

/// Same-sign operands filling a layer's tensors: w = 32767 with x just
/// inside the bound (the tiles run where SIMD has them), then just outside
/// it, then the (-32768)^2 corner (both on the acc_t path).
struct BoundOperands {
  std::int16_t w, x;
  bool tiles;
};

std::vector<BoundOperands> bound_sides(std::int64_t k) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kW = 32767;
  const std::int64_t inside = kMax / (k * kW);
  EXPECT_LE(k * kW * inside, kMax);
  EXPECT_GT(k * kW * (inside + 1), kMax);
  return {
      {static_cast<std::int16_t>(kW), static_cast<std::int16_t>(inside),
       simd::has_conv_tile()},
      {static_cast<std::int16_t>(kW), static_cast<std::int16_t>(inside + 1),
       false},
      {std::numeric_limits<std::int16_t>::min(),
       std::numeric_limits<std::int16_t>::min(), false},
  };
}

LayerData filled_data(const nn::Layer& layer, const BoundOperands& side) {
  LayerData data = make_data(layer, 7);
  std::fill(data.weights.data(), data.weights.data() + data.weights.size(),
            side.w);
  std::fill(data.input.data(), data.input.data() + data.input.size(), side.x);
  return data;
}

TEST(SimEngine, Int32TileBoundBothSides) {
  const arch::OverlayConfig cfg = bench_overlay();
  for (const TileBoundCase& c : tile_bound_cases()) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(c.layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << c.layer.name;
    for (const BoundOperands& side : bound_sides(c.k)) {
      const LayerData data = filled_data(c.layer, side);
      EXPECT_EQ(takes_tiles(prog, data), side.tiles)
          << c.layer.name << " x=" << side.x;
      expect_fast_matches_golden(prog, cfg, data, "bound");
    }
  }
}

// Weights bound once (CachedLayerSim::bind, as the executor's warm-up does)
// run bit-identically to the unbound run, which binds on every call: the
// zoo sweep shapes (their strided 7x7 stem is the shape whose phase split
// moves taps, so the binding holds the rearranged kernel) and both sides of
// the int32 tile bound, at jobs 1 and 4, outputs and max |acc|. A weight
// tensor of the wrong layout is refused at bind, and a binding is refused
// by a runner of another layer geometry, even one whose weight layout is
// the same.
TEST(SimEngine, BoundWeightsMatchUnboundRun) {
  const arch::OverlayConfig cfg = bench_overlay();
  ThreadPool four(4);
  auto expect_bound_matches = [&](const nn::Layer& layer,
                                  const LayerData& data, const char* what) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    const sim::CachedLayerSim runner(prog, cfg);
    const sim::BoundWeights bound = runner.bind(data.weights);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      nn::AccTensor unbound_out, bound_out;
      const std::uint64_t unbound_max =
          runner.run(data.weights, data.input, unbound_out, pool);
      EXPECT_EQ(runner.run(bound, data.input, bound_out, pool), unbound_max)
          << layer.name << " " << what;
      EXPECT_EQ(bound_out, unbound_out) << layer.name << " " << what;
    }
  };
  for (const nn::Layer& layer : zoo_shape_layers())
    expect_bound_matches(layer, make_data(layer, 17), "zoo");
  for (const TileBoundCase& c : tile_bound_cases())
    for (const BoundOperands& side : bound_sides(c.k))
      expect_bound_matches(c.layer, filled_data(c.layer, side), "bound");

  const nn::Layer conv1x1 = nn::make_conv("bind_1x1", 8, 10, 10, 6, 1, 1, 0);
  const nn::Layer conv3x3 = nn::make_conv("bind_3x3", 8, 10, 10, 6, 3, 1, 1);
  const nn::Layer wider = nn::make_conv("bind_1x1_wide", 8, 10, 12, 6, 1, 1, 0);
  auto runner_for = [&](const nn::Layer& layer) {
    return sim::CachedLayerSim(
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000),
        cfg);
  };
  const sim::CachedLayerSim r1 = runner_for(conv1x1);
  const LayerData d1 = make_data(conv1x1, 3);
  EXPECT_THROW(r1.bind(make_data(conv3x3, 3).weights), ConfigError);
  const sim::BoundWeights bound = r1.bind(d1.weights);
  nn::AccTensor out;
  EXPECT_THROW(runner_for(conv3x3).run(bound, make_data(conv3x3, 3).input, out),
               ConfigError);
  EXPECT_THROW(runner_for(wider).run(bound, make_data(wider, 3).input, out),
               ConfigError);
  EXPECT_EQ(r1.run(bound, d1.input, out), max_abs_of(nn_golden(conv1x1, d1)));
}

// Tile geometry: odd in_c (a channel pair with zero), odd kh*kw (a tap pair
// with zero), tap pairs that cross a kernel row, out_c % 4 != 0 (partial
// channel tiles), ow < 16 and ow > 16 (grid tails, discarded columns), pad 2
// on a 7x7 plane, 1x1 with pad 0, and kh x 1 over a 1-wide image. Strided
// layers split into phase planes: strides 2 and 3 over odd, non-square
// inputs with pads 0-3, kernels within the stride (1x1/s2, 2x2/s3, 3x2/s3:
// phases dropped, one tap each), kernels that are not a multiple of the
// stride (7x7/s2, 5x5/s3, 5x4/s2: zero taps), odd in_c and out_c % 4 != 0.
// Typical operands take the tile path; Fast equals the nn reference at jobs
// {1, 4} with SIMD on and off.
TEST(SimEngine, Int32TileShapesMatchNnReference) {
  const arch::OverlayConfig cfg = bench_overlay();
  const nn::Layer layers[] = {
      nn::make_conv("tile_odd", 5, 9, 9, 6, 3, 1, 1),
      nn::make_conv("tile_pad2", 3, 7, 7, 7, 5, 1, 2),
      nn::make_conv("tile_1x1", 7, 6, 6, 5, 1, 1, 0),
      nn::make_conv("tile_1x1_even", 8, 3, 5, 9, 1, 1, 0),
      nn::make_conv("tile_wide", 3, 20, 20, 4, 3, 1, 1),
      nn::make_conv2("tile_2x3", 4, 8, 11, 3, 2, 3, 1, 1),
      nn::make_conv2("tile_kh1", 9, 20, 1, 3, 4, 1, 1, 0),
      nn::make_conv2("tile_kh1_odd", 6, 17, 1, 10, 5, 1, 1, 0),
      nn::make_conv2("tile_s2_7x7", 3, 23, 19, 6, 7, 7, 2, 3),
      nn::make_conv2("tile_s3_5x5", 5, 17, 22, 7, 5, 5, 3, 2),
      nn::make_conv2("tile_s2_5x4", 3, 15, 20, 5, 5, 4, 2, 1),
      nn::make_conv2("tile_s2_3x3", 7, 21, 15, 10, 3, 3, 2, 1),
      nn::make_conv2("tile_s3_3x3_pad0", 3, 19, 14, 4, 3, 3, 3, 0),
      nn::make_conv2("tile_s2_1x1", 7, 13, 10, 5, 1, 1, 2, 0),
      nn::make_conv2("tile_s3_2x2", 5, 14, 11, 9, 2, 2, 3, 1),
      nn::make_conv2("tile_s3_3x2", 3, 16, 13, 6, 3, 2, 3, 0),
  };
  for (const nn::Layer& layer : layers) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << layer.name;
    const LayerData data = make_data(layer, 23);
    EXPECT_EQ(takes_tiles(prog, data), simd::has_conv_tile()) << layer.name;
    expect_fast_matches_golden(prog, cfg, data, "simd");
    ScopedScalarOnly scalar_only;
    EXPECT_FALSE(takes_tiles(prog, data)) << layer.name;
    expect_fast_matches_golden(prog, cfg, data, "scalar");
  }
}

// Register-tile tails at both widths: output grids that end 1, 15-17 or
// 31-33 positions past a 32-position tile edge (so also 0, 1 or 15 past a
// 16-position one), strides 1 and 2, k = 1, 3, 5 and 7, pad 0 and k / 2,
// odd in_c, and out_c from 1 to 13 (partial channel tiles of 4 and of 6).
// The grid of a conv on the tiles is (oh - 1) * pitch + ow positions, with
// pitch = ow + ceil(k / s) - 1 on its phase planes. The engine runs serially
// and on a 4-job pool (which also cuts the grid into position blocks), over
// an output that starts as garbage, and must equal nn::conv2d_reference and
// report its max |acc|. The default dispatch runs the widest tile the host
// has; ctest sim_engine_avx2_tile reruns this with FTDL_SIMD=avx2.
TEST(SimEngine, TileTailGeometriesMatchReference) {
  const char* env = std::getenv("FTDL_SIMD");
  if (env != nullptr && std::string(env) == "avx2" && simd::has_conv_tile()) {
    EXPECT_STREQ(simd::isa_name(), "avx2");
  }
  ThreadPool pool(4);
  int idx = 0;
  for (int stride : {1, 2}) {
    for (int k : {1, 3, 5, 7}) {
      for (int tail : {1, 15, 16, 17, 31, 32, 33}) {
        const int phase_k = (k + stride - 1) / stride;
        int oh = 0, ow = 0;  // the first (oh, ow) whose grid ends at `tail`
        for (int t = 0; t < 3 && ow == 0; ++t) {
          const int h = 1 + (idx + t) % 3;
          for (int w = 1; w <= 96 && ow == 0; ++w) {
            const int grid = (h - 1) * (w + phase_k - 1) + w;
            if (grid >= tail && (grid - tail) % 32 == 0) {
              oh = h;
              ow = w;
            }
          }
        }
        ASSERT_GT(ow, 0) << "k=" << k << " s=" << stride << " tail=" << tail;
        const int pad = idx % 2 == 0 ? 0 : k / 2;
        const int in_c = 1 + 2 * (idx % 4);
        const int out_c = 1 + idx % 13;
        const nn::Layer layer = nn::make_conv2(
            "tile_tail_" + std::to_string(idx), in_c,
            (oh - 1) * stride + k - 2 * pad, (ow - 1) * stride + k - 2 * pad,
            out_c, k, k, stride, pad);
        ASSERT_EQ(layer.out_h(), oh) << layer.name;
        ASSERT_EQ(layer.out_w(), ow) << layer.name;
        ++idx;
        Rng rng(static_cast<std::uint64_t>(idx) * 7919);
        LayerData data;
        data.input = nn::Tensor16({layer.in_c, layer.in_h, layer.in_w});
        data.weights = nn::Tensor16({layer.out_c, layer.in_c, k, k});
        data.input.fill_random(rng, 1000);
        data.weights.fill_random(rng, 1000);
        const nn::AccTensor golden =
            nn::conv2d_reference(layer, data.input, data.weights);
        const sim::detail::EngineTables tb = sim::detail::build_tables(layer);
        const sim::detail::WeightBinding bound =
            sim::detail::bind_weights(tb, data.weights.data());
        EXPECT_EQ(sim::detail::uses_int32_tiles(tb, bound, data.input.data()),
                  simd::has_conv_tile())
            << layer.name;
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          nn::AccTensor out({out_c, oh, ow});
          std::fill(out.data(), out.data() + out.size(), acc_t{0x5a5a5a5a5a});
          const sim::detail::EngineResult r = sim::detail::run_functional(
              tb, bound, data.input.data(), out.data(), p);
          EXPECT_EQ(out, golden) << layer.name << " jobs=" << (p ? 4 : 1);
          EXPECT_EQ(r.max_abs, max_abs_of(golden)) << layer.name;
        }
      }
    }
  }
}

// A stride-1, pad-0 1x1 conv reads its input in place when a plane holds
// at least one tile of positions; only the last plane's tail tile reads past
// the tensor, from a slack-padded copy of that plane. Planes just below, at
// and just above 16 and 32 positions (so both tiles read in place and copy
// whole), and one of 7, under half of either tile, where a tile over
// channel n would read past channel n + 1 (a read in place would overrun the
// tensor), in_c 1, 2, 7 and 8 (a lone last channel, or a pair ending in it),
// out_c 1-13. No arena is installed, so every tensor is exactly its size and
// a sanitizer build bounds the reads. Serially and on a 4-job pool, over an
// output that starts as garbage, the engine must equal
// nn::conv2d_reference and report its max |acc|.
TEST(SimEngine, InPlace1x1TileReadsStayInBounds) {
  ThreadPool pool(4);
  const int planes[][2] = {{1, 7},  {3, 5}, {4, 4},
                           {1, 17}, {1, 31}, {4, 8}, {3, 11}};
  int idx = 0;
  for (const auto& hw : planes) {
    for (int in_c : {1, 2, 7, 8}) {
      const int out_c = 1 + idx % 13;
      const nn::Layer layer =
          nn::make_conv2("in_place_" + std::to_string(idx), in_c, hw[0], hw[1],
                         out_c, 1, 1, 1, 0);
      ++idx;
      Rng rng(static_cast<std::uint64_t>(idx) * 6151);
      LayerData data;
      data.input = nn::Tensor16({in_c, hw[0], hw[1]});
      data.weights = nn::Tensor16({out_c, in_c, 1, 1});
      data.input.fill_random(rng, 1000);
      data.weights.fill_random(rng, 1000);
      const nn::AccTensor golden =
          nn::conv2d_reference(layer, data.input, data.weights);
      const sim::detail::EngineTables tb = sim::detail::build_tables(layer);
      const sim::detail::WeightBinding bound =
          sim::detail::bind_weights(tb, data.weights.data());
      EXPECT_EQ(sim::detail::uses_int32_tiles(tb, bound, data.input.data()),
                simd::has_conv_tile())
          << layer.name;
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        nn::AccTensor out({out_c, hw[0], hw[1]});
        std::fill(out.data(), out.data() + out.size(), acc_t{0x5a5a5a5a5a});
        const sim::detail::EngineResult r = sim::detail::run_functional(
            tb, bound, data.input.data(), out.data(), p);
        EXPECT_EQ(out, golden) << layer.name << " jobs=" << (p ? 4 : 1);
        EXPECT_EQ(r.max_abs, max_abs_of(golden)) << layer.name;
      }
    }
  }
}

// The runner over a split program: one run over the full weight tensor
// equals the nn reference at jobs {1, 4}, the program counts the parts that
// run, and the runner's cached stats are the sums of single-part runners
// over each part's slice compiled on its own (the full-size slice times its
// count, plus the tail).
TEST(SimEngine, LayerRunnerOverWeightGroups) {
  arch::OverlayConfig cfg = bench_overlay();
  cfg.wbuf_words = 256;  // small WBUF: the layers split into weight groups
  cfg.validate();
  const nn::Layer layers[] = {
      nn::make_conv("runner_conv", 16, 6, 6, 51, 3, 1, 1),
      nn::make_conv("runner_conv_s2", 16, 13, 11, 51, 3, 2, 1),
      nn::make_matmul("runner_fc", 300, 70, 1),
  };
  int tails = 0;
  for (const nn::Layer& layer : layers) {
    const compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_GT(prog.weight_groups, 1) << layer.name;
    const int extent = compiler::weight_only_extent(layer);
    const nn::Layer slice =
        compiler::weight_group_slice(layer, prog.weight_groups);
    const int size = compiler::weight_only_extent(slice);
    EXPECT_EQ(prog.weight_groups, (extent + size - 1) / size) << layer.name;
    EXPECT_EQ(prog.tail != nullptr, extent % size != 0) << layer.name;
    const sim::CachedLayerSim runner(prog, cfg);

    const auto part_stats = [&](const nn::Layer& part) {
      const compiler::LayerProgram p =
          compiler::compile_layer(part, cfg, Objective::Performance, 4'000);
      EXPECT_EQ(p.weight_groups, 1) << part.name;
      return sim::CachedLayerSim(p, cfg).stats();
    };
    sim::SimStats sum;
    const auto add = [&sum](const sim::SimStats& st, std::int64_t times) {
      sum.cycles += st.cycles * times;
      sum.compute_cycles += st.compute_cycles * times;
      sum.act_stall_cycles += st.act_stall_cycles * times;
      sum.psum_stall_cycles += st.psum_stall_cycles * times;
      sum.valid_maccs += st.valid_maccs * times;
      sum.padded_maccs += st.padded_maccs * times;
      sum.act_refills += st.act_refills * times;
      sum.psum_drains += st.psum_drains * times;
    };
    add(part_stats(slice), extent / size);
    if (prog.tail) {
      ++tails;
      EXPECT_EQ(prog.tail->weight_groups, 1);
      EXPECT_EQ(compiler::weight_only_extent(prog.tail->layer), extent % size);
      add(part_stats(prog.tail->layer), 1);
    }
    expect_same_stats(runner.stats(), sum, "program runner vs part runners");

    const LayerData data = make_data(layer, 41);
    const nn::AccTensor golden = nn_golden(layer, data);
    for (int jobs : {1, 4}) {
      ThreadPool pool(jobs);
      nn::AccTensor out;
      runner.run(data.weights, data.input, out, &pool);
      EXPECT_EQ(out, golden) << layer.name << " jobs=" << jobs;
    }
  }
  EXPECT_GT(tails, 0);
}

// A mapping whose tile product no longer covers a loop's trip must be
// refused by every functional run, never silently computed: the engine
// walks the whole layer, and its MACC count no longer matches the valid
// points of the mapping's padded space.
TEST(SimEngine, UncoveredMappingIsRefused) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layers[] = {
      nn::make_conv("eng_cov_conv", 8, 10, 10, 16, 3, 1, 1),
      nn::make_matmul("eng_cov_mm", 48, 40, 6),
  };
  for (const nn::Layer& layer : layers) {
    compiler::LayerProgram prog =
        compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
    ASSERT_EQ(prog.weight_groups, 1) << layer.name;
    // Shrink one spatial tile to 1. The instruction stream encodes only the
    // temporal trips, so the stream cross-check still passes.
    bool cut = false;
    for (int i = 0; i < prog.workload.k() && !cut; ++i) {
      for (compiler::HwLevel lv : {compiler::HwLevel::D1, compiler::HwLevel::D2,
                                   compiler::HwLevel::D3}) {
        if (prog.mapping.tile(lv, i) < 2) continue;
        prog.mapping.tile(lv, i) = 1;
        cut = prog.mapping.loop_coverage(i) <
              prog.workload.loops[static_cast<std::size_t>(i)].trip;
        if (cut) break;
      }
    }
    ASSERT_TRUE(cut) << layer.name << ": no spatial tile to shrink";
    const LayerData data = make_data(layer, 5);
    const sim::CachedLayerSim cached(prog, cfg);
    for (int jobs : {1, 4}) {
      nn::AccTensor out;
      ThreadPool pool(jobs);
      EXPECT_THROW(cached.run(data.weights, data.input, out, &pool),
                   InternalError)
          << layer.name;
    }
  }
}

// A program split into weight groups runs whole on the runner and equals
// the nn golden; the stats-only path times one part, so it refuses the
// split program by name and accepts the single-part slice.
TEST(SimEngine, SplitProgramIsRefused) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer = nn::make_matmul("eng_split_fc", 2048, 1000, 1);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  ASSERT_GT(prog.weight_groups, 1);
  const LayerData data = make_data(layer, 9);
  EXPECT_EQ(simulate(prog, cfg, data.weights, data.input).output,
            nn_golden(layer, data));
  try {
    sim::simulate_layer_stats(prog, cfg);
    ADD_FAILURE() << "a split program was timed as one part";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("eng_split_fc"), std::string::npos)
        << e.what();
  }
  // The slice compiles to a single-group program that simulates.
  const nn::Layer part =
      compiler::weight_group_slice(layer, prog.weight_groups);
  const compiler::LayerProgram part_prog =
      compiler::compile_layer(part, cfg, Objective::Performance, 4'000);
  ASSERT_EQ(part_prog.weight_groups, 1);
  EXPECT_EQ(sim::simulate_layer_stats(part_prog, cfg).stats.valid_maccs,
            part.macs());
}

// run() returns max |acc| of what it wrote, and overwrites an output that
// already has the layer's shape: each fan-out task zeroes (acc_t sweeps) or
// stores (int32 tiles) its own channel range, and nothing is zeroed up
// front. Small operands take the tiles on an AVX2 host, full-range ones the
// acc_t sweeps; both at jobs 1 and 4, with SIMD on and off.
TEST(SimEngine, RunReportsMaxAbsAndOverwritesItsOutput) {
  ThreadPool four(4);
  for (int seed = 0; seed < 24; ++seed) {
    const SweepCase c = sweep_case(seed);
    const sim::CachedLayerSim runner(c.prog, c.cfg);
    for (const std::int16_t magnitude : {std::int16_t{7}, std::int16_t{32767}}) {
      LayerData data = make_data(c.layer, static_cast<std::uint64_t>(seed));
      Rng rng(static_cast<std::uint64_t>(seed) + 501);
      data.input.fill_random(rng, magnitude);
      data.weights.fill_random(rng, magnitude);
      const nn::AccTensor golden = nn_golden(c.layer, data);
      for (const bool vector : {true, false}) {
        simd::set_enabled(vector);
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
          nn::AccTensor out(golden.dims());
          std::fill(out.data(), out.data() + out.size(), acc_t{-12345});
          EXPECT_EQ(runner.run(data.weights, data.input, out, pool),
                    max_abs_of(golden))
              << c.layer.name << " magnitude " << magnitude;
          EXPECT_EQ(out, golden) << c.layer.name << " magnitude " << magnitude;
        }
      }
      simd::set_enabled(true);
    }
  }
}

TEST(SimEngine, SharedPoolAndTransientPoolAgree) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer = nn::make_conv("eng_pool_conv", 16, 14, 14, 32, 3,
                                        /*stride=*/1, /*pad=*/1);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  ASSERT_EQ(prog.weight_groups, 1);
  const LayerData data = make_data(layer, 99);

  const sim::CachedLayerSim runner(prog, cfg);
  nn::AccTensor shared, serial, transient;
  runner.run(data.weights, data.input, shared,
             &compiler::CompilerSession::global().pool());
  runner.run(data.weights, data.input, serial, nullptr);
  {
    ThreadPool pool(3);
    runner.run(data.weights, data.input, transient, &pool);
  }
  EXPECT_EQ(shared, serial);
  EXPECT_EQ(transient, serial);
}

TEST(SimEngine, HardwareEfficiencyGuardsDegenerateInputs) {
  sim::SimStats st;
  EXPECT_EQ(st.hardware_efficiency(1200), 0.0);  // cycles == 0
  st.cycles = 100;
  st.valid_maccs = 50;
  EXPECT_EQ(st.hardware_efficiency(0), 0.0);  // tpes == 0
  EXPECT_EQ(st.hardware_efficiency(-3), 0.0);
  EXPECT_DOUBLE_EQ(st.hardware_efficiency(1), 0.5);
}

TEST(SimEngine, MaxPaddedMacsErrorNamesTheCounts) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const nn::Layer layer = nn::make_matmul("eng_mm_limit", 32, 32, 32);
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, Objective::Performance, 4'000);
  sim::SimOptions opt;
  opt.max_padded_macs = 1;
  try {
    const sim::CachedLayerSim runner(prog, cfg, opt);
    FAIL() << "expected ftdl::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(prog.mapping.padded_macs())),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("max_padded_macs = 1"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace ftdl
