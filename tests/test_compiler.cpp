// Tests for the FTDL compiler: workload lowering, mapping algebra,
// adjacency, the analytical model and the mapping search.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "arch/overlay_config.h"
#include "common/alloc_stats.h"
#include "common/error.h"
#include "common/math_util.h"
#include "compiler/adjacency.h"
#include "compiler/codegen.h"
#include "compiler/scheduler.h"
#include "compiler/search.h"
#include "fpga/device_zoo.h"
#include "nn/model_zoo.h"

namespace ftdl::compiler {
namespace {

using arch::OverlayConfig;
using arch::paper_config;

nn::Layer example_conv() {
  // inception_4e/3x3-like layer: M=320, N=160, E=F=14, R=S=3.
  return nn::make_conv("conv", 160, 14, 14, 320, 3, 1, 1);
}

// ---- workload lowering ------------------------------------------------------

TEST(Workload, MatMulLowering) {
  const Workload w = Workload::from_layer(nn::make_matmul("fc", 1024, 1000, 8));
  EXPECT_EQ(w.kind, WorkloadKind::MatMul);
  ASSERT_EQ(w.k(), 3);
  EXPECT_EQ(w.loops[w.loop_index('M')].trip, 1024);
  EXPECT_TRUE(w.loops[w.loop_index('M')].is_reduction);
  EXPECT_TRUE(w.loops[w.loop_index('M')].indexes_weight);
  EXPECT_TRUE(w.loops[w.loop_index('M')].indexes_act);
  EXPECT_FALSE(w.loops[w.loop_index('N')].indexes_act);
  EXPECT_FALSE(w.loops[w.loop_index('P')].indexes_weight);
  EXPECT_EQ(w.macs(), 1024LL * 1000 * 8);
  EXPECT_EQ(w.weight_words(), 1024LL * 1000);
}

TEST(Workload, ConvLowering) {
  const Workload w = Workload::from_layer(example_conv());
  EXPECT_EQ(w.kind, WorkloadKind::Conv);
  ASSERT_EQ(w.k(), 6);
  EXPECT_EQ(w.loops[w.loop_index('M')].trip, 320);
  EXPECT_EQ(w.loops[w.loop_index('E')].trip, 14);
  EXPECT_TRUE(w.loops[w.loop_index('N')].is_reduction);
  EXPECT_TRUE(w.loops[w.loop_index('R')].is_reduction);
  EXPECT_FALSE(w.loops[w.loop_index('M')].indexes_act);
  EXPECT_FALSE(w.loops[w.loop_index('E')].indexes_weight);
  EXPECT_EQ(w.weight_words(), 320LL * 160 * 3 * 3);
}

TEST(Workload, HostLayersRejected) {
  EXPECT_THROW(Workload::from_layer(nn::make_ewop("e", 10)), ConfigError);
  EXPECT_THROW(Workload::from_layer(nn::make_pool("p", 8, 8, 8, 2, 2)),
               ConfigError);
}

// ---- mapping algebra --------------------------------------------------------

TEST(Mapping, ProductsAndCoverage) {
  const Workload w = Workload::from_layer(nn::make_matmul("fc", 12, 10, 8));
  Mapping m = Mapping::identity(w.k());
  m.tile(HwLevel::D1, w.loop_index('M')) = 4;
  m.tile(HwLevel::T, w.loop_index('M')) = 3;
  m.tile(HwLevel::D2, w.loop_index('N')) = 5;
  m.tile(HwLevel::X, w.loop_index('N')) = 2;
  m.tile(HwLevel::T, w.loop_index('P')) = 8;

  EXPECT_EQ(m.level_product(HwLevel::D1), 4);
  EXPECT_EQ(m.level_product(HwLevel::T), 24);
  EXPECT_EQ(m.loop_coverage(w.loop_index('M')), 12);
  EXPECT_EQ(m.temporal_extent(w.loop_index('M')), 3);
  EXPECT_EQ(m.spatial_extent(w.loop_index('M')), 4);
  EXPECT_EQ(m.padded_macs(), 12LL * 10 * 8);
}

TEST(Mapping, LogicalConstraints) {
  const Workload w = Workload::from_layer(nn::make_matmul("fc", 12, 10, 8));
  Mapping m = Mapping::identity(w.k());
  // Nothing covered yet: coverage 1 < trips.
  EXPECT_FALSE(satisfies_logical_constraints(m, w, 12, 5, 20));
  m.tile(HwLevel::D1, w.loop_index('M')) = 12;
  m.tile(HwLevel::D2, w.loop_index('N')) = 5;
  m.tile(HwLevel::X, w.loop_index('N')) = 2;
  m.tile(HwLevel::T, w.loop_index('P')) = 8;
  EXPECT_TRUE(satisfies_logical_constraints(m, w, 12, 5, 20));
  // Eqn. 10 violation: spatial product exceeds the extent.
  EXPECT_FALSE(satisfies_logical_constraints(m, w, 11, 5, 20));
  // Padding is allowed: coverage 16 >= 12 is fine.
  m.tile(HwLevel::X, w.loop_index('M')) = 2;
  m.tile(HwLevel::D1, w.loop_index('M')) = 8;
  EXPECT_TRUE(satisfies_logical_constraints(m, w, 12, 5, 20));
}

// ---- adjacency (Fig. 5) -----------------------------------------------------

TEST(Adjacency, MatMulMatrix) {
  const Workload w = Workload::from_layer(nn::make_matmul("fc", 64, 32, 16));
  const int m = w.loop_index('M'), n = w.loop_index('N'), p = w.loop_index('P');
  // D1: only the reduction loop M.
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D1, m));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D1, n));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D1, p));
  // D2: only the weight-only loop N (shared ActBUS).
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D2, m));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D2, n));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D2, p));
  // D3, X, T: everything.
  for (int i : {m, n, p}) {
    EXPECT_TRUE(adjacency_allows(w, HwLevel::D3, i));
    EXPECT_TRUE(adjacency_allows(w, HwLevel::X, i));
    EXPECT_TRUE(adjacency_allows(w, HwLevel::T, i));
  }
  // L: activation-indexing loops only (M, P).
  EXPECT_TRUE(adjacency_allows(w, HwLevel::L, m));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::L, n));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::L, p));
}

TEST(Adjacency, ConvMatrix) {
  const Workload w = Workload::from_layer(example_conv());
  const int m = w.loop_index('M'), n = w.loop_index('N');
  const int r = w.loop_index('R'), e = w.loop_index('E');
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D1, m));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D1, n));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D1, r));
  EXPECT_TRUE(adjacency_allows(w, HwLevel::D2, m));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D2, n));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::D2, e));
  EXPECT_FALSE(adjacency_allows(w, HwLevel::L, m));  // M does not index acts
  EXPECT_TRUE(adjacency_allows(w, HwLevel::L, e));
}

TEST(Adjacency, HostReductionDetected) {
  const Workload w = Workload::from_layer(example_conv());
  Mapping m = Mapping::identity(w.k());
  EXPECT_FALSE(needs_host_reduction(m, w));
  m.tile(HwLevel::D3, w.loop_index('N')) = 2;  // split reduction across rows
  EXPECT_TRUE(needs_host_reduction(m, w));
}

// ---- analytical model -------------------------------------------------------

/// A hand-built, fully feasible mapping of a small MM on the paper config:
/// M=96 -> D1=12 x T=8; N=100 -> D2=5 x D3=20; P=64 -> T=4 x L=16.
struct SmallMm {
  Workload w = Workload::from_layer(nn::make_matmul("fc", 96, 100, 64));
  Mapping m = Mapping::identity(3);
  OverlayConfig cfg = paper_config();

  SmallMm() {
    m.tile(HwLevel::D1, w.loop_index('M')) = 12;
    m.tile(HwLevel::T, w.loop_index('M')) = 8;
    m.tile(HwLevel::D2, w.loop_index('N')) = 5;
    m.tile(HwLevel::D3, w.loop_index('N')) = 20;
    m.tile(HwLevel::T, w.loop_index('P')) = 4;
    m.tile(HwLevel::L, w.loop_index('P')) = 16;
  }
};

TEST(AnalyticalModel, Eqn7ComputationTime) {
  SmallMm s;
  const Performance p = evaluate(s.w, s.m, s.cfg);
  // X = 1, L = 16, T = 8 * 4 = 32; C_comp = 1 * (16*32 + (12+6)).
  EXPECT_EQ(p.x, 1);
  EXPECT_EQ(p.l, 16);
  EXPECT_EQ(p.t, 32);
  EXPECT_EQ(p.c_comp, 16 * 32 + 18);
  EXPECT_TRUE(p.weight_reuse_ok);  // TT_P = 4 >= 2
}

TEST(AnalyticalModel, PerfectMappingHasUnitEwbuf) {
  SmallMm s;
  const Performance p = evaluate(s.w, s.m, s.cfg);
  // No loop is split spatially except weight loops -> no duplication.
  EXPECT_NEAR(p.e_wbuf, 1.0, 1e-12);
  EXPECT_TRUE(p.buffers_fit);
  // WBUF tile: temporal weight extents = 8 (M) x 1 (N) = 8 words.
  EXPECT_EQ(p.buffers.wbuf_words_per_tpe, 8);
  // ActBUF tile: TT_M * TT_P = 8 * 4 = 32 <= 64 usable words.
  EXPECT_EQ(p.buffers.actbuf_words_per_tpe, 32);
  // PSum tile: (TT*TL) over non-reduction loops = 1 (N) * 64 (P).
  EXPECT_EQ(p.buffers.psum_words_per_superblock, 64);
}

TEST(AnalyticalModel, DuplicationLowersEwbuf) {
  // Split the act-only loop P across D3: every row stores the same weights.
  Workload w = Workload::from_layer(nn::make_matmul("fc", 96, 5, 40));
  OverlayConfig cfg = paper_config();
  Mapping m = Mapping::identity(3);
  m.tile(HwLevel::D1, w.loop_index('M')) = 12;
  m.tile(HwLevel::T, w.loop_index('M')) = 8;
  m.tile(HwLevel::D2, w.loop_index('N')) = 5;
  m.tile(HwLevel::D3, w.loop_index('P')) = 20;
  m.tile(HwLevel::T, w.loop_index('P')) = 2;
  const Performance p = evaluate(w, m, cfg);
  EXPECT_NEAR(p.e_wbuf, 1.0 / 20.0, 1e-12);  // 20x duplication
}

TEST(AnalyticalModel, WeightReusePenaltyWithoutActOnlyInnerLoop) {
  // All of P spatial: no act-only loop remains in T -> the BRAM weight port
  // cannot feed the DSP every CLKh cycle.
  Workload w = Workload::from_layer(nn::make_matmul("fc", 96, 5, 20));
  OverlayConfig cfg = paper_config();
  Mapping m = Mapping::identity(3);
  m.tile(HwLevel::D1, w.loop_index('M')) = 12;
  m.tile(HwLevel::T, w.loop_index('M')) = 8;
  m.tile(HwLevel::D2, w.loop_index('N')) = 5;
  m.tile(HwLevel::D3, w.loop_index('P')) = 20;
  const Performance p = evaluate(w, m, cfg);
  EXPECT_FALSE(p.weight_reuse_ok);
  EXPECT_EQ(p.c_comp, 1 * (2 * 8 + 18));  // burst stretched 2x

  cfg.double_pump = false;  // single clock: no reuse requirement
  const Performance p2 = evaluate(w, m, cfg);
  EXPECT_TRUE(p2.weight_reuse_ok);
}

TEST(AnalyticalModel, MultiPassDoublesPsumTraffic) {
  Workload w = Workload::from_layer(nn::make_matmul("fc", 192, 100, 64));
  OverlayConfig cfg = paper_config();
  Mapping single = Mapping::identity(3);
  single.tile(HwLevel::D1, w.loop_index('M')) = 12;
  single.tile(HwLevel::T, w.loop_index('M')) = 16;
  single.tile(HwLevel::D2, w.loop_index('N')) = 5;
  single.tile(HwLevel::D3, w.loop_index('N')) = 20;
  single.tile(HwLevel::T, w.loop_index('P')) = 64;

  Mapping multi = single;
  multi.tile(HwLevel::T, w.loop_index('M')) = 8;
  multi.tile(HwLevel::X, w.loop_index('M')) = 2;  // reduction split at X

  const Performance ps = evaluate(w, single, cfg);
  const Performance pm = evaluate(w, multi, cfg);
  // Same psum tile, but two passes with store+reload = 4x bus cycles
  // (2x traffic x 2 X-iterations).
  EXPECT_EQ(pm.c_psum_bus, 4 * ps.c_psum_bus);
}

TEST(AnalyticalModel, ExeIsMaxOfChannels) {
  SmallMm s;
  const Performance p = evaluate(s.w, s.m, s.cfg);
  EXPECT_EQ(p.c_exe, std::max({p.c_comp, p.c_act_bus, p.c_psum_bus,
                               p.c_dram_rd, p.c_dram_wr}));
  EXPECT_GT(p.hardware_efficiency, 0.0);
  EXPECT_LE(p.hardware_efficiency, 1.0);
}

TEST(AnalyticalModel, BalanceScoreNormalization) {
  SmallMm s;
  const Performance p = evaluate(s.w, s.m, s.cfg);
  const std::int64_t cmin = min_execution_cycles(s.w, s.cfg);
  const double score = balance_score(p, cmin);
  // Score = Cmin/Cexe + E_WBUF, both terms in (0, 1].
  EXPECT_GT(score, 0.0);
  EXPECT_LE(score, 2.0 + 1e-9);
}

// ---- search -----------------------------------------------------------------

TEST(Search, FindsFeasibleMappingForConv) {
  const Workload w = Workload::from_layer(example_conv());
  SearchOptions opt;
  opt.max_candidates = 20'000;
  opt.top_k = 10;
  const SearchResult r = search_mappings(w, paper_config(), opt);
  ASSERT_FALSE(r.top.empty());
  EXPECT_GT(r.feasible, 0);
  for (const Solution& s : r.top) {
    EXPECT_TRUE(s.perf.feasible);
    EXPECT_TRUE(satisfies_adjacency(s.mapping, w));
    EXPECT_TRUE(satisfies_logical_constraints(s.mapping, w, 12, 5, 20));
  }
  // Sorted best-first.
  for (std::size_t i = 1; i < r.top.size(); ++i) {
    EXPECT_GE(r.top[i - 1].score, r.top[i].score);
  }
}

TEST(Search, ConvEfficiencyIsHigh) {
  // The compiler claim: >80% hardware efficiency on typical CONV layers.
  const Workload w = Workload::from_layer(example_conv());
  const Solution s = best_mapping(w, paper_config(), Objective::Performance,
                                  50'000);
  EXPECT_GT(s.perf.hardware_efficiency, 0.70) << s.mapping.to_string(w);
}

TEST(Search, BalanceObjectivePrefersHighEwbuf) {
  const Workload w = Workload::from_layer(example_conv());
  const Solution perf =
      best_mapping(w, paper_config(), Objective::Performance, 30'000);
  const Solution bal =
      best_mapping(w, paper_config(), Objective::Balance, 30'000);
  EXPECT_GE(bal.perf.e_wbuf, perf.perf.e_wbuf - 1e-9);
  // Balance trades at most a modest slowdown for the WBUF savings.
  EXPECT_LE(double(bal.perf.c_exe), 3.0 * double(perf.perf.c_exe));
}

TEST(Search, DeterministicForFixedSeed) {
  const Workload w = Workload::from_layer(example_conv());
  SearchOptions opt;
  opt.max_candidates = 5'000;
  const SearchResult a = search_mappings(w, paper_config(), opt);
  const SearchResult b = search_mappings(w, paper_config(), opt);
  ASSERT_FALSE(a.top.empty());
  EXPECT_EQ(a.top.front().perf.c_exe, b.top.front().perf.c_exe);
  EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(Search, TinyWorkloadDoesNotHang) {
  const Workload w = Workload::from_layer(nn::make_matmul("t", 2, 2, 2));
  SearchOptions opt;
  opt.max_candidates = 100'000;  // far more than the space size
  const SearchResult r = search_mappings(w, paper_config(), opt);
  EXPECT_FALSE(r.top.empty());
}

TEST(Search, MatMulLayerSchedules) {
  const Workload w =
      Workload::from_layer(nn::make_matmul("fc", 1024, 1000, 1));
  const Solution s = best_mapping(w, paper_config());
  EXPECT_TRUE(s.perf.feasible);
  // P=1 (batch 1 FC): weight reuse is impossible, the penalty must appear.
  EXPECT_FALSE(s.perf.weight_reuse_ok);
}

// The search is a fixed trajectory: for a given workload, config and
// options it visits the same candidates in the same order, draws the same
// random numbers and makes the same dedup and budget decisions. These
// goldens pin that trajectory (counters and the winning mapping) for one
// workload of each shape class at budget 8000 on the Table II overlay, so
// any change to the search's speed must leave every schedule unchanged.
TEST(Search, GoldenTrajectoryAtBudget8000) {
  struct Golden {
    nn::Layer layer;
    std::int64_t evaluated, feasible;
    bool dfs_exhausted;
    std::int64_t refinement_improvements;
    std::vector<std::vector<std::int64_t>> tiles;  ///< D1, D2, D3, X, L, T
    std::int64_t c_exe;
  };
  const Golden goldens[] = {
      {nn::make_conv("stem7x7s2", 3, 224, 224, 64, 7, 2, 3), 8000, 432, false,
       0,
       {{1, 3, 1, 1, 2, 2}, {5, 1, 1, 1, 1, 1}, {1, 1, 1, 20, 1, 1},
        {1, 1, 13, 1, 1, 2}, {1, 1, 9, 1, 1, 1}, {13, 1, 1, 6, 4, 2}},
       182520},
      {nn::make_conv("conv1x1", 256, 56, 56, 64, 1, 1, 0), 8000, 312, false, 0,
       {{1, 12, 1, 1, 1, 1}, {5, 1, 1, 1, 1, 1}, {1, 1, 3, 6, 1, 1},
        {1, 1, 4, 1, 1, 1}, {1, 22, 5, 5, 1, 1}, {13, 1, 1, 2, 1, 1}},
       57272},
      {nn::make_conv("conv3x3", 128, 28, 28, 128, 3, 1, 1), 8000, 149, false,
       0,
       {{1, 12, 1, 1, 1, 1}, {5, 1, 1, 1, 1, 1}, {1, 1, 1, 6, 1, 3},
        {1, 1, 28, 1, 1, 1}, {1, 11, 1, 1, 1, 1}, {26, 1, 1, 5, 3, 1}},
       120624},
      {nn::make_depthwise("dw3x3", 256, 28, 28, 3, 1, 1), 8000, 1321, false, 0,
       {{1, 1, 1, 1, 3}, {1, 1, 1, 1, 1}, {20, 1, 1, 1, 1}, {1, 1, 14, 1, 1},
        {13, 1, 1, 1, 1}, {1, 28, 2, 3, 1}},
       101920},
      {nn::make_matmul("fc", 1024, 1000, 1), 8000, 162, true, 0,
       {{12, 1, 1}, {1, 5, 1}, {1, 20, 1}, {1, 1, 1}, {86, 1, 1}, {1, 10, 1}},
       1738},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.layer.name);
    SearchOptions opt;
    opt.max_candidates = 8'000;
    const SearchResult r =
        search_mappings(Workload::from_layer(g.layer), paper_config(), opt);
    EXPECT_EQ(r.evaluated, g.evaluated);
    EXPECT_EQ(r.feasible, g.feasible);
    EXPECT_EQ(r.dfs_exhausted, g.dfs_exhausted);
    EXPECT_EQ(r.refinement_improvements, g.refinement_improvements);
    ASSERT_EQ(r.top.size(), 1u);
    const Mapping& m = r.best().mapping;
    for (HwLevel level : kAllLevels) {
      const auto tiles = m.level(level);
      EXPECT_EQ(std::vector<std::int64_t>(tiles.begin(), tiles.end()),
                g.tiles[static_cast<std::size_t>(level)])
          << to_string(level);
    }
    EXPECT_EQ(r.best().perf.c_exe, g.c_exe);
  }
}

// A search over a layer with many large, divisor-rich trip counts asks for
// more distinct candidate lists (about 260 at budget 20000) than a search's
// candidate-list memo first has room for, so the memo grows mid-search.
// The weights cannot fit, so every candidate is infeasible; keeping them
// pins the trajectory through the top 8 by score (C_exe, then the D1, D2,
// D3, X, L and T tiles).
TEST(Search, GoldenTrajectoryWhileTheCandidateMemoGrows) {
  SearchOptions opt;
  opt.max_candidates = 20'000;
  opt.top_k = 8;
  opt.keep_infeasible = true;
  const nn::Layer layer = nn::make_conv("wide", 5040, 84, 90, 4620, 5, 1, 2);
  const SearchResult r =
      search_mappings(Workload::from_layer(layer), paper_config(), opt);
  EXPECT_EQ(r.evaluated, 20'000);
  EXPECT_EQ(r.feasible, 0);
  EXPECT_FALSE(r.dfs_exhausted);
  EXPECT_EQ(r.refinement_improvements, 0);
  const std::vector<std::int64_t> golden_c_exe = {
      3667356018, 3667356018, 3667356018, 3667356018,
      3667356018, 3667356018, 3667356090, 3667356090};
  const std::vector<std::string> golden_tiles = {
      "1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
      "1,1,1,1,1,1 1,1,1,1,1,1 924,21,84,90,5,5",
      "1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
      "1,1,1,1,1,1 1,3,1,1,1,1 924,7,84,90,5,5",
      "1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
      "1,1,1,1,1,1 1,1,1,1,1,5 924,21,84,90,5,1",
      "1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
      "1,1,1,1,1,1 1,1,1,1,5,1 924,21,84,90,1,5",
      "1,12,1,1,1,1 5,1,1,1,1,1 1,1,4,1,5,1 "
      "1,1,1,1,1,1 1,1,1,1,1,1 924,420,21,90,1,5",
      "1,12,1,1,1,1 5,1,1,1,1,1 4,1,1,1,5,1 "
      "1,1,1,1,1,1 1,1,1,1,1,1 231,420,84,90,1,5",
      "1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
      "1,1,1,1,1,5 1,1,1,1,5,1 924,21,84,90,1,1",
      "1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
      "1,1,1,1,5,1 1,1,12,1,1,1 924,21,7,90,1,5",
  };
  std::vector<std::int64_t> c_exe;
  std::vector<std::string> tiles;
  for (const Solution& s : r.top) {
    c_exe.push_back(s.perf.c_exe);
    std::string row;
    for (HwLevel level : kAllLevels) {
      const char* sep = row.empty() ? "" : " ";
      for (std::int64_t v : s.mapping.level(level)) {
        row += sep + std::to_string(v);
        sep = ",";
      }
    }
    tiles.push_back(row);
  }
  EXPECT_EQ(c_exe, golden_c_exe);
  EXPECT_EQ(tiles, golden_tiles);
}

// The search's heap traffic is a handful of per-call buffers (the seen-set,
// the top-k heap, the result), independent of how many candidates it
// evaluates: candidate lists, mappings and hashes all stay on the stack.
TEST(Search, AllocationCountIndependentOfBudget) {
  if (!alloc_stats::hook_installed()) {
    GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
  }
  const Workload w = Workload::from_layer(example_conv());
  auto allocs_of = [&w](std::int64_t budget) {
    SearchOptions opt;
    opt.max_candidates = budget;
    const std::int64_t before = alloc_stats::armed();
    {
      const alloc_stats::ArmScope arm;
      const SearchResult r = search_mappings(w, paper_config(), opt);
      EXPECT_EQ(r.evaluated, budget);
    }
    return alloc_stats::armed() - before;
  };
  // Fill this thread's tile_candidates memo: its first sight of a trip
  // count allocates once, for the life of the thread.
  allocs_of(2'000);
  allocs_of(32'000);

  constexpr std::int64_t kMaxAllocsPerSearch = 16;
  EXPECT_LE(allocs_of(2'000), kMaxAllocsPerSearch);
  EXPECT_LE(allocs_of(32'000), kMaxAllocsPerSearch);
}

// ---- codegen ----------------------------------------------------------------

TEST(Codegen, StreamMatchesMapping) {
  const nn::Layer layer = example_conv();
  const LayerProgram prog = compile_layer(layer, paper_config(),
                                          Objective::Performance, 20'000);
  ASSERT_GE(prog.row_stream.size(), 8u);
  // The three SetLoop instructions carry X, L, T of the mapping.
  EXPECT_EQ(prog.row_stream[0].imm, static_cast<std::uint64_t>(prog.perf.x));
  EXPECT_EQ(prog.row_stream[1].imm, static_cast<std::uint64_t>(prog.perf.l));
  EXPECT_EQ(prog.row_stream[2].imm, static_cast<std::uint64_t>(prog.perf.t));
  EXPECT_EQ(prog.row_stream.back().op, arch::Opcode::Barrier);
  // Encoded stream decodes back to the same instructions.
  const auto words = prog.encoded_stream();
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(arch::decode(words[i]), prog.row_stream[i]);
  }
}

// ---- network scheduling -----------------------------------------------------

TEST(Scheduler, SmallNetworkEndToEnd) {
  nn::Network net("tiny");
  net.add(nn::make_conv("c1", 16, 28, 28, 32, 3, 1, 1));
  net.add(nn::make_pool("p1", 32, 28, 28, 2, 2));
  net.add(nn::make_conv("c2", 32, 14, 14, 64, 3, 1, 1));
  net.add(nn::make_matmul("fc", 64 * 14 * 14, 10, 1));

  const NetworkSchedule s =
      schedule_network(net, paper_config(), Objective::Performance, 10'000);
  EXPECT_EQ(s.layers.size(), 3u);  // pool excluded
  EXPECT_GT(s.total_cycles, 0);
  EXPECT_GT(s.fps(), 0.0);
  EXPECT_GT(s.hardware_efficiency, 0.0);
  EXPECT_GT(s.host_ewop_ops, 0);
  EXPECT_EQ(s.overlay_macs,
            net.layers()[0].macs() + net.layers()[2].macs() +
                net.layers()[3].macs());
}

TEST(Scheduler, RepeatedShapesShareOneSearch) {
  nn::Network net("repeat");
  for (int i = 0; i < 4; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    net.add(nn::make_conv(name, 32, 14, 14, 32, 3, 1, 1));
  }
  const NetworkSchedule s =
      schedule_network(net, paper_config(), Objective::Performance, 10'000);
  ASSERT_EQ(s.layers.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(s.layers[i].perf.c_exe, s.layers[0].perf.c_exe);
  }
}

TEST(Scheduler, HwConfigSearchKeepsTpeBudget) {
  nn::Network net("tiny");
  net.add(nn::make_conv("c1", 64, 14, 14, 64, 3, 1, 1));
  const auto choice = find_best_hw_config(net, paper_config(),
                                          fpga::ultrascale_vu125(), 1200,
                                          3'000);
  EXPECT_EQ(choice.config.tpes(), 1200);
  EXPECT_LE(choice.config.d2, 5);
  EXPECT_LE(choice.config.d1 * choice.config.d3, 240);
  EXPECT_GT(choice.schedule.hardware_efficiency, 0.0);
}

TEST(Search, RefinementNeverHurtsAndOftenHelps) {
  const Workload w = Workload::from_layer(example_conv());
  SearchOptions base;
  base.max_candidates = 10'000;
  base.refine = false;
  const SearchResult plain = search_mappings(w, paper_config(), base);

  SearchOptions refined = base;
  refined.refine = true;
  const SearchResult better = search_mappings(w, paper_config(), refined);

  ASSERT_FALSE(plain.top.empty());
  ASSERT_FALSE(better.top.empty());
  EXPECT_GE(better.top.front().score, plain.top.front().score);
  EXPECT_GE(better.refinement_improvements, 0);
  EXPECT_EQ(plain.refinement_improvements, 0);
}

// The search evaluates candidates without re-checking their legality: the
// canonical fills, the DFS and the sampler build them legal. Keeping every
// candidate (infeasible ones too, no refinement, a heap as large as the
// budget) exposes each mapping the generators produced; all must satisfy
// the adjacency matrix and Eqns. 10-11, and the feasible count must match
// the kept mappings whose buffers fit.
TEST(Search, GeneratorsEmitOnlyLegalMappings) {
  const nn::Layer layers[] = {
      nn::make_conv("stem7x7s2", 3, 224, 224, 64, 7, 2, 3),
      nn::make_conv("conv1x1", 256, 28, 28, 128, 1, 1, 0),
      nn::make_conv("conv3x3", 96, 28, 28, 128, 3, 1, 1),
      nn::make_conv("conv5x5", 16, 28, 28, 32, 5, 1, 2),
      nn::make_depthwise("dw3x3", 256, 28, 28, 3, 1, 1),
      nn::make_matmul("fc", 1024, 1000, 1),
      nn::make_conv2("seqcnn_w4", 128, 75, 1, 100, 4, 1, 1, 0),
  };
  OverlayConfig small = paper_config();
  small.d1 = 4;
  small.d2 = 2;
  small.d3 = 3;
  small.validate();
  for (const OverlayConfig& cfg : {paper_config(), small}) {
    for (const nn::Layer& layer : layers) {
      SCOPED_TRACE(layer.name + " on " + cfg.to_string());
      const Workload w = Workload::from_layer(layer);
      SearchOptions opt;
      opt.max_candidates = 4'000;
      opt.top_k = 4'000;
      opt.keep_infeasible = true;
      opt.refine = false;
      const SearchResult r = search_mappings(w, cfg, opt);
      ASSERT_GT(r.evaluated, 0);
      ASSERT_EQ(static_cast<std::int64_t>(r.top.size()), r.evaluated);
      std::int64_t fitting = 0;
      for (const Solution& s : r.top) {
        ASSERT_TRUE(satisfies_adjacency(s.mapping, w))
            << s.mapping.to_string(w);
        ASSERT_TRUE(
            satisfies_logical_constraints(s.mapping, w, cfg.d1, cfg.d2, cfg.d3))
            << s.mapping.to_string(w);
        EXPECT_EQ(s.perf.feasible, buffer_usage(w, s.mapping).fits(cfg));
        if (s.perf.feasible) ++fitting;
      }
      EXPECT_EQ(fitting, r.feasible);
    }
  }
}

// A split program's parts tile its layer's weight-only extent in channel
// order: weight_groups counts them, every part but the tail maps the
// program's own slice (weight_group_slice's extent), and the tail, present
// exactly when that extent does not divide the layer's, maps the remainder
// as one part and differs from the layer in that extent alone.
TEST(Codegen, WeightGroupLayersTileTheExtent) {
  OverlayConfig cfg = paper_config();
  cfg.d1 = 4;
  cfg.d2 = 2;
  cfg.d3 = 3;
  cfg.wbuf_words = 256;  // small WBUF: every layer below splits
  cfg.validate();
  const nn::Layer layers[] = {
      nn::make_conv("wg_conv", 16, 6, 6, 51, 3, 1, 1),
      nn::make_matmul("wg_fc", 300, 70, 1),
      nn::make_matmul("wg_fc_even", 256, 64, 1),
      nn::make_depthwise("wg_dw", 301, 5, 5, 3, 1, 1),
  };
  const auto trips = [](const Workload& w) {
    std::vector<std::int64_t> t;
    for (const WorkloadLoop& loop : w.loops) t.push_back(loop.trip);
    return t;
  };
  const auto geometry = [](const nn::Layer& l) {
    return std::make_tuple(l.kind, l.in_c, l.in_h, l.in_w, l.out_c, l.kh, l.kw,
                           l.stride, l.pad, l.mm_m, l.mm_n, l.mm_p);
  };
  int tails = 0, even = 0;
  for (const nn::Layer& layer : layers) {
    SCOPED_TRACE(layer.name);
    const LayerProgram prog =
        compile_layer(layer, cfg, Objective::Performance, 2'000);
    ASSERT_GT(prog.weight_groups, 1);
    const int extent = weight_only_extent(layer);
    const nn::Layer slice = weight_group_slice(layer, prog.weight_groups);
    const int size = weight_only_extent(slice);
    EXPECT_EQ(trips(prog.workload), trips(Workload::from_layer(slice)));
    EXPECT_EQ(prog.weight_groups, ceil_div(extent, size));
    ASSERT_EQ(prog.tail != nullptr, extent % size != 0);
    if (!prog.tail) {
      ++even;
      EXPECT_EQ(prog.full_size_parts() * size, extent);
      continue;
    }
    ++tails;
    const LayerProgram& tail = *prog.tail;
    EXPECT_EQ(tail.weight_groups, 1);
    EXPECT_EQ(tail.tail, nullptr);
    EXPECT_EQ(prog.full_size_parts() * size + weight_only_extent(tail.layer),
              extent);
    EXPECT_EQ(geometry(with_weight_only_extent(tail.layer, extent)),
              geometry(layer));
    EXPECT_EQ(prog.total_cycles(),
              (prog.perf.c_exe + prog.reload_cycles_per_group) *
                      (prog.weight_groups - 1) +
                  tail.total_cycles());
  }
  EXPECT_GT(tails, 0);
  EXPECT_GT(even, 0);

  // A depthwise layer's output channels follow its input channels.
  const nn::Layer dw = with_weight_only_extent(layers[3], 7);
  EXPECT_EQ(dw.in_c, 7);
  EXPECT_EQ(dw.out_c, 7);
}

TEST(Codegen, WeightReloadChargedWhenEnabled) {
  // A big FC forces weight groups; with charge_weight_reload the total
  // cycles grow by the DRAM streaming time of each group's weights.
  const nn::Layer fc = nn::make_matmul("big", 2048, 4096, 2);
  OverlayConfig base = paper_config();
  const LayerProgram free_reload =
      compile_layer(fc, base, Objective::Performance, 5'000);
  ASSERT_GT(free_reload.weight_groups, 1);
  EXPECT_EQ(free_reload.reload_cycles_per_group, 0);

  OverlayConfig charged_cfg = base;
  charged_cfg.charge_weight_reload = true;
  const LayerProgram charged =
      compile_layer(fc, charged_cfg, Objective::Performance, 5'000);
  EXPECT_GT(charged.reload_cycles_per_group, 0);
  EXPECT_GT(charged.total_cycles(),
            charged.perf.c_exe * charged.weight_groups);
  // Reload time matches the group weight volume at the DRAM bandwidth.
  const double bytes = 2.0 * double(charged.perf.buffers.wbuf_words_per_tpe) *
                       charged_cfg.tpes();
  EXPECT_NEAR(double(charged.reload_cycles_per_group),
              bytes / charged_cfg.dram_rd_bytes_per_cycle(), 1.0);
}

// compile_layer doubles the weight-group count, then tries the one-channel
// slice last when doubling overshoots the weight-only extent. On a 12-TPE
// overlay one output channel of a 1024-channel 3x3 conv (9216 weight words,
// 768 per TPE) fits the 1024-word WBUF and two channels do not, so the conv
// needs exactly out_c groups whether or not out_c is a power of two.
TEST(Codegen, OneChannelSliceWhenExtentIsNotAPowerOfTwo) {
  OverlayConfig cfg = paper_config();
  cfg.d1 = 4;
  cfg.d2 = 1;
  cfg.d3 = 3;
  for (int out_c : {1, 3, 4, 5, 6, 8, 12, 16}) {
    SCOPED_TRACE(out_c);
    const LayerProgram prog =
        compile_layer(nn::make_conv("edge", 1024, 7, 7, out_c, 3, 1, 1), cfg,
                      Objective::Performance, 2'000);
    EXPECT_EQ(prog.weight_groups, out_c);
    EXPECT_TRUE(prog.perf.feasible);
  }
}

// ---- the WBUF lower bound compile_layer skips weight groups by -------------

OverlayConfig small_config() {
  OverlayConfig cfg = paper_config();
  cfg.d1 = 4;
  cfg.d2 = 2;
  cfg.d3 = 3;
  return cfg;
}

// A legal mapping keeps every weight word in the WBUF of some used TPE, and
// it uses at most tpes() of them (Eqn. 10): so its WBUF tile times the TPE
// count covers the layer's weights. Sampled over the best legal mappings
// (feasible or not) of every overlay layer of three zoo networks at both
// overlays.
TEST(Codegen, WbufTileTimesTpesCoversTheWeights) {
  std::int64_t checked = 0;
  for (const OverlayConfig& cfg : {paper_config(), small_config()}) {
    for (const nn::Network& net :
         {nn::googlenet(), nn::mobilenet_v1(), nn::sentimental_seqcnn()}) {
      for (const nn::Layer& layer : net.overlay_layers()) {
        const Workload w = Workload::from_layer(layer);
        SearchOptions opt;
        opt.max_candidates = 300;
        opt.top_k = 16;
        opt.keep_infeasible = true;
        opt.refine = false;
        for (const Solution& s : search_mappings(w, cfg, opt).top) {
          EXPECT_GE(s.perf.buffers.wbuf_words_per_tpe * cfg.tpes(),
                    w.weight_words())
              << layer.name << " " << s.mapping.to_string(w);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 2'500);
}

// Every group count compile_layer skips without a search, on five zoo
// networks at both overlays, is one whose search finds no feasible mapping.
TEST(Codegen, WbufBoundSkipsOnlyInfeasibleGroupCounts) {
  std::int64_t skipped = 0;
  for (const OverlayConfig& cfg : {paper_config(), small_config()}) {
    for (const nn::Network& net :
         {nn::googlenet(), nn::resnet50(), nn::mobilenet_v1(),
          nn::sentimental_seqcnn(), nn::alphago_zero()}) {
      for (const nn::Layer& layer : net.overlay_layers()) {
        const int extent = weight_only_extent(layer);
        // compile_layer's group counts: doubling, then the extent itself.
        for (int groups = 1; groups <= extent;
             groups = groups == extent ? extent + 1
                                       : std::min(2 * groups, extent)) {
          const Workload w =
              Workload::from_layer(weight_group_slice(layer, groups));
          if (ceil_div(w.weight_words(), cfg.tpes()) <= cfg.wbuf_words) break;
          ++skipped;
          SearchOptions opt;
          opt.max_candidates = 500;
          EXPECT_TRUE(search_mappings(w, cfg, opt).top.empty())
              << net.name() << " " << layer.name << " groups=" << groups;
        }
      }
    }
  }
  EXPECT_GT(skipped, 300);
}

}  // namespace
}  // namespace ftdl::compiler
