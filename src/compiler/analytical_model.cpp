#include "compiler/analytical_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_util.h"
#include "compiler/adjacency.h"

namespace ftdl::compiler {

namespace {

/// Positions of the loops the activation-tile geometry reads: M and P for
/// MatMul; N, E, F, R and S for conv and depthwise (they share the halo-tile
/// geometry).
struct ActLoops {
  explicit ActLoops(const Workload& w) {
    if (w.kind == WorkloadKind::MatMul) {
      m = w.loop_index('M');
      p = w.loop_index('P');
    } else {
      n = w.loop_index('N');
      e = w.loop_index('E');
      f = w.loop_index('F');
      r = w.loop_index('R');
      s = w.loop_index('S');
    }
  }
  int m = 0, p = 0, n = 0, e = 0, f = 0, r = 0, s = 0;
};

/// Activation words a single TPE consumes from its ActBUF during one LoopT
/// burst (halo-aware for CONV: a tile of TT_E outputs with TT_R kernel rows
/// needs (TT_E-1)*stride + TT_R input rows).
std::int64_t act_tile_words(const Workload& w, const ActLoops& a,
                            const Mapping& m) {
  if (w.kind == WorkloadKind::MatMul) {
    return m.tile(HwLevel::T, a.m) * m.tile(HwLevel::T, a.p);
  }
  const std::int64_t h =
      (m.tile(HwLevel::T, a.e) - 1) * w.stride + m.tile(HwLevel::T, a.r);
  const std::int64_t ww =
      (m.tile(HwLevel::T, a.f) - 1) * w.stride + m.tile(HwLevel::T, a.s);
  return m.tile(HwLevel::T, a.n) * h * ww;
}

/// Activation words one SuperBlock *row* receives per LoopL refill: the D1
/// TPEs of a SuperBlock hold different reduction slices, so the row traffic
/// multiplies the per-TPE tile by the D1 splits of activation loops
/// (f_act of Eqn. 8).
std::int64_t act_refill(const Workload& w, const ActLoops& a,
                        const Mapping& m) {
  if (w.kind == WorkloadKind::MatMul) {
    return m.tile(HwLevel::D1, a.m) * m.tile(HwLevel::T, a.m) *
           m.tile(HwLevel::T, a.p);
  }
  const std::int64_t ch = m.tile(HwLevel::D1, a.n) * m.tile(HwLevel::T, a.n);
  const std::int64_t h = (m.tile(HwLevel::T, a.e) - 1) * w.stride +
                         m.tile(HwLevel::D1, a.r) * m.tile(HwLevel::T, a.r);
  const std::int64_t ww = (m.tile(HwLevel::T, a.f) - 1) * w.stride +
                          m.tile(HwLevel::D1, a.s) * m.tile(HwLevel::T, a.s);
  return ch * h * ww;
}

}  // namespace

std::int64_t act_tile_words_per_tpe(const Workload& w, const Mapping& m) {
  return act_tile_words(w, ActLoops(w), m);
}

std::int64_t act_refill_words(const Workload& w, const Mapping& m) {
  return act_refill(w, ActLoops(w), m);
}

/// Live partial-sum entries per SuperBlock during one LoopX iteration:
/// the output (non-reduction) loop extents at the T and L levels
/// (f_psum of Eqn. 9). Reduction loops do not widen the psum tile — they
/// accumulate into it.
std::int64_t psum_tile_words(const Workload& w, const Mapping& m) {
  std::int64_t words = 1;
  for (int i = 0; i < w.k(); ++i) {
    if (w.loops[static_cast<std::size_t>(i)].is_reduction) continue;
    words *= m.tile(HwLevel::T, i) * m.tile(HwLevel::L, i);
  }
  return words;
}

/// Number of passes over the psum tile: reduction loops tiled at LoopX force
/// intermediate results through the PSumBUS (multi-pass, Sec. III-B).
std::int64_t psum_passes(const Workload& w, const Mapping& m) {
  std::int64_t passes = 1;
  for (int i = 0; i < w.k(); ++i) {
    if (w.loops[static_cast<std::size_t>(i)].is_reduction) {
      passes *= m.tile(HwLevel::X, i);
    }
  }
  return passes;
}

/// Weight reuse available to the double pump: the product of the T-level
/// tiles of activation-only loops. Each WBUF word is read once per CLKl
/// cycle and must serve two CLKh MACCs.
std::int64_t weight_reuse_at_t(const Workload& w, const Mapping& m) {
  std::int64_t reuse = 1;
  for (int i = 0; i < w.k(); ++i) {
    const WorkloadLoop& l = w.loops[static_cast<std::size_t>(i)];
    if (l.indexes_act && !l.indexes_weight) reuse *= m.tile(HwLevel::T, i);
  }
  return reuse;
}

BufferUsage buffer_usage(const Workload& w, const Mapping& m) {
  BufferUsage b;
  b.wbuf_words_per_tpe = 1;
  for (int i = 0; i < w.k(); ++i) {
    if (w.loops[static_cast<std::size_t>(i)].indexes_weight) {
      b.wbuf_words_per_tpe *= m.temporal_extent(i);
    }
  }
  b.actbuf_words_per_tpe = act_tile_words(w, ActLoops(w), m);
  b.psum_words_per_superblock = psum_tile_words(w, m);
  return b;
}

Performance evaluate(const Workload& w, const Mapping& m,
                     const arch::OverlayConfig& config) {
  FTDL_ASSERT(m.k() == w.k());
  Performance p;
  p.buffers = buffer_usage(w, m);
  p.buffers_fit = p.buffers.fits(config);

  p.x = m.level_product(HwLevel::X);
  p.l = m.level_product(HwLevel::L);
  p.t = m.level_product(HwLevel::T);

  // --- Eqn. 7: computation time with the TPE-chain pipeline latency.
  const std::int64_t lat = config.pipeline_latency();
  p.weight_reuse_ok =
      !config.double_pump || weight_reuse_at_t(w, m) >= 2;
  const std::int64_t burst = p.l * p.t * (p.weight_reuse_ok ? 1 : 2);
  p.c_comp = p.x * (burst + lat);

  // --- Eqn. 8: ActBUS cycles = f_act(TT) * X * L.
  const std::int64_t refill_words = act_refill(w, ActLoops(w), m);
  const std::int64_t act_refill_cycles =
      ceil_div(refill_words, config.actbus_words_per_cycle);
  p.c_act_bus = act_refill_cycles * p.x * p.l;

  // --- Eqn. 9: PSumBUS cycles = f_psum(TT, TL) * X * D3 (one bus per
  // SuperBlock column, shared by the D3 rows).
  const std::int64_t psum_words = p.buffers.psum_words_per_superblock;
  const std::int64_t passes = psum_passes(w, m);
  // Multi-pass: intermediate tiles are stored *and* reloaded (2x traffic);
  // single-pass stores only the final results.
  const std::int64_t psum_traffic = passes > 1 ? 2 * psum_words : psum_words;
  p.c_psum_bus =
      ceil_div(psum_traffic, config.psumbus_words_per_cycle) * p.x * config.d3;

  // --- DRAM (Sec. IV-B2): activations in, partial sums / results out.
  const double act_bytes = 2.0 * double(refill_words) *
                           double(p.x) * double(p.l) * config.d3;
  const double psum_wr_bytes = double(config.psum_bytes) * double(psum_words) *
                               double(p.x) * config.d2 * config.d3;
  // Multi-pass reloads come back in through the read channel.
  const double psum_rd_bytes =
      passes > 1 ? psum_wr_bytes * double(passes - 1) / double(passes) : 0.0;
  p.dram_rd_bytes = act_bytes + psum_rd_bytes;
  p.dram_wr_bytes = psum_wr_bytes;
  p.c_dram_rd = static_cast<std::int64_t>(
      std::ceil(p.dram_rd_bytes / config.dram_rd_bytes_per_cycle()));
  p.c_dram_wr = static_cast<std::int64_t>(
      std::ceil(p.dram_wr_bytes / config.dram_wr_bytes_per_cycle()));

  // --- Eqn. 12.
  p.c_exe = std::max({p.c_comp, p.c_act_bus, p.c_psum_bus, p.c_dram_rd,
                      p.c_dram_wr});

  // --- WBUF efficiency (Sec. IV-B3 / DESIGN.md §4.3).
  std::int64_t used_tpes = 1;
  for (HwLevel level : {HwLevel::D1, HwLevel::D2, HwLevel::D3}) {
    used_tpes *= m.level_product(level);
  }
  p.e_wbuf = double(w.weight_words()) /
             (double(p.buffers.wbuf_words_per_tpe) * double(used_tpes));
  FTDL_ASSERT(p.e_wbuf <= 1.0 + 1e-9);

  p.host_reduction = needs_host_reduction(m, w);
  p.feasible = p.buffers_fit;

  p.hardware_efficiency =
      double(w.macs()) / (double(p.c_exe) * double(config.tpes()));
  return p;
}

std::int64_t min_execution_cycles(const Workload& w,
                                  const arch::OverlayConfig& config) {
  return ceil_div(w.macs(), config.tpes());
}

double balance_score(const Performance& p, std::int64_t c_exe_min) {
  FTDL_ASSERT(c_exe_min > 0 && p.c_exe > 0);
  return double(c_exe_min) / double(p.c_exe) + p.e_wbuf;
}

}  // namespace ftdl::compiler
