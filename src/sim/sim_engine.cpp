#include "sim/sim_engine.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/error.h"
#include "common/math_util.h"
#include "common/simd.h"

// The dense kernel reads four precomputed int64 offset arrays and writes
// int64 accumulators; telling the compiler the tables never alias the
// output is what lets it drop the reload-per-iteration and vectorize.
#if defined(__GNUC__) || defined(__clang__)
#define FTDL_RESTRICT __restrict__
#else
#define FTDL_RESTRICT
#endif

namespace ftdl::sim::detail {

namespace {

using compiler::HwLevel;
using compiler::Mapping;
using compiler::Workload;
using compiler::WorkloadKind;

/// Maximum workload loop count (CONV has 6); lets per-burst scratch live in
/// fixed-size stack arrays.
constexpr int kMaxLoops = 8;

/// Mixed-radix digits of every state of one hardware level, k-major:
/// out[k * states + s] = digit of workload loop k in state s, enumerated in
/// the same order as the reference interpreter's Odometer (loop 0 is the
/// most significant digit, the last loop advances fastest).
std::vector<std::int64_t> level_digits(const Mapping& m, HwLevel level,
                                       std::int64_t states) {
  const auto radix = m.level(level);
  const int k = static_cast<int>(radix.size());
  std::vector<std::int64_t> out(static_cast<std::size_t>(k) *
                                static_cast<std::size_t>(states));
  for (std::int64_t s = 0; s < states; ++s) {
    std::int64_t rem = s;
    for (int i = k; i-- > 0;) {
      const std::int64_t r = radix[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i) * static_cast<std::size_t>(states) +
          static_cast<std::size_t>(s)] = rem % r;
      rem /= r;
    }
  }
  return out;
}

/// Weighted sum of per-loop contribution tables: for every state s,
/// out[s] = sum_k coeff[k] * contrib[k * states + s].
std::vector<std::int64_t> project(const std::vector<std::int64_t>& contrib,
                                  const std::vector<std::int64_t>& coeff,
                                  std::int64_t states) {
  const int k = static_cast<int>(coeff.size());
  std::vector<std::int64_t> out(static_cast<std::size_t>(states), 0);
  for (int i = 0; i < k; ++i) {
    if (coeff[static_cast<std::size_t>(i)] == 0) continue;
    const std::int64_t c = coeff[static_cast<std::size_t>(i)];
    const std::int64_t* src =
        contrib.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(states);
    for (std::int64_t s = 0; s < states; ++s) out[static_cast<std::size_t>(s)] += c * src[s];
  }
  return out;
}

}  // namespace

EngineTables build_tables(const compiler::LayerProgram& program,
                          int max_chunks) {
  const Workload& w = program.workload;
  const Mapping& m = program.mapping;
  const nn::Layer& layer = program.layer;
  const int k = w.k();
  FTDL_ASSERT(k <= kMaxLoops);

  EngineTables tb;
  tb.k = k;
  tb.S = m.level_product(HwLevel::D3) * m.level_product(HwLevel::D2) *
         m.level_product(HwLevel::D1);
  tb.X = m.level_product(HwLevel::X);
  tb.L = m.level_product(HwLevel::L);
  tb.T = m.level_product(HwLevel::T);

  tb.trip.resize(static_cast<std::size_t>(k));
  tb.sp_ext.resize(static_cast<std::size_t>(k));
  tb.t_ext.resize(static_cast<std::size_t>(k));
  tb.sp_stride.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    tb.trip[iu] = w.loops[iu].trip;
    tb.sp_ext[iu] = m.tile(HwLevel::D3, i) * m.tile(HwLevel::D2, i) *
                    m.tile(HwLevel::D1, i);
    tb.t_ext[iu] = m.tile(HwLevel::T, i);
    tb.sp_stride[iu] =
        m.tile(HwLevel::X, i) * m.tile(HwLevel::L, i) * m.tile(HwLevel::T, i);
  }

  // ---- raw digits per level --------------------------------------------
  // Combined spatial digit per loop: ((d3 * TD2 + d2) * TD1 + d1), the
  // Eqn. 5 H-matrix nesting, flattened over the D3-major enumeration the
  // reference interpreter uses.
  const std::int64_t n3 = m.level_product(HwLevel::D3);
  const std::int64_t n2 = m.level_product(HwLevel::D2);
  const std::int64_t n1 = m.level_product(HwLevel::D1);
  const std::vector<std::int64_t> d3 = level_digits(m, HwLevel::D3, n3);
  const std::vector<std::int64_t> d2 = level_digits(m, HwLevel::D2, n2);
  const std::vector<std::int64_t> d1 = level_digits(m, HwLevel::D1, n1);
  // sp_dig[k*S + sp]: raw combined spatial digit (before stride weighting).
  std::vector<std::int64_t> sp_dig(static_cast<std::size_t>(k) *
                                   static_cast<std::size_t>(tb.S));
  {
    std::int64_t sp = 0;
    for (std::int64_t i3 = 0; i3 < n3; ++i3)
      for (std::int64_t i2 = 0; i2 < n2; ++i2)
        for (std::int64_t i1 = 0; i1 < n1; ++i1, ++sp)
          for (int i = 0; i < k; ++i) {
            const auto iu = static_cast<std::size_t>(i);
            const std::int64_t dig =
                (d3[iu * static_cast<std::size_t>(n3) + static_cast<std::size_t>(i3)] *
                     m.tile(HwLevel::D2, i) +
                 d2[iu * static_cast<std::size_t>(n2) + static_cast<std::size_t>(i2)]) *
                    m.tile(HwLevel::D1, i) +
                d1[iu * static_cast<std::size_t>(n1) + static_cast<std::size_t>(i1)];
            sp_dig[iu * static_cast<std::size_t>(tb.S) + static_cast<std::size_t>(sp)] =
                dig;
          }
  }
  const std::vector<std::int64_t> x_dig = level_digits(m, HwLevel::X, tb.X);
  const std::vector<std::int64_t> l_dig = level_digits(m, HwLevel::L, tb.L);
  const std::vector<std::int64_t> t_dig = level_digits(m, HwLevel::T, tb.T);

  // Contribution tables: digit * positional weight within gidx_k.
  tb.xb.resize(x_dig.size());
  for (int i = 0; i < k; ++i) {
    const std::int64_t wgt = m.tile(HwLevel::L, i) * m.tile(HwLevel::T, i);
    for (std::int64_t s = 0; s < tb.X; ++s) {
      const auto idx = static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.X) +
                       static_cast<std::size_t>(s);
      tb.xb[idx] = x_dig[idx] * wgt;
    }
  }
  tb.lb.resize(l_dig.size());
  for (int i = 0; i < k; ++i) {
    const std::int64_t wgt = m.tile(HwLevel::T, i);
    for (std::int64_t s = 0; s < tb.L; ++s) {
      const auto idx = static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.L) +
                       static_cast<std::size_t>(s);
      tb.lb[idx] = l_dig[idx] * wgt;
    }
  }
  tb.td = t_dig;  // T-level digits carry weight 1

  // ---- tensor-offset coefficients per workload loop --------------------
  std::vector<std::int64_t> cin(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> cw(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> cout(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> cry(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> ccx(static_cast<std::size_t>(k), 0);

  if (w.kind == WorkloadKind::MatMul) {
    const auto iM = static_cast<std::size_t>(w.loop_index('M'));
    const auto iN = static_cast<std::size_t>(w.loop_index('N'));
    const auto iP = static_cast<std::size_t>(w.loop_index('P'));
    const std::int64_t mm_m = layer.mm_m, mm_p = layer.mm_p;
    cin[iM] = mm_p;
    cin[iP] = 1;
    cw[iN] = mm_m;
    cw[iM] = 1;
    cout[iN] = mm_p;
    cout[iP] = 1;
  } else {
    tb.conv = true;
    const bool dw = w.kind == WorkloadKind::DepthwiseConv;
    const auto iN = static_cast<std::size_t>(w.loop_index('N'));
    const auto iE = static_cast<std::size_t>(w.loop_index('E'));
    const auto iF = static_cast<std::size_t>(w.loop_index('F'));
    const auto iR = static_cast<std::size_t>(w.loop_index('R'));
    const auto iS = static_cast<std::size_t>(w.loop_index('S'));
    const std::int64_t in_h = layer.in_h, in_w = layer.in_w;
    const std::int64_t kh = layer.kh, kw = layer.kw;
    const std::int64_t oh = layer.out_h(), ow = layer.out_w();
    const std::int64_t stride = layer.stride, pad = layer.pad;
    tb.in_h = in_h;
    tb.in_w = in_w;
    tb.conv_stride = stride;
    tb.pad = pad;

    // in_off = n*(IH*IW) + y*IW + xc with y = e*stride + r - pad and
    // xc = f*stride + s - pad.
    cin[iN] = in_h * in_w;
    cin[iE] = stride * in_w;
    cin[iR] = in_w;
    cin[iF] = stride;
    cin[iS] = 1;
    tb.in_const = -pad * in_w - pad;
    if (dw) {
      // weights {in_c, kh, kw} indexed (n, r, s); output channel is n.
      cw[iN] = kh * kw;
      cw[iR] = kw;
      cw[iS] = 1;
      cout[iN] = oh * ow;
    } else {
      const auto iM = static_cast<std::size_t>(w.loop_index('M'));
      cw[iM] = layer.in_c * kh * kw;
      cw[iN] = kh * kw;
      cw[iR] = kw;
      cw[iS] = 1;
      cout[iM] = oh * ow;
    }
    cout[iE] = ow;
    cout[iF] = 1;
    cry[iE] = stride;
    cry[iR] = 1;
    ccx[iF] = stride;
    ccx[iS] = 1;
    tb.ry_const = -pad;
    tb.cx_const = -pad;

    tb.free_loops.clear();
    if (!dw) tb.free_loops.push_back(w.loop_index('M'));
    tb.free_loops.push_back(w.loop_index('N'));
    tb.pairs.push_back({w.loop_index('E'), w.loop_index('R'), in_h});
    tb.pairs.push_back({w.loop_index('F'), w.loop_index('S'), in_w});
  }
  if (w.kind == WorkloadKind::MatMul) {
    tb.free_loops = {w.loop_index('M'), w.loop_index('N'), w.loop_index('P')};
  }

  // T-level run structure: the fastest-varying non-trivial T loop (the last
  // one with a tile > 1; the odometer advances trailing loops fastest).
  tb.t_run_loop = k - 1;
  tb.t_run_len = 1;
  for (int i = k; i-- > 0;) {
    if (tb.t_ext[static_cast<std::size_t>(i)] > 1) {
      tb.t_run_loop = i;
      tb.t_run_len = tb.t_ext[static_cast<std::size_t>(i)];
      break;
    }
  }
  const auto jf = static_cast<std::size_t>(tb.t_run_loop);
  tb.din = cin[jf];
  tb.dw = cw[jf];
  tb.dout = cout[jf];
  if (tb.conv) {
    tb.dry = cry[jf];
    tb.dcx = ccx[jf];
  }
  tb.c_in = cin;
  tb.c_w = cw;
  tb.c_out = cout;
  if (tb.conv) {
    tb.c_ry = cry;
    tb.c_cx = ccx;
  }

  // ---- vector-plan selection -------------------------------------------
  // Pick the unit-coefficient loop with the longest contiguous sweep (see
  // the header): its T tile, times its spatial extent when the spatial
  // digits are gidx-contiguous (sp_stride == t_ext <=> X/L tiles are 1).
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    EngineTables::PlanKind kind = EngineTables::PlanKind::None;
    if (cin[iu] == 1 && cw[iu] == 1 && cout[iu] == 0) {
      kind = EngineTables::PlanKind::Dot;
    } else if (cin[iu] == 1 && cw[iu] == 0 && cout[iu] == 1) {
      kind = EngineTables::PlanKind::Axpy;
    }
    if (kind == EngineTables::PlanKind::None) continue;
    const std::int64_t nb =
        (tb.sp_ext[iu] > 1 && tb.sp_stride[iu] == tb.t_ext[iu]) ? tb.sp_ext[iu]
                                                                : 1;
    const std::int64_t cols = nb * tb.t_ext[iu];
    if (cols < 2) continue;  // nothing to sweep; legacy kernels are fine
    if (tb.plan_kind == EngineTables::PlanKind::None || cols > tb.cols) {
      tb.plan_kind = kind;
      tb.col_loop = i;
      tb.block = nb;
      tb.cols = cols;
    }
  }

  // ---- group-reordered spatial tables ----------------------------------
  // Group key: mixed radix over the OUTPUT-mapped loops' spatial digits.
  // Two valid iterations can only write the same output accumulator when
  // their output loops' digits agree at every level; grouping by the
  // spatial digits therefore makes groups pairwise write-disjoint within
  // any burst — the safety argument for the parallel fan-out. The column
  // loop is excluded from the group key (its sweep stays inside one burst
  // slice, and for Axpy its digit only offsets the output within the
  // group's disjoint range), and the sort key is extended to a total mixed
  // radix with the column digit innermost so fused spatial states land
  // adjacent and in sweep order.
  std::vector<std::int64_t> key(static_cast<std::size_t>(tb.S), 0);
  for (int i = 0; i < k; ++i) {
    if (cout[static_cast<std::size_t>(i)] == 0 || i == tb.col_loop) continue;
    const std::int64_t* dig =
        sp_dig.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
    const std::int64_t ext = tb.sp_ext[static_cast<std::size_t>(i)];
    for (std::int64_t s = 0; s < tb.S; ++s)
      key[static_cast<std::size_t>(s)] = key[static_cast<std::size_t>(s)] * ext + dig[s];
  }
  std::vector<std::int64_t> sort_key = key;
  if (tb.col_loop >= 0) {
    for (int i = 0; i < k; ++i) {
      if (cout[static_cast<std::size_t>(i)] != 0 || i == tb.col_loop) continue;
      const std::int64_t* dig =
          sp_dig.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
      const std::int64_t ext = tb.sp_ext[static_cast<std::size_t>(i)];
      for (std::int64_t s = 0; s < tb.S; ++s)
        sort_key[static_cast<std::size_t>(s)] =
            sort_key[static_cast<std::size_t>(s)] * ext + dig[s];
    }
    const auto lcu = static_cast<std::size_t>(tb.col_loop);
    const std::int64_t* dig =
        sp_dig.data() + lcu * static_cast<std::size_t>(tb.S);
    for (std::int64_t s = 0; s < tb.S; ++s)
      sort_key[static_cast<std::size_t>(s)] =
          sort_key[static_cast<std::size_t>(s)] * tb.sp_ext[lcu] + dig[s];
  }
  std::vector<std::int64_t> perm(static_cast<std::size_t>(tb.S));
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return sort_key[static_cast<std::size_t>(a)] <
                            sort_key[static_cast<std::size_t>(b)];
                   });

  // Weighted spatial contributions, in permuted (group-major) order.
  tb.spd.resize(sp_dig.size());
  for (int i = 0; i < k; ++i) {
    const std::int64_t* dig =
        sp_dig.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
    std::int64_t* dst =
        tb.spd.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
    const std::int64_t str = tb.sp_stride[static_cast<std::size_t>(i)];
    for (std::int64_t s = 0; s < tb.S; ++s)
      dst[s] = dig[static_cast<std::size_t>(perm[static_cast<std::size_t>(s)])] * str;
  }
  auto permuted_project = [&](const std::vector<std::int64_t>& coeff) {
    std::vector<std::int64_t> out(static_cast<std::size_t>(tb.S), 0);
    for (int i = 0; i < k; ++i) {
      const std::int64_t c = coeff[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      const std::int64_t* src =
          tb.spd.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
      // spd already carries sp_stride; coefficients apply to gidx, whose
      // spatial part is exactly spd.
      for (std::int64_t s = 0; s < tb.S; ++s) out[static_cast<std::size_t>(s)] += c * src[s];
    }
    return out;
  };
  tb.in_sp = permuted_project(cin);
  tb.w_sp = permuted_project(cw);
  tb.out_sp = permuted_project(cout);
  if (tb.conv) {
    tb.ry_sp = permuted_project(cry);
    tb.cx_sp = permuted_project(ccx);
  }

  // Temporal projections (enumeration order; no reordering needed).
  tb.in_x = project(tb.xb, cin, tb.X);
  tb.w_x = project(tb.xb, cw, tb.X);
  tb.out_x = project(tb.xb, cout, tb.X);
  tb.in_l = project(tb.lb, cin, tb.L);
  tb.w_l = project(tb.lb, cw, tb.L);
  tb.out_l = project(tb.lb, cout, tb.L);
  tb.in_t = project(tb.td, cin, tb.T);
  tb.w_t = project(tb.td, cw, tb.T);
  tb.out_t = project(tb.td, cout, tb.T);
  if (tb.conv) {
    tb.ry_x = project(tb.xb, cry, tb.X);
    tb.cx_x = project(tb.xb, ccx, tb.X);
    tb.ry_l = project(tb.lb, cry, tb.L);
    tb.cx_l = project(tb.lb, ccx, tb.L);
    tb.ry_t = project(tb.td, cry, tb.T);
    tb.cx_t = project(tb.td, ccx, tb.T);
    tb.ry_t_max = *std::max_element(tb.ry_t.begin(), tb.ry_t.end());
    tb.cx_t_max = *std::max_element(tb.cx_t.begin(), tb.cx_t.end());
  }

  // ---- vector-plan verification and completion -------------------------
  if (tb.plan_kind != EngineTables::PlanKind::None) {
    const auto lcu = static_cast<std::size_t>(tb.col_loop);
    if (tb.block > 1) {
      // Verify the fused layout the innermost-ℓc sort was meant to produce:
      // every aligned block holds a single group-key value, constant digits
      // on every other loop, and ℓc's weighted digit sweeping 0, stride,
      // 2*stride, ... — exactly the precondition for gidx_ℓc advancing by 1
      // per column across the whole fused sweep.
      bool ok = tb.S % tb.block == 0;
      const std::int64_t* lcd = tb.spd.data() + lcu * static_cast<std::size_t>(tb.S);
      for (std::int64_t s0 = 0; ok && s0 < tb.S; s0 += tb.block) {
        for (std::int64_t j = 0; ok && j < tb.block; ++j) {
          const auto s = static_cast<std::size_t>(s0 + j);
          ok &= key[static_cast<std::size_t>(perm[s])] ==
                key[static_cast<std::size_t>(
                    perm[static_cast<std::size_t>(s0)])];
          ok &= lcd[s0 + j] == j * tb.sp_stride[lcu];
          for (int i = 0; ok && i < k; ++i) {
            if (i == tb.col_loop) continue;
            const std::int64_t* src =
                tb.spd.data() +
                static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
            ok &= src[s0 + j] == src[s0];
          }
        }
      }
      if (!ok) {
        tb.block = 1;
        tb.cols = tb.t_ext[lcu];
      }
    }
    if (tb.cols < 2) {
      // Nothing left to sweep; the legacy kernels handle any permutation.
      tb.plan_kind = EngineTables::PlanKind::None;
      tb.col_loop = -1;
      tb.block = 1;
      tb.cols = 1;
    }
  }
  if (tb.plan_kind != EngineTables::PlanKind::None) {
    const auto lcu = static_cast<std::size_t>(tb.col_loop);
    // Row loop: the largest remaining T tile, hoisted above the sweep with
    // constant per-row offset deltas.
    for (int i = 0; i < k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (i == tb.col_loop || tb.t_ext[iu] <= 1) continue;
      if (tb.row_loop < 0 || tb.t_ext[iu] > tb.rows) {
        tb.row_loop = i;
        tb.rows = tb.t_ext[iu];
      }
    }
    if (tb.row_loop >= 0) {
      const auto lru = static_cast<std::size_t>(tb.row_loop);
      tb.row_din = cin[lru];
      tb.row_dw = cw[lru];
      tb.row_dout = cout[lru];
      if (tb.conv) {
        tb.row_dry = cry[lru];
        tb.row_dcx = ccx[lru];
      }
    }
    if (tb.conv) {
      tb.col_dry = cry[lcu];
      tb.col_dcx = ccx[lcu];
    }
    // T states with the ℓc/ℓr digits zero: (t0, row, col) then enumerates
    // every (spatial-in-block, t) iteration exactly once.
    for (std::int64_t t = 0; t < tb.T; ++t) {
      if (tb.td[lcu * static_cast<std::size_t>(tb.T) +
                static_cast<std::size_t>(t)] != 0)
        continue;
      if (tb.row_loop >= 0 &&
          tb.td[static_cast<std::size_t>(tb.row_loop) *
                    static_cast<std::size_t>(tb.T) +
                static_cast<std::size_t>(t)] != 0)
        continue;
      tb.plan_t0.push_back(t);
    }
  }

  // ---- chunks: contiguous runs of whole groups -------------------------
  std::vector<std::int64_t> group_start;  // first permuted index per group
  for (std::int64_t s = 0; s < tb.S; ++s) {
    if (s == 0 || key[static_cast<std::size_t>(perm[static_cast<std::size_t>(s)])] !=
                      key[static_cast<std::size_t>(perm[static_cast<std::size_t>(s - 1)])])
      group_start.push_back(s);
  }
  const std::int64_t n_groups = static_cast<std::int64_t>(group_start.size());
  const std::int64_t n_chunks =
      std::max<std::int64_t>(1, std::min<std::int64_t>(n_groups, max_chunks));
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    const std::int64_t g0 = c * n_groups / n_chunks;
    const std::int64_t g1 = (c + 1) * n_groups / n_chunks;
    if (g0 == g1) continue;
    EngineTables::Chunk ch;
    ch.begin = group_start[static_cast<std::size_t>(g0)];
    ch.end = g1 < n_groups ? group_start[static_cast<std::size_t>(g1)] : tb.S;
    ch.sp_max.assign(static_cast<std::size_t>(k), 0);
    for (int i = 0; i < k; ++i) {
      const std::int64_t* src =
          tb.spd.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(tb.S);
      std::int64_t mx = 0;
      for (std::int64_t s = ch.begin; s < ch.end; ++s) mx = std::max(mx, src[s]);
      ch.sp_max[static_cast<std::size_t>(i)] = mx;
    }
    if (tb.conv) {
      ch.ry_sp_min = *std::min_element(tb.ry_sp.begin() + ch.begin,
                                       tb.ry_sp.begin() + ch.end);
      ch.ry_sp_max = *std::max_element(tb.ry_sp.begin() + ch.begin,
                                       tb.ry_sp.begin() + ch.end);
      ch.cx_sp_min = *std::min_element(tb.cx_sp.begin() + ch.begin,
                                       tb.cx_sp.begin() + ch.end);
      ch.cx_sp_max = *std::max_element(tb.cx_sp.begin() + ch.begin,
                                       tb.cx_sp.begin() + ch.end);
    }
    tb.chunks.push_back(std::move(ch));
  }
  return tb;
}

namespace {

/// Per-(x, l) burst state shared by the dense check, the kernels and the
/// stats-only counter.
struct BurstBases {
  std::array<std::int64_t, kMaxLoops> base{};  ///< per-loop (x, l) offset
  std::int64_t in_b = 0, w_b = 0, out_b = 0;
  std::int64_t ry_b = 0, cx_b = 0;
};

BurstBases burst_bases(const EngineTables& tb, std::int64_t x, std::int64_t l) {
  BurstBases b;
  for (int i = 0; i < tb.k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    b.base[iu] = tb.xb[iu * static_cast<std::size_t>(tb.X) + static_cast<std::size_t>(x)] +
                 tb.lb[iu * static_cast<std::size_t>(tb.L) + static_cast<std::size_t>(l)];
  }
  b.in_b = tb.in_const + tb.in_x[static_cast<std::size_t>(x)] +
           tb.in_l[static_cast<std::size_t>(l)];
  b.w_b = tb.w_x[static_cast<std::size_t>(x)] + tb.w_l[static_cast<std::size_t>(l)];
  b.out_b = tb.out_x[static_cast<std::size_t>(x)] + tb.out_l[static_cast<std::size_t>(l)];
  if (tb.conv) {
    b.ry_b = tb.ry_const + tb.ry_x[static_cast<std::size_t>(x)] +
             tb.ry_l[static_cast<std::size_t>(l)];
    b.cx_b = tb.cx_const + tb.cx_x[static_cast<std::size_t>(x)] +
             tb.cx_l[static_cast<std::size_t>(l)];
  }
  return b;
}

/// True when every (spatial in [begin,end), t) iteration of the burst is
/// in-trip and (conv) inside the input image — the dense interior case.
bool burst_is_dense(const EngineTables& tb, const BurstBases& b,
                    const std::int64_t* sp_max, std::int64_t ry_sp_min,
                    std::int64_t ry_sp_max, std::int64_t cx_sp_min,
                    std::int64_t cx_sp_max) {
  for (int i = 0; i < tb.k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (b.base[iu] + sp_max[iu] + tb.t_ext[iu] - 1 >= tb.trip[iu]) return false;
  }
  if (tb.conv) {
    if (b.ry_b + ry_sp_min < 0) return false;
    if (b.ry_b + ry_sp_max + tb.ry_t_max >= tb.in_h) return false;
    if (b.cx_b + cx_sp_min < 0) return false;
    if (b.cx_b + cx_sp_max + tb.cx_t_max >= tb.in_w) return false;
  }
  return true;
}

/// Innermost strided MACC over one T-run slice [jlo, jhi): the only
/// per-MACC work is two strided loads and one widening multiply-add. When
/// the run loop is a reduction loop (dout == 0) the whole slice folds into
/// one accumulator — the vectorizable dot-product shape.
inline void run_slice(const std::int16_t* FTDL_RESTRICT weights,
                      const std::int16_t* FTDL_RESTRICT input, acc_t* out,
                      std::int64_t i0, std::int64_t w0, std::int64_t o0,
                      std::int64_t din, std::int64_t dw, std::int64_t dout,
                      std::int64_t jlo, std::int64_t jhi) {
  if (dout == 0) {
    acc_t acc = 0;
    for (std::int64_t j = jlo; j < jhi; ++j)
      acc += static_cast<acc_t>(weights[w0 + j * dw]) *
             static_cast<acc_t>(input[i0 + j * din]);
    out[o0] += acc;
  } else {
    for (std::int64_t j = jlo; j < jhi; ++j)
      out[o0 + j * dout] += static_cast<acc_t>(weights[w0 + j * dw]) *
                            static_cast<acc_t>(input[i0 + j * din]);
  }
}

/// Branch-free interior kernel over [begin, end) x [0, T): per spatial
/// state, walk the T-runs with constant per-j offset deltas — no validity
/// work at all.
void dense_burst(const EngineTables& tb, const BurstBases& b,
                 std::int64_t begin, std::int64_t end,
                 const std::int16_t* FTDL_RESTRICT weights,
                 const std::int16_t* FTDL_RESTRICT input, acc_t* out) {
  const std::int64_t* FTDL_RESTRICT in_sp = tb.in_sp.data();
  const std::int64_t* FTDL_RESTRICT w_sp = tb.w_sp.data();
  const std::int64_t* FTDL_RESTRICT out_sp = tb.out_sp.data();
  const std::int64_t* FTDL_RESTRICT in_t = tb.in_t.data();
  const std::int64_t* FTDL_RESTRICT w_t = tb.w_t.data();
  const std::int64_t* FTDL_RESTRICT out_t = tb.out_t.data();
  const std::int64_t len = tb.t_run_len;
  const std::int64_t n_runs = tb.T / len;
  const std::int64_t din = tb.din, dw = tb.dw, dout = tb.dout;
  for (std::int64_t s = begin; s < end; ++s) {
    const std::int64_t in_s = b.in_b + in_sp[s];
    const std::int64_t w_s = b.w_b + w_sp[s];
    const std::int64_t out_s = b.out_b + out_sp[s];
    for (std::int64_t r = 0; r < n_runs; ++r) {
      const std::int64_t t0 = r * len;
      run_slice(weights, input, out, in_s + in_t[t0], w_s + w_t[t0],
                out_s + out_t[t0], din, dw, dout, 0, len);
    }
  }
}

/// Guarded edge kernel: clips each T-run to its valid [jlo, jhi) slice by
/// interval arithmetic (trip spill per loop, pad clipping per image axis)
/// and feeds the same strided inner loop — validity costs O(k) per run, not
/// per MACC. Returns the number of valid MACCs executed.
std::int64_t guarded_burst(const EngineTables& tb, const BurstBases& b,
                           std::int64_t begin, std::int64_t end,
                           const std::int16_t* weights,
                           const std::int16_t* input, acc_t* out) {
  const int k = tb.k;
  const std::int64_t S = tb.S;
  const std::int64_t len = tb.t_run_len;
  const std::int64_t n_runs = tb.T / len;
  const auto jf = static_cast<std::size_t>(tb.t_run_loop);
  std::int64_t valid = 0;
  std::array<std::int64_t, kMaxLoops> slack{};
  for (std::int64_t s = begin; s < end; ++s) {
    // Per-loop digit headroom at this spatial state: a t digit d_i is
    // in-trip iff d_i < slack_i.
    bool dead = false;
    for (int i = 0; i < k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      slack[iu] =
          tb.trip[iu] - b.base[iu] -
          tb.spd[iu * static_cast<std::size_t>(S) + static_cast<std::size_t>(s)];
      dead |= slack[iu] <= 0;
    }
    if (dead) continue;  // digit 0 already spills: no valid t at all
    const std::int64_t in_s = b.in_b + tb.in_sp[static_cast<std::size_t>(s)];
    const std::int64_t w_s = b.w_b + tb.w_sp[static_cast<std::size_t>(s)];
    const std::int64_t out_s = b.out_b + tb.out_sp[static_cast<std::size_t>(s)];
    const std::int64_t ry_s =
        tb.conv ? b.ry_b + tb.ry_sp[static_cast<std::size_t>(s)] : 0;
    const std::int64_t cx_s =
        tb.conv ? b.cx_b + tb.cx_sp[static_cast<std::size_t>(s)] : 0;
    for (std::int64_t r = 0; r < n_runs; ++r) {
      const auto t0 = static_cast<std::size_t>(r * len);
      // Constant digits of this run (the run loop's own digit is 0 at t0;
      // its sweep is covered by the jhi clip below).
      bool ok = true;
      for (int i = 0; i < k; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        ok &= tb.td[iu * static_cast<std::size_t>(tb.T) + t0] < slack[iu];
      }
      if (!ok) continue;
      std::int64_t jlo = 0;
      std::int64_t jhi = std::min(len, slack[jf]);
      if (tb.conv) {
        // Image clipping: at most one of ry/cx varies inside a run (the run
        // loop is a single workload loop), the other is constant. The
        // varying one advances by dry/dcx > 0 per j, so each bound is one
        // integer-division clip.
        const std::int64_t ry0 = ry_s + tb.ry_t[t0];
        if (tb.dry == 0) {
          if (ry0 < 0 || ry0 >= tb.in_h) continue;
        } else {
          if (ry0 < 0) jlo = std::max(jlo, ceil_div(-ry0, tb.dry));
          jhi = std::min(jhi, ceil_div(tb.in_h - ry0, tb.dry));
        }
        const std::int64_t cx0 = cx_s + tb.cx_t[t0];
        if (tb.dcx == 0) {
          if (cx0 < 0 || cx0 >= tb.in_w) continue;
        } else {
          if (cx0 < 0) jlo = std::max(jlo, ceil_div(-cx0, tb.dcx));
          jhi = std::min(jhi, ceil_div(tb.in_w - cx0, tb.dcx));
        }
      }
      if (jhi <= jlo) continue;
      run_slice(weights, input, out, in_s + tb.in_t[t0], w_s + tb.w_t[t0],
                out_s + tb.out_t[t0], tb.din, tb.dw, tb.dout, jlo, jhi);
      valid += jhi - jlo;
    }
  }
  return valid;
}

/// Interior kernel when a vector plan is set: every (block, t0, row) slice
/// is one contiguous sweep of tb.cols MACCs handed to the runtime-dispatched
/// SIMD kernels — a single dot reduction (kDot) or weight-broadcast axpy.
template <bool kDot>
void dense_burst_plan(const EngineTables& tb, const BurstBases& b,
                      std::int64_t begin, std::int64_t end,
                      const std::int16_t* FTDL_RESTRICT weights,
                      const std::int16_t* FTDL_RESTRICT input, acc_t* out) {
  const std::int64_t* FTDL_RESTRICT in_sp = tb.in_sp.data();
  const std::int64_t* FTDL_RESTRICT w_sp = tb.w_sp.data();
  const std::int64_t* FTDL_RESTRICT out_sp = tb.out_sp.data();
  const std::int64_t* FTDL_RESTRICT in_t = tb.in_t.data();
  const std::int64_t* FTDL_RESTRICT w_t = tb.w_t.data();
  const std::int64_t* FTDL_RESTRICT out_t = tb.out_t.data();
  const std::int64_t cols = tb.cols;
  const std::int64_t rows = tb.rows;
  for (std::int64_t s0 = begin; s0 < end; s0 += tb.block) {
    const std::int64_t in_s = b.in_b + in_sp[s0];
    const std::int64_t w_s = b.w_b + w_sp[s0];
    const std::int64_t out_s = b.out_b + out_sp[s0];
    for (const std::int64_t t0 : tb.plan_t0) {
      const auto t0u = static_cast<std::size_t>(t0);
      std::int64_t i0 = in_s + in_t[t0u];
      std::int64_t w0 = w_s + w_t[t0u];
      std::int64_t o0 = out_s + out_t[t0u];
      for (std::int64_t r = 0; r < rows;
           ++r, i0 += tb.row_din, w0 += tb.row_dw, o0 += tb.row_dout) {
        if constexpr (kDot) {
          out[o0] += simd::dot_i16(weights + w0, input + i0, cols);
        } else {
          simd::axpy_i16(out + o0, input + i0, weights[w0], cols);
        }
      }
    }
  }
}

/// Guarded edge kernel under a vector plan: the trip clip on ℓc is one
/// contiguous [clo, chi) slice of the column sweep (gidx_ℓc advances by 1
/// per column), the row clip bounds ℓr, and the conv image clips stay
/// integer divisions — so even edge bursts feed long SIMD sweeps. Returns
/// the number of valid MACCs executed.
template <bool kDot>
std::int64_t guarded_burst_plan(const EngineTables& tb, const BurstBases& b,
                                std::int64_t begin, std::int64_t end,
                                const std::int16_t* weights,
                                const std::int16_t* input, acc_t* out) {
  const int k = tb.k;
  const std::int64_t S = tb.S;
  const auto lcu = static_cast<std::size_t>(tb.col_loop);
  std::int64_t valid = 0;
  std::array<std::int64_t, kMaxLoops> slack{};
  for (std::int64_t s0 = begin; s0 < end; s0 += tb.block) {
    // Per-loop digit headroom at the block start; within the block only
    // ℓc's digit varies and its sweep is clipped by chi_all below.
    bool dead = false;
    for (int i = 0; i < k; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      slack[iu] =
          tb.trip[iu] - b.base[iu] -
          tb.spd[iu * static_cast<std::size_t>(S) + static_cast<std::size_t>(s0)];
      if (i != tb.col_loop) dead |= slack[iu] <= 0;
    }
    const std::int64_t chi_all = std::min(tb.cols, slack[lcu]);
    if (dead || chi_all <= 0) continue;
    const std::int64_t in_s = b.in_b + tb.in_sp[static_cast<std::size_t>(s0)];
    const std::int64_t w_s = b.w_b + tb.w_sp[static_cast<std::size_t>(s0)];
    const std::int64_t out_s = b.out_b + tb.out_sp[static_cast<std::size_t>(s0)];
    const std::int64_t ry_s =
        tb.conv ? b.ry_b + tb.ry_sp[static_cast<std::size_t>(s0)] : 0;
    const std::int64_t cx_s =
        tb.conv ? b.cx_b + tb.cx_sp[static_cast<std::size_t>(s0)] : 0;
    for (const std::int64_t t0 : tb.plan_t0) {
      const auto t0u = static_cast<std::size_t>(t0);
      // Constant digits of this t0 (the ℓc/ℓr digits are 0 by plan_t0
      // construction, so their checks are vacuous given slack > 0).
      bool ok = true;
      for (int i = 0; i < k; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        ok &= tb.td[iu * static_cast<std::size_t>(tb.T) + t0u] <
              slack[iu];
      }
      if (!ok) continue;
      std::int64_t rhi = tb.rows;
      if (tb.row_loop >= 0)
        rhi = std::min(rhi, slack[static_cast<std::size_t>(tb.row_loop)]);
      std::int64_t i0 = in_s + tb.in_t[t0u];
      std::int64_t w0 = w_s + tb.w_t[t0u];
      std::int64_t o0 = out_s + tb.out_t[t0u];
      std::int64_t ry0 = tb.conv ? ry_s + tb.ry_t[t0u] : 0;
      std::int64_t cx0 = tb.conv ? cx_s + tb.cx_t[t0u] : 0;
      for (std::int64_t r = 0; r < rhi;
           ++r, i0 += tb.row_din, w0 += tb.row_dw, o0 += tb.row_dout,
                ry0 += tb.row_dry, cx0 += tb.row_dcx) {
        std::int64_t clo = 0;
        std::int64_t chi = chi_all;
        if (tb.conv) {
          // Image clipping: per column at most one of ry/cx varies (ℓc is a
          // single workload loop); the other is row-constant and checked
          // outright.
          if (tb.col_dry == 0) {
            if (ry0 < 0 || ry0 >= tb.in_h) continue;
          } else {
            if (ry0 < 0) clo = std::max(clo, ceil_div(-ry0, tb.col_dry));
            chi = std::min(chi, ceil_div(tb.in_h - ry0, tb.col_dry));
          }
          if (tb.col_dcx == 0) {
            if (cx0 < 0 || cx0 >= tb.in_w) continue;
          } else {
            if (cx0 < 0) clo = std::max(clo, ceil_div(-cx0, tb.col_dcx));
            chi = std::min(chi, ceil_div(tb.in_w - cx0, tb.col_dcx));
          }
        }
        if (chi <= clo) continue;
        if constexpr (kDot) {
          out[o0] += simd::dot_i16(weights + w0 + clo, input + i0 + clo,
                                   chi - clo);
        } else {
          simd::axpy_i16(out + o0 + clo, input + i0 + clo, weights[w0],
                         chi - clo);
        }
        valid += chi - clo;
      }
    }
  }
  return valid;
}

}  // namespace

std::int64_t run_functional(const EngineTables& tb, const std::int16_t* weights,
                            const std::int16_t* input, acc_t* out,
                            ThreadPool* pool) {
  const std::size_t n_chunks = tb.chunks.size();
  auto run_chunk = [&](std::size_t ci) -> std::int64_t {
    const EngineTables::Chunk& c = tb.chunks[ci];
    std::int64_t v = 0;
    for (std::int64_t x = 0; x < tb.X; ++x) {
      for (std::int64_t l = 0; l < tb.L; ++l) {
        const BurstBases b = burst_bases(tb, x, l);
        if (burst_is_dense(tb, b, c.sp_max.data(), c.ry_sp_min, c.ry_sp_max,
                           c.cx_sp_min, c.cx_sp_max)) {
          switch (tb.plan_kind) {
            case EngineTables::PlanKind::Dot:
              dense_burst_plan<true>(tb, b, c.begin, c.end, weights, input,
                                     out);
              break;
            case EngineTables::PlanKind::Axpy:
              dense_burst_plan<false>(tb, b, c.begin, c.end, weights, input,
                                      out);
              break;
            case EngineTables::PlanKind::None:
              dense_burst(tb, b, c.begin, c.end, weights, input, out);
              break;
          }
          v += (c.end - c.begin) * tb.T;
        } else {
          switch (tb.plan_kind) {
            case EngineTables::PlanKind::Dot:
              v += guarded_burst_plan<true>(tb, b, c.begin, c.end, weights,
                                            input, out);
              break;
            case EngineTables::PlanKind::Axpy:
              v += guarded_burst_plan<false>(tb, b, c.begin, c.end, weights,
                                             input, out);
              break;
            case EngineTables::PlanKind::None:
              v += guarded_burst(tb, b, c.begin, c.end, weights, input, out);
              break;
          }
        }
      }
    }
    return v;
  };
  if (pool != nullptr && pool->jobs() > 1 && n_chunks > 1) {
    std::vector<std::int64_t> valid(n_chunks, 0);
    pool->parallel_for(n_chunks,
                       [&](std::size_t ci) { valid[ci] = run_chunk(ci); });
    // Deterministic (and associative-integer) merge.
    std::int64_t total = 0;
    for (std::int64_t v : valid) total += v;
    return total;
  }
  // Serial path stays heap-free: it runs inside the serving steady state,
  // where per-request allocations are pinned to zero.
  std::int64_t total = 0;
  for (std::size_t ci = 0; ci < n_chunks; ++ci) total += run_chunk(ci);
  return total;
}

std::int64_t count_valid_maccs(const EngineTables& tb) {
  const int k = tb.k;
  // Full-space spatial maxima for the dense shortcut.
  std::array<std::int64_t, kMaxLoops> sp_max{};
  for (int i = 0; i < k; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    sp_max[iu] = (tb.sp_ext[iu] - 1) * tb.sp_stride[iu];
  }
  std::int64_t ry_sp_min = 0, ry_sp_max = 0, cx_sp_min = 0, cx_sp_max = 0;
  if (tb.conv) {
    ry_sp_min = *std::min_element(tb.ry_sp.begin(), tb.ry_sp.end());
    ry_sp_max = *std::max_element(tb.ry_sp.begin(), tb.ry_sp.end());
    cx_sp_min = *std::min_element(tb.cx_sp.begin(), tb.cx_sp.end());
    cx_sp_max = *std::max_element(tb.cx_sp.begin(), tb.cx_sp.end());
  }

  std::int64_t total = 0;
  for (std::int64_t x = 0; x < tb.X; ++x) {
    for (std::int64_t l = 0; l < tb.L; ++l) {
      const BurstBases b = burst_bases(tb, x, l);
      if (burst_is_dense(tb, b, sp_max.data(), ry_sp_min, ry_sp_max, cx_sp_min,
                         cx_sp_max)) {
        total += tb.S * tb.T;
        continue;
      }
      // The burst iteration space is the cross product over loops of their
      // (spatial digit, t digit) pairs, so the valid count factorizes into
      // per-loop counts — with the (E, R) and (F, S) image-bound couplings
      // counted pairwise.
      std::int64_t burst = 1;
      for (int idx : tb.free_loops) {
        const auto iu = static_cast<std::size_t>(idx);
        std::int64_t cnt = 0;
        for (std::int64_t i = 0; i < tb.sp_ext[iu] && burst != 0; ++i) {
          const std::int64_t v0 = b.base[iu] + i * tb.sp_stride[iu];
          cnt += std::clamp<std::int64_t>(tb.trip[iu] - v0, 0, tb.t_ext[iu]);
        }
        burst *= cnt;
        if (burst == 0) break;
      }
      for (std::size_t p = 0; p < tb.pairs.size() && burst != 0; ++p) {
        const EngineTables::CoupledPair& cp = tb.pairs[p];
        const auto ie = static_cast<std::size_t>(cp.outer);
        const auto ir = static_cast<std::size_t>(cp.kernel);
        std::int64_t cnt = 0;
        for (std::int64_t i = 0; i < tb.sp_ext[ie]; ++i) {
          for (std::int64_t j = 0; j < tb.t_ext[ie]; ++j) {
            const std::int64_t v = b.base[ie] + i * tb.sp_stride[ie] + j;
            if (v >= tb.trip[ie]) break;  // j ascending: rest of block too
            // Kernel index range keeping the image coordinate in
            // [0, bound): r in [pad - stride*v, pad + bound - stride*v).
            const std::int64_t lo = tb.pad - tb.conv_stride * v;
            const std::int64_t hi =
                std::min(tb.trip[ir], tb.pad + cp.bound - tb.conv_stride * v);
            for (std::int64_t i2 = 0; i2 < tb.sp_ext[ir]; ++i2) {
              const std::int64_t b0 = b.base[ir] + i2 * tb.sp_stride[ir];
              const std::int64_t lo2 = std::max(b0, lo);
              const std::int64_t hi2 =
                  std::min({b0 + tb.t_ext[ir], hi, tb.trip[ir]});
              if (hi2 > lo2) cnt += hi2 - lo2;
            }
          }
        }
        burst *= cnt;
      }
      total += burst;
    }
  }
  return total;
}

}  // namespace ftdl::sim::detail
