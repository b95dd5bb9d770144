#include "sim/sim_engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "common/arena.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/simd.h"

namespace ftdl::sim::detail {

namespace {

using compiler::Mapping;
using compiler::Workload;
using compiler::WorkloadKind;

/// A half-open index range; empty when hi <= lo.
struct Span {
  std::int64_t lo = 0, hi = 0;
  std::int64_t size() const { return hi > lo ? hi - lo : 0; }
};

/// The output indices o in [0, n_out) whose input coordinate
/// o*stride + k - pad lies in [0, n_in): one contiguous range per kernel
/// tap k — the pad clip of one image axis.
Span clip(std::int64_t k, std::int64_t pad, std::int64_t stride,
          std::int64_t n_in, std::int64_t n_out) {
  const std::int64_t off = k - pad;
  const std::int64_t lo = off >= 0 ? 0 : ceil_div(-off, stride);
  const std::int64_t hi =
      n_in > off ? std::min(n_out, ceil_div(n_in - off, stride)) : 0;
  return {lo, hi};
}

/// out[j] += w * in[j * stride] for j in [0, n): the stride > 1 row.
void strided_row(acc_t* out, const std::int16_t* in, std::int16_t w,
                 std::int64_t stride, std::int64_t n) {
  const acc_t wv = w;
  for (std::int64_t j = 0; j < n; ++j)
    out[j] += wv * static_cast<acc_t>(in[j * stride]);
}

/// One (output plane, input plane) pair of a conv: every kernel tap of the
/// kh*kw weights `w` over its pad-clipped output window. Returns the MACCs
/// executed.
std::int64_t conv_plane(const EngineTables& tb, const std::int16_t* w,
                        const std::int16_t* in, acc_t* out) {
  const std::int64_t st = tb.stride, iw = tb.in_w, ow = tb.ow;
  std::int64_t valid = 0;
  for (std::int64_t r = 0; r < tb.kh; ++r) {
    const Span es = clip(r, tb.pad, st, tb.in_h, tb.oh);
    if (es.size() == 0) continue;
    for (std::int64_t s = 0; s < tb.kw; ++s) {
      const Span fs = clip(s, tb.pad, st, iw, ow);
      const std::int64_t nf = fs.size();
      if (nf == 0) continue;
      const std::int16_t wv = w[r * tb.kw + s];
      valid += es.size() * nf;
      // Output (e, f) reads input row e*st + r - pad, column f*st + s - pad.
      const std::int16_t* in0 =
          in + (es.lo * st + r - tb.pad) * iw + fs.lo * st + s - tb.pad;
      acc_t* out0 = out + es.lo * ow + fs.lo;
      if (st == 1 && ow == iw) {
        // Rows of equal pitch in both tensors: the window is one contiguous
        // sweep from its first to its last element. Between two rows the
        // sweep also passes the ow - nf clipped columns, reading the
        // neighbouring input row; those products are taken back out, which
        // is exact in integer arithmetic.
        const std::int64_t span = (es.size() - 1) * ow + nf;
        simd::axpy_i16(out0, in0, wv, span);
        if (nf == ow) continue;  // full rows: nothing to take back
        const acc_t wl = wv;
        for (std::int64_t q = nf; q < span; q += ow)
          for (std::int64_t j = q; j < q + ow - nf; ++j)
            out0[j] -= wl * static_cast<acc_t>(in0[j]);
        continue;
      }
      for (std::int64_t e = es.lo; e < es.hi; ++e, in0 += st * iw, out0 += ow) {
        if (st == 1)
          simd::axpy_i16(out0, in0, wv, nf);
        else
          strided_row(out0, in0, wv, st, nf);
      }
    }
  }
  return valid;
}

/// Every MAC feeding output channels [c0, c1): conv M, depthwise channel,
/// MatMul N. Each channel's plane is zeroed, accumulated, then scanned for
/// its largest magnitude while it is still in cache.
EngineResult run_channels(const EngineTables& tb, const std::int16_t* weights,
                          const std::int16_t* input, acc_t* out,
                          std::int64_t c0, std::int64_t c1) {
  EngineResult r;
  if (tb.kind == WorkloadKind::MatMul) {
    const std::int64_t m = tb.mm_m, p = tb.mm_p;
    for (std::int64_t n = c0; n < c1; ++n) {
      const std::int16_t* wn = weights + n * m;
      acc_t* on = out + n * p;
      if (p == 1) {
        *on = simd::dot_i16(wn, input, m);
      } else {
        std::fill(on, on + p, acc_t{0});
        for (std::int64_t j = 0; j < m; ++j)
          simd::axpy_i16(on, input + j * p, wn[j], p);
      }
    }
    r.maccs = (c1 - c0) * m * p;
    r.max_abs = simd::max_abs_acc(out + c0 * p, (c1 - c0) * p);
    return r;
  }
  const std::int64_t taps = tb.kh * tb.kw;
  const std::int64_t in_plane = tb.in_h * tb.in_w;
  const std::int64_t out_plane = tb.oh * tb.ow;
  for (std::int64_t c = c0; c < c1; ++c) {
    acc_t* oc = out + c * out_plane;
    std::fill(oc, oc + out_plane, acc_t{0});
    if (tb.kind == WorkloadKind::DepthwiseConv) {
      r.maccs += conv_plane(tb, weights + c * taps, input + c * in_plane, oc);
    } else {
      for (std::int64_t n = 0; n < tb.in_c; ++n)
        r.maccs += conv_plane(tb, weights + (c * tb.in_c + n) * taps,
                              input + n * in_plane, oc);
    }
    r.max_abs = std::max(r.max_abs, simd::max_abs_acc(oc, out_plane));
  }
  return r;
}

/// Pairs (o, k) in [0, n_o) x [0, n_k) with o*stride + k - pad in
/// [0, bound): the valid points of one image axis (E with R, F with S).
std::int64_t clipped_pairs(std::int64_t n_o, std::int64_t n_k,
                           std::int64_t stride, std::int64_t pad,
                           std::int64_t bound) {
  std::int64_t total = 0;
  for (std::int64_t k = 0; k < n_k; ++k)
    total += clip(k, pad, stride, bound, n_o).size();
  return total;
}

/// Runs body(lo, hi) over [0, units) in contiguous ranges across `pool`
/// (for_each_range) and combines what the calls return: MACCs summed,
/// magnitudes maxed.
template <typename Body>
EngineResult fan_out(ThreadPool* pool, std::int64_t units, const Body& body) {
  std::atomic<std::int64_t> maccs{0};
  std::atomic<std::uint64_t> max_abs{0};
  for_each_range(pool, units, [&](std::int64_t lo, std::int64_t hi) {
    const EngineResult r = body(lo, hi);
    maccs.fetch_add(r.maccs, std::memory_order_relaxed);
    std::uint64_t seen = max_abs.load(std::memory_order_relaxed);
    while (r.max_abs > seen &&
           !max_abs.compare_exchange_weak(seen, r.max_abs,
                                          std::memory_order_relaxed)) {
    }
  });
  return {maccs.load(), max_abs.load()};
}

/// A stride-s conv as the stride-1 conv the tiles run. Phase plane (a, b)
/// of an input channel holds the padded rows y and columns x with
/// y % s == a and x % s == b; over those planes tap (r, c) becomes tap
/// (r / s, c / s) of phase (r % s, c % s). Phases are extra input channels,
/// and phases with no taps (a >= kh or b >= kw) are dropped. Stride 1 is
/// the single phase.
struct PhaseShape {
  std::int64_t rows = 1, cols = 1;  ///< row / column phases: min(s, kh|kw)
  std::int64_t in_c = 0;            ///< in_c * rows * cols
  std::int64_t kh = 0, kw = 0;      ///< taps per phase: ceil(kh|kw / s)
  std::int64_t ph = 0, pw = 0;      ///< phase plane: oh + kh - 1, ow + kw - 1
};

PhaseShape phase_shape(const EngineTables& tb) {
  PhaseShape p;
  p.rows = std::min(tb.stride, tb.kh);
  p.cols = std::min(tb.stride, tb.kw);
  p.in_c = tb.in_c * p.rows * p.cols;
  p.kh = ceil_div(tb.kh, tb.stride);
  p.kw = ceil_div(tb.kw, tb.stride);
  p.ph = tb.oh + p.kh - 1;
  p.pw = tb.ow + p.kw - 1;
  return p;
}

/// Writes the zero-padded phase planes of `input`, channel-major with the
/// phases (a, b) row-major inside a channel, into the zeroed `xp`.
void split_phases(const EngineTables& tb, const PhaseShape& ps,
                  const std::int16_t* input, std::int16_t* xp) {
  const std::int64_t st = tb.stride;
  if (st == 1 && tb.pad == 0) {
    // One phase and no padding: the planes are the input channels.
    std::memcpy(xp, input,
                static_cast<std::size_t>(tb.in_c * tb.in_h * tb.in_w) *
                    sizeof(std::int16_t));
    return;
  }
  for (std::int64_t n = 0; n < tb.in_c; ++n) {
    for (std::int64_t a = 0; a < ps.rows; ++a) {
      // Plane row y holds padded row y*st + a, column x padded column
      // x*st + b: input row y*st + a - pad, column x*st + b - pad.
      const Span ys = clip(a, tb.pad, st, tb.in_h, ps.ph);
      for (std::int64_t b = 0; b < ps.cols; ++b, xp += ps.ph * ps.pw) {
        const Span xs = clip(b, tb.pad, st, tb.in_w, ps.pw);
        const std::int64_t nx = xs.size();
        const std::int16_t* src =
            input + (n * tb.in_h + ys.lo * st + a - tb.pad) * tb.in_w +
            xs.lo * st + b - tb.pad;
        std::int16_t* row = xp + ys.lo * ps.pw + xs.lo;
        for (std::int64_t y = ys.lo; y < ys.hi;
             ++y, src += st * tb.in_w, row += ps.pw)
          for (std::int64_t j = 0; j < nx; ++j) row[j] = src[j * st];
      }
    }
  }
}

/// Writes the weights [M, N, R, S] as [M, N * rows * cols, kh', kw'] over
/// the phase planes into the zeroed `wq`: tap (r, c) goes to tap
/// (r / s, c / s) of phase (r % s, c % s), and the missing taps stay zero.
void split_weights(const EngineTables& tb, const PhaseShape& ps,
                   const std::int16_t* weights, std::int16_t* wq) {
  const std::int64_t st = tb.stride;
  for (std::int64_t mn = 0; mn < tb.out_c * tb.in_c;
       ++mn, weights += tb.kh * tb.kw, wq += ps.rows * ps.cols * ps.kh * ps.kw)
    for (std::int64_t r = 0; r < tb.kh; ++r)
      for (std::int64_t c = 0; c < tb.kw; ++c)
        wq[(((r % st) * ps.cols + c % st) * ps.kh + r / st) * ps.kw + c / st] =
            weights[r * tb.kw + c];
}

/// True when every int32 partial sum of the phase-split conv is exact: K
/// products of at most max|w| * max|x| each, K = the phase shape's
/// reduction length rounded up to the pairs the tile multiplies (taps of
/// one phase plane, or planes when a phase has one tap). The zero taps and
/// zero padding add nothing. Scans the input; max|w| is the binding's.
bool fits_int32(const EngineTables& tb, const WeightBinding& bound,
                const std::int16_t* input) {
  const PhaseShape ps = phase_shape(tb);
  const std::int64_t taps = ps.kh * ps.kw;
  const std::int64_t k = taps == 1 ? round_up(ps.in_c, 2)
                                   : ps.in_c * round_up(taps, 2);
  const std::int64_t mx =
      simd::max_abs_i16(input, tb.in_c * tb.in_h * tb.in_w);
  return k * bound.max_abs * mx <= std::numeric_limits<std::int32_t>::max();
}

/// The conv on int32 register tiles over the bound kernel: one zero-padded,
/// phase-split copy of the input drawn from the calling thread's
/// TensorArena, then (channel tile x position block) units fanned across
/// the pool. Each tile stores its outputs, so nothing is zeroed first.
EngineResult run_tiles(const EngineTables& tb, const WeightBinding& bound,
                       const std::int16_t* input, acc_t* out,
                       ThreadPool* pool) {
  const PhaseShape ps = phase_shape(tb);
  const simd::ConvTileShape tile = simd::conv_tile_shape();
  const std::int64_t plane = ps.ph * ps.pw;
  const std::int64_t slack = ps.kw + tile.positions;
  simd::PaddedConv conv;
  // A stride-1, pad-0 1x1 conv's planes are its input channels. When a
  // plane holds a whole tile, a tile over channel n reads at most into
  // channel n + 1, so the input is read in place and only the last plane,
  // whose tail tile reads past the tensor, is copied with slack.
  const bool in_place = tb.stride == 1 && tb.pad == 0 && tb.kh == 1 &&
                        tb.kw == 1 && plane >= tile.positions;
  ArenaVec<std::int16_t> xp(in_place ? plane + slack
                                     : ps.in_c * plane + slack);  // zeroed
  if (in_place) {
    std::memcpy(xp.data(), input + (tb.in_c - 1) * plane,
                static_cast<std::size_t>(plane) * sizeof(std::int16_t));
    conv.xp = input;
    conv.last = xp.data();
  } else {
    split_phases(tb, ps, input, xp.data());
    conv.xp = xp.data();
    conv.last = xp.data() + (ps.in_c - 1) * plane;
  }
  conv.w = bound.tile_weights();
  conv.out = out;
  conv.in_c = ps.in_c;
  conv.kh = ps.kh;
  conv.kw = ps.kw;
  conv.plane = plane;
  conv.pitch = ps.pw;
  conv.oh = tb.oh;
  conv.ow = tb.ow;
  // A layer with fewer channel tiles than the pool has ranges also splits
  // its grid into blocks of whole tiles, so every job gets work. Units run
  // block-major: a range sweeps the channel tiles over one block's inputs.
  const std::int64_t c_tiles = ceil_div(tb.out_c, tile.channels);
  const std::int64_t q_tiles =
      ceil_div((tb.oh - 1) * ps.pw + tb.ow, tile.positions);
  const int jobs = pool != nullptr ? pool->jobs() : 1;
  const std::int64_t block_tiles =
      jobs > 1 ? ceil_div(q_tiles,
                          std::clamp(ceil_div(kRangesPerJob * jobs, c_tiles),
                                     std::int64_t{1}, q_tiles))
               : q_tiles;
  const std::int64_t blocks = ceil_div(q_tiles, block_tiles);
  const std::int64_t block = block_tiles * tile.positions;
  EngineResult r = fan_out(
      pool, c_tiles * blocks, [&](std::int64_t lo, std::int64_t hi) {
        std::uint64_t max_abs = 0;
        for (std::int64_t u = lo; u < hi; ++u) {
          const std::int64_t m = u % c_tiles * tile.channels;
          const std::int64_t q = u / c_tiles * block;
          max_abs = std::max(
              max_abs,
              simd::conv_tile_i16(conv, m,
                                  std::min(m + tile.channels, tb.out_c), q,
                                  q + block));
        }
        return EngineResult{0, max_abs};
      });
  r.maccs = tb.out_c * tb.in_c *
            clipped_pairs(tb.oh, tb.kh, tb.stride, tb.pad, tb.in_h) *
            clipped_pairs(tb.ow, tb.kw, tb.stride, tb.pad, tb.in_w);
  return r;
}

}  // namespace

EngineTables build_tables(const nn::Layer& layer) {
  EngineTables tb;
  if (layer.kind == nn::LayerKind::MatMul) {
    tb.kind = WorkloadKind::MatMul;
    tb.mm_m = layer.mm_m;
    tb.mm_n = layer.mm_n;
    tb.mm_p = layer.mm_p;
    return tb;
  }
  const bool dw = layer.kind == nn::LayerKind::Depthwise;
  tb.kind = dw ? WorkloadKind::DepthwiseConv : WorkloadKind::Conv;
  tb.in_c = layer.in_c;
  tb.out_c = dw ? layer.in_c : layer.out_c;
  tb.in_h = layer.in_h;
  tb.in_w = layer.in_w;
  tb.oh = layer.out_h();
  tb.ow = layer.out_w();
  tb.kh = layer.kh;
  tb.kw = layer.kw;
  tb.stride = layer.stride;
  tb.pad = layer.pad;
  return tb;
}

EngineTables build_tables(const compiler::LayerProgram& program) {
  const Workload& w = program.workload;
  const Mapping& m = program.mapping;
  auto cov = [&](char tag) {
    const int i = w.loop_index(tag);
    return std::min(m.loop_coverage(i),
                    w.loops[static_cast<std::size_t>(i)].trip);
  };
  EngineTables tb = build_tables(program.layer);
  FTDL_ASSERT(tb.kind == w.kind);
  if (w.kind == WorkloadKind::MatMul) {
    tb.cov_m = cov('M');
    tb.cov_n = cov('N');
    tb.cov_p = cov('P');
    return tb;
  }
  if (w.kind == WorkloadKind::Conv) tb.cov_m = cov('M');
  tb.cov_n = cov('N');
  tb.cov_e = cov('E');
  tb.cov_f = cov('F');
  tb.cov_r = cov('R');
  tb.cov_s = cov('S');
  return tb;
}

WeightBinding bind_weights(const EngineTables& tb,
                           const std::int16_t* weights) {
  WeightBinding b;
  b.weights = weights;
  if (tb.kind != WorkloadKind::Conv) return b;
  b.max_abs = simd::max_abs_i16(weights, tb.out_c * tb.in_c * tb.kh * tb.kw);
  // The split moves taps unless there is one phase (stride 1 or a 1x1
  // kernel) or one tap per phase (a kernel within the stride).
  const PhaseShape ps = phase_shape(tb);
  if (ps.rows * ps.cols > 1 && ps.kh * ps.kw > 1) {
    b.phase_split = ArenaVec<std::int16_t>(tb.out_c * ps.in_c * ps.kh * ps.kw);
    split_weights(tb, ps, weights, b.phase_split.data());  // into the zeros
  }
  return b;
}

bool uses_int32_tiles(const EngineTables& tb, const WeightBinding& bound,
                      const std::int16_t* input) {
  return tb.kind == WorkloadKind::Conv && simd::has_conv_tile() &&
         fits_int32(tb, bound, input);
}

EngineResult run_functional(const EngineTables& tb, const WeightBinding& bound,
                            const std::int16_t* input, acc_t* out,
                            ThreadPool* pool) {
  if (uses_int32_tiles(tb, bound, input))
    return run_tiles(tb, bound, input, out, pool);
  const std::int64_t channels =
      tb.kind == WorkloadKind::MatMul ? tb.mm_n : tb.out_c;
  return fan_out(pool, channels, [&](std::int64_t c0, std::int64_t c1) {
    return run_channels(tb, bound.weights, input, out, c0, c1);
  });
}

std::int64_t count_valid_maccs(const EngineTables& tb) {
  if (tb.kind == WorkloadKind::MatMul) return tb.cov_m * tb.cov_n * tb.cov_p;
  const std::int64_t channels = tb.kind == WorkloadKind::DepthwiseConv
                                    ? tb.cov_n
                                    : tb.cov_m * tb.cov_n;
  return channels *
         clipped_pairs(tb.cov_e, tb.cov_r, tb.stride, tb.pad, tb.in_h) *
         clipped_pairs(tb.cov_f, tb.cov_s, tb.stride, tb.pad, tb.in_w);
}

}  // namespace ftdl::sim::detail
