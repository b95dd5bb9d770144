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
/// MatMul N. Returns the MACCs executed.
std::int64_t run_channels(const EngineTables& tb, const std::int16_t* weights,
                          const std::int16_t* input, acc_t* out,
                          std::int64_t c0, std::int64_t c1) {
  std::int64_t valid = 0;
  if (tb.kind == WorkloadKind::MatMul) {
    const std::int64_t m = tb.mm_m, p = tb.mm_p;
    for (std::int64_t n = c0; n < c1; ++n) {
      const std::int16_t* wn = weights + n * m;
      acc_t* on = out + n * p;
      if (p == 1) {
        *on += simd::dot_i16(wn, input, m);
      } else {
        for (std::int64_t j = 0; j < m; ++j)
          simd::axpy_i16(on, input + j * p, wn[j], p);
      }
    }
    return (c1 - c0) * m * p;
  }
  const std::int64_t taps = tb.kh * tb.kw;
  const std::int64_t in_plane = tb.in_h * tb.in_w;
  const std::int64_t out_plane = tb.oh * tb.ow;
  for (std::int64_t c = c0; c < c1; ++c) {
    acc_t* oc = out + c * out_plane;
    if (tb.kind == WorkloadKind::DepthwiseConv) {
      valid += conv_plane(tb, weights + c * taps, input + c * in_plane, oc);
      continue;
    }
    for (std::int64_t n = 0; n < tb.in_c; ++n)
      valid += conv_plane(tb, weights + (c * tb.in_c + n) * taps,
                          input + n * in_plane, oc);
  }
  return valid;
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

/// Runs body(lo, hi) over [0, units) split into contiguous ranges across
/// `pool` and returns the sum of what the calls return. A few ranges per
/// worker, so a worker held up elsewhere does not leave the batch waiting
/// on one large range.
template <typename Body>
std::int64_t fan_out(ThreadPool* pool, std::int64_t units, const Body& body) {
  const int jobs = pool != nullptr ? pool->jobs() : 1;
  const std::int64_t parts =
      jobs > 1 ? std::min<std::int64_t>(units, 4 * std::int64_t{jobs}) : 1;
  if (parts <= 1) {
    // Serial path stays heap-free: it runs inside the serving steady state,
    // where per-request allocations are pinned to zero.
    return body(std::int64_t{0}, units);
  }
  std::atomic<std::int64_t> total{0};
  pool->parallel_for(static_cast<std::size_t>(parts), [&](std::size_t i) {
    const auto part = static_cast<std::int64_t>(i);
    total.fetch_add(body(part * units / parts, (part + 1) * units / parts),
                    std::memory_order_relaxed);
  });
  return total.load();
}

/// True when every int32 partial sum of a stride-1 conv is exact: K
/// products of at most max|w| * max|x| each, K = the reduction length
/// rounded up to the pairs the tile multiplies (taps of one channel, or
/// channels when the kernel is 1x1). Scans both tensors.
bool fits_int32(const EngineTables& tb, const std::int16_t* weights,
                const std::int16_t* input) {
  const std::int64_t taps = tb.kh * tb.kw;
  const std::int64_t k = taps == 1 ? round_up(tb.in_c, 2)
                                   : tb.in_c * round_up(taps, 2);
  const std::int64_t mw = simd::max_abs_i16(weights, tb.out_c * tb.in_c * taps);
  const std::int64_t mx =
      simd::max_abs_i16(input, tb.in_c * tb.in_h * tb.in_w);
  return k * mw * mx <= std::numeric_limits<std::int32_t>::max();
}

/// The stride-1 conv on int32 register tiles: one zero-padded copy of the
/// input, drawn from the calling thread's TensorArena, then 4-channel tiles
/// fanned across the pool. Returns the layer's MACC count.
std::int64_t run_tiles(const EngineTables& tb, const std::int16_t* weights,
                       const std::int16_t* input, acc_t* out,
                       ThreadPool* pool) {
  const std::int64_t pitch = tb.in_w + 2 * tb.pad;
  const std::int64_t plane = (tb.in_h + 2 * tb.pad) * pitch;
  ArenaVec<std::int16_t> xp(tb.in_c * plane + tb.kw + 16);  // zeroed
  for (std::int64_t n = 0; n < tb.in_c; ++n)
    for (std::int64_t y = 0; y < tb.in_h; ++y)
      std::memcpy(xp.data() + n * plane + (y + tb.pad) * pitch + tb.pad,
                  input + (n * tb.in_h + y) * tb.in_w,
                  static_cast<std::size_t>(tb.in_w) * sizeof(std::int16_t));
  simd::PaddedConv conv;
  conv.xp = xp.data();
  conv.w = weights;
  conv.out = out;
  conv.in_c = tb.in_c;
  conv.kh = tb.kh;
  conv.kw = tb.kw;
  conv.plane = plane;
  conv.pitch = pitch;
  conv.oh = tb.oh;
  conv.ow = tb.ow;
  fan_out(pool, ceil_div(tb.out_c, 4), [&](std::int64_t lo, std::int64_t hi) {
    simd::conv_tile_i16(conv, 4 * lo, std::min(4 * hi, tb.out_c));
    return std::int64_t{0};
  });
  return tb.out_c * tb.in_c * clipped_pairs(tb.oh, tb.kh, 1, tb.pad, tb.in_h) *
         clipped_pairs(tb.ow, tb.kw, 1, tb.pad, tb.in_w);
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

bool uses_int32_tiles(const EngineTables& tb, const std::int16_t* weights,
                      const std::int16_t* input) {
  return tb.kind == WorkloadKind::Conv && tb.stride == 1 &&
         simd::has_conv_tile() && fits_int32(tb, weights, input);
}

std::int64_t run_functional(const EngineTables& tb, const std::int16_t* weights,
                            const std::int16_t* input, acc_t* out,
                            ThreadPool* pool) {
  if (uses_int32_tiles(tb, weights, input))
    return run_tiles(tb, weights, input, out, pool);
  const std::int64_t channels =
      tb.kind == WorkloadKind::MatMul ? tb.mm_n : tb.out_c;
  return fan_out(pool, channels, [&](std::int64_t c0, std::int64_t c1) {
    return run_channels(tb, weights, input, out, c0, c1);
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
