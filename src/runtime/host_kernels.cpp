#include "runtime/host_kernels.h"

#include <algorithm>

#include "common/error.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nn/reference.h"

namespace ftdl::runtime {

namespace {

using nn::Layer;
using nn::Tensor16;

/// Elements of each of a pooling task's band buffers (64 KB of stack for
/// the three). A band holds kh rows at least, so an int32 column sum adds
/// at most kPlaneCap rows: exact, far below 2^16.
constexpr std::int64_t kPlaneCap = 8192;

/// The input indices [lo, hi) one pooling window covers along an axis,
/// clipped to [0, n); empty when hi <= lo.
struct Window {
  std::int64_t lo = 0, hi = 0;
  std::int64_t size() const { return std::max<std::int64_t>(hi - lo, 0); }
};

Window clip_window(std::int64_t o, std::int64_t stride, std::int64_t pad,
                   std::int64_t k, std::int64_t n) {
  const std::int64_t start = o * stride - pad;
  return {std::max<std::int64_t>(start, 0), std::min(start + k, n)};
}

/// What every pooling path shares: the layer's geometry.
struct PoolShape {
  bool average = false;
  std::int64_t h = 0, w = 0, oh = 0, ow = 0, kh = 0, kw = 0, stride = 1,
               pad = 0;

  explicit PoolShape(const Layer& l)
      : average(l.pool_op == nn::PoolOp::Avg),
        h(l.in_h),
        w(l.in_w),
        oh(l.out_h()),
        ow(l.out_w()),
        kh(l.kh),
        kw(l.kw),
        stride(l.stride),
        pad(l.pad) {}

  /// The empty window's output, and the reduced row's padding.
  std::int16_t identity() const { return average ? 0 : -32768; }

  /// A band buffer's row pitch: the padded columns the windows read,
  /// (ow - 1) * stride + kw, rounded up to a multiple of the stride.
  std::int64_t pitch() const {
    return ((ow - 1) * stride + kw + stride - 1) / stride * stride;
  }

  std::int16_t average_of(acc_t sum, std::int64_t count) const {
    return static_cast<std::int16_t>(count > 0 ? sum / count : 0);
  }
};

/// The separable kernel over channels [c0, c1), one band of output rows at
/// a time. The band's padded input rows are copied into a buffer, rows
/// outside the input and columns outside it holding the identity, so no
/// window needs clipping after that. Rows are grouped by phase (padded row
/// y * stride + r sits in phase r % stride, at row y + r / stride of it),
/// so window row r of every output row in the band is one contiguous block,
/// and the vertical pass is kh contiguous passes over the whole band. The
/// row pitch is a multiple of the stride, so the horizontal pass also runs
/// over the flattened rows: output (y, x) reads reduced[y * pitch + x *
/// stride + s], and windows that run past a row's end land in columns that
/// are discarded.
void pool_bands(const PoolShape& p, const std::int16_t* in, std::int16_t* out,
                std::int64_t c0, std::int64_t c1) {
  alignas(32) std::int16_t band[kPlaneCap];
  alignas(32) std::int16_t reduced[kPlaneCap];
  alignas(32) std::int32_t sums[kPlaneCap];
  const std::int64_t st = p.stride, pitch = p.pitch();
  const std::int64_t band_rows = (kPlaneCap / pitch - p.kh) / st + 1;
  const std::int64_t copy_w = std::min(p.w, pitch - p.pad);
  for (std::int64_t c = c0; c < c1; ++c) {
    const std::int16_t* plane = in + c * p.h * p.w;
    for (std::int64_t y0 = 0; y0 < p.oh; y0 += band_rows) {
      const std::int64_t nb = std::min(band_rows, p.oh - y0);
      const std::int64_t rows = (nb - 1) * st + p.kh;
      // Phase q's first row sits after the rows of phases 0 .. q-1.
      const auto phase_row = [&](std::int64_t r) {
        const std::int64_t q = r % st;
        return q * (rows / st) + std::min(q, rows % st) + r / st;
      };
      for (std::int64_t r = 0; r < rows; ++r) {
        std::int16_t* row = band + phase_row(r) * pitch;
        const std::int64_t ir = y0 * st + r - p.pad;
        if (ir < 0 || ir >= p.h || copy_w <= 0) {
          std::fill(row, row + pitch, p.identity());
          continue;
        }
        std::fill(row, row + p.pad, p.identity());
        std::copy(plane + ir * p.w, plane + ir * p.w + copy_w, row + p.pad);
        std::fill(row + p.pad + copy_w, row + pitch, p.identity());
      }
      const std::int64_t n = nb * pitch;
      std::int16_t* o = out + (c * p.oh + y0) * p.ow;
      if (p.average) {
        std::fill(sums, sums + n, 0);
        for (std::int64_t r = 0; r < p.kh; ++r)
          simd::add_into_i32(sums, band + phase_row(r) * pitch, n);
        for (std::int64_t y = 0; y < nb; ++y, o += p.ow) {
          const Window wy = clip_window(y0 + y, st, p.pad, p.kh, p.h);
          for (std::int64_t x = 0; x < p.ow; ++x) {
            const std::int32_t* win = sums + y * pitch + x * st;
            acc_t sum = 0;
            for (std::int64_t s = 0; s < p.kw; ++s) sum += win[s];
            const Window wx = clip_window(x, st, p.pad, p.kw, p.w);
            o[x] = p.average_of(sum, wy.size() * wx.size());
          }
        }
        continue;
      }
      std::copy(band, band + n, reduced);  // window row 0 is phase 0, row 0
      for (std::int64_t r = 1; r < p.kh; ++r)
        simd::max_into_i16(reduced, band + phase_row(r) * pitch, n);
      // band now holds the horizontal maxima: output (y, x) at
      // y * pitch / stride + x.
      simd::window_max_i16(band, reduced, (n - p.kw) / st + 1,
                           static_cast<int>(p.kw), static_cast<int>(st));
      for (std::int64_t y = 0; y < nb; ++y, o += p.ow)
        std::copy(band + y * (pitch / st), band + y * (pitch / st) + p.ow, o);
    }
  }
}

/// A 1-wide plane over channels [c0, c1): every window is one contiguous
/// run of the column, or empty when the window misses column 0.
void pool_column(const PoolShape& p, const std::int16_t* in, std::int16_t* out,
                 std::int64_t c0, std::int64_t c1) {
  for (std::int64_t c = c0; c < c1; ++c) {
    const std::int16_t* plane = in + c * p.h;
    for (std::int64_t y = 0; y < p.oh; ++y) {
      const Window wy = clip_window(y, p.stride, p.pad, p.kh, p.h);
      const std::int16_t* run = plane + wy.lo;
      std::int16_t reduced = p.identity();
      if (p.average) {
        acc_t sum = 0;
        for (std::int64_t r = 0; r < wy.size(); ++r) sum += run[r];
        reduced = p.average_of(sum, wy.size());
      } else {
        reduced = simd::max_i16(run, wy.size());
      }
      std::int16_t* o = out + (c * p.oh + y) * p.ow;
      for (std::int64_t x = 0; x < p.ow; ++x)
        o[x] = clip_window(x, p.stride, p.pad, p.kw, 1).size() > 0
                   ? reduced
                   : p.identity();
    }
  }
}

/// Global average pooling (the window is the whole unpadded plane) over
/// channels [c0, c1): each channel's one output sums its contiguous plane
/// in one pass.
void pool_global_average(const PoolShape& p, const std::int16_t* in,
                         std::int16_t* out, std::int64_t c0, std::int64_t c1) {
  const std::int64_t n = p.h * p.w;
  for (std::int64_t c = c0; c < c1; ++c) {
    const std::int16_t* plane = in + c * n;
    acc_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) sum += plane[i];
    out[c] = p.average_of(sum, n);
  }
}

}  // namespace

Tensor16 requantize_layer(const Layer& layer, const nn::AccTensor& acc,
                          std::uint64_t max_abs, int shift, ThreadPool* pool) {
  Tensor16 out(acc.dims(), no_init);
  const std::int64_t rows = acc.dims()[0];
  const std::int64_t per_row = acc.size() / rows;
  const bool narrow = max_abs < (std::uint64_t{1} << 31);
  for_each_range(acc.size() < kSerialBelow ? nullptr : pool, rows,
                 [&](std::int64_t lo, std::int64_t hi) {
                   const acc_t* a = acc.data() + lo * per_row;
                   std::int16_t* o = out.data() + lo * per_row;
                   const std::int64_t n = (hi - lo) * per_row;
                   if (narrow) {
                     simd::requantize_i32(a, o, n, shift, layer.relu);
                     return;
                   }
                   for (std::int64_t j = 0; j < n; ++j) {
                     const std::int16_t v = requantize(saturate48(a[j]), shift);
                     o[j] = layer.relu ? relu(v) : v;
                   }
                 });
  return out;
}

Tensor16 pool_layer(const Layer& layer, const Tensor16& in, ThreadPool* pool) {
  FTDL_ASSERT(layer.kind == nn::LayerKind::Pool);
  if (in.dims() != nn::Dims{layer.in_c, layer.in_h, layer.in_w})
    throw ConfigError(layer.name + ": pooling input shape mismatch");
  const PoolShape p(layer);
  const bool global_average =
      p.average && p.pad == 0 && p.kh == p.h && p.kw == p.w;
  // A layer whose kh padded rows do not fit a band buffer (a row thousands
  // of columns wide) runs on the oracle itself.
  if (!global_average && p.w > 1 && p.kh * p.pitch() > kPlaneCap)
    return p.average ? nn::avgpool_reference(layer, in)
                     : nn::maxpool_reference(layer, in);
  Tensor16 out({layer.in_c, static_cast<int>(p.oh), static_cast<int>(p.ow)},
               no_init);
  auto* kernel = global_average ? pool_global_average
                 : p.w == 1       ? pool_column
                                  : pool_bands;
  for_each_range(in.size() < kSerialBelow ? nullptr : pool, layer.in_c,
                 [&](std::int64_t c0, std::int64_t c1) {
                   kernel(p, in.data(), out.data(), c0, c1);
                 });
  return out;
}

Tensor16 add_relu_layer(const Layer& layer, const Tensor16& a,
                        const Tensor16& b, ThreadPool* pool) {
  if (a.dims() != b.dims())
    throw ConfigError(layer.name + ": residual input shape mismatch");
  Tensor16 out(a.dims(), no_init);
  for_each_range(a.size() < kSerialBelow ? nullptr : pool, a.size(),
                 [&](std::int64_t lo, std::int64_t hi) {
                   simd::add_relu_i16(a.data() + lo, b.data() + lo,
                                      out.data() + lo, hi - lo);
                 });
  return out;
}

}  // namespace ftdl::runtime
