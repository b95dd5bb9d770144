#include "nn/reference.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace ftdl::nn {

AccTensor conv2d_reference(const Layer& layer, const Tensor16& input,
                           const Tensor16& weights) {
  FTDL_ASSERT(layer.kind == LayerKind::Conv);
  FTDL_ASSERT(input.dims() ==
              (std::vector<int>{layer.in_c, layer.in_h, layer.in_w}));
  FTDL_ASSERT(weights.dims() ==
              (std::vector<int>{layer.out_c, layer.in_c, layer.kh, layer.kw}));

  const int oh = layer.out_h(), ow = layer.out_w();
  AccTensor out({layer.out_c, oh, ow});
  for (int m = 0; m < layer.out_c; ++m) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        acc_t acc = 0;
        for (int n = 0; n < layer.in_c; ++n) {
          for (int r = 0; r < layer.kh; ++r) {
            const int iy = y * layer.stride + r - layer.pad;
            if (iy < 0 || iy >= layer.in_h) continue;
            for (int s = 0; s < layer.kw; ++s) {
              const int ix = x * layer.stride + s - layer.pad;
              if (ix < 0 || ix >= layer.in_w) continue;
              acc = macc(acc, weights.at(m, n, r, s), input.at(n, iy, ix));
            }
          }
        }
        out.at(m, y, x) = acc;
      }
    }
  }
  return out;
}

AccTensor depthwise_reference(const Layer& layer, const Tensor16& input,
                              const Tensor16& weights) {
  FTDL_ASSERT(layer.kind == LayerKind::Depthwise);
  FTDL_ASSERT(input.dims() ==
              (std::vector<int>{layer.in_c, layer.in_h, layer.in_w}));
  FTDL_ASSERT(weights.dims() ==
              (std::vector<int>{layer.in_c, layer.kh, layer.kw}));

  const int oh = layer.out_h(), ow = layer.out_w();
  AccTensor out({layer.in_c, oh, ow});
  for (int c = 0; c < layer.in_c; ++c) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        acc_t acc = 0;
        for (int r = 0; r < layer.kh; ++r) {
          const int iy = y * layer.stride + r - layer.pad;
          if (iy < 0 || iy >= layer.in_h) continue;
          for (int s = 0; s < layer.kw; ++s) {
            const int ix = x * layer.stride + s - layer.pad;
            if (ix < 0 || ix >= layer.in_w) continue;
            acc = macc(acc, weights.at(c, r, s), input.at(c, iy, ix));
          }
        }
        out.at(c, y, x) = acc;
      }
    }
  }
  return out;
}

AccTensor matmul_reference(const Layer& layer, const Tensor16& act,
                           const Tensor16& weights) {
  FTDL_ASSERT(layer.kind == LayerKind::MatMul);
  const int m_dim = static_cast<int>(layer.mm_m);
  const int n_dim = static_cast<int>(layer.mm_n);
  const int p_dim = static_cast<int>(layer.mm_p);
  FTDL_ASSERT(weights.dims() == (std::vector<int>{n_dim, m_dim}));
  FTDL_ASSERT(act.dims() == (std::vector<int>{m_dim, p_dim}));

  AccTensor out({n_dim, p_dim});
  for (int n = 0; n < n_dim; ++n) {
    for (int p = 0; p < p_dim; ++p) {
      acc_t acc = 0;
      for (int m = 0; m < m_dim; ++m) {
        acc = macc(acc, weights.at(n, m), act.at(m, p));
      }
      out.at(n, p) = acc;
    }
  }
  return out;
}

Tensor16 requantize_output(const Layer& layer, const AccTensor& acc, int shift) {
  Tensor16 out(acc.dims());
  for (std::int64_t i = 0; i < acc.size(); ++i) {
    std::int16_t v = requantize(saturate48(acc[i]), shift);
    if (layer.relu) v = relu(v);
    out[i] = v;
  }
  return out;
}

namespace {

/// The input indices [lo, hi) one pooling window covers along an axis,
/// clipped to [0, n); empty when hi <= lo.
struct Window {
  int lo = 0, hi = 0;
};

Window clip_window(int o, int stride, int pad, int k, int n) {
  const int start = o * stride - pad;
  return {std::max(start, 0), std::min(start + k, n)};
}

template <typename Reduce>
Tensor16 pool_impl(const Layer& layer, const Tensor16& input, Reduce reduce,
                   std::int16_t init, bool average) {
  FTDL_ASSERT(layer.kind == LayerKind::Pool);
  FTDL_ASSERT(input.dims() ==
              (std::vector<int>{layer.in_c, layer.in_h, layer.in_w}));
  const int oh = layer.out_h(), ow = layer.out_w();
  Tensor16 out({layer.in_c, oh, ow});
  std::int16_t* o = out.data();
  const std::int64_t in_plane = std::int64_t{layer.in_h} * layer.in_w;
  for (int c = 0; c < layer.in_c; ++c) {
    const std::int16_t* plane = input.data() + c * in_plane;
    for (int y = 0; y < oh; ++y) {
      const Window wy =
          clip_window(y, layer.stride, layer.pad, layer.kh, layer.in_h);
      for (int x = 0; x < ow; ++x) {
        const Window wx =
            clip_window(x, layer.stride, layer.pad, layer.kw, layer.in_w);
        acc_t agg = init;
        for (int iy = wy.lo; iy < wy.hi; ++iy) {
          const std::int16_t* row = plane + std::int64_t{iy} * layer.in_w;
          for (int ix = wx.lo; ix < wx.hi; ++ix) agg = reduce(agg, row[ix]);
        }
        const int count =
            std::max(wy.hi - wy.lo, 0) * std::max(wx.hi - wx.lo, 0);
        if (average && count > 0) agg /= count;
        *o++ = static_cast<std::int16_t>(agg);
      }
    }
  }
  return out;
}

}  // namespace

Tensor16 maxpool_reference(const Layer& layer, const Tensor16& input) {
  return pool_impl(
      layer, input,
      [](acc_t a, std::int16_t b) { return std::max(a, acc_t{b}); },
      std::numeric_limits<std::int16_t>::min(), /*average=*/false);
}

Tensor16 avgpool_reference(const Layer& layer, const Tensor16& input) {
  return pool_impl(
      layer, input, [](acc_t a, std::int16_t b) { return a + b; }, 0,
      /*average=*/true);
}

}  // namespace ftdl::nn
