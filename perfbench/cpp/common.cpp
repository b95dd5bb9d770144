#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/fixed_point.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/reference.h"

namespace perfbench {

using namespace ftdl;

double Outcome::get(const std::string& name) const {
  for (const auto* list : {&metrics, &layers, &report})
    for (const Metric& m : *list)
      if (m.name == name) return m.value;
  return std::numeric_limits<double>::quiet_NaN();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng a(seed);
  Rng b(a.next_u64() ^ (salt * 0xd1b54a32d192ed03ULL));
  return b.next_u64();
}

nn::Tensor16 make_input(const nn::Network& net, std::uint64_t seed) {
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 t = first.kind == nn::LayerKind::MatMul
                       ? nn::Tensor16({static_cast<int>(first.mm_m),
                                       static_cast<int>(first.mm_p)})
                       : nn::Tensor16({first.in_c, first.in_h, first.in_w});
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

runtime::ExecOptions sim_exec_options(int sim_jobs) {
  runtime::ExecOptions eo;
  eo.path = runtime::OverlayPath::CycleSim;
  eo.config.d1 = 4;
  eo.config.d2 = 2;
  eo.config.d3 = 3;
  eo.sim_jobs = sim_jobs;
  eo.collect_runs = false;
  return eo;
}

namespace {

/// Conv through nn::conv2d_reference, split by output channel over `pool`.
nn::AccTensor conv_reference_parallel(const nn::Layer& layer,
                                      const nn::Tensor16& in,
                                      const nn::Tensor16& w, ThreadPool& pool) {
  nn::AccTensor acc({layer.out_c, layer.out_h(), layer.out_w()});
  const int slices = pool.jobs();
  const int per = static_cast<int>(ceil_div(layer.out_c, slices));
  const std::int64_t plane = std::int64_t{layer.out_h()} * layer.out_w();
  const std::int64_t wsize = std::int64_t{layer.in_c} * layer.kh * layer.kw;
  pool.parallel_for(static_cast<std::size_t>(slices), [&](std::size_t s) {
    const int off = static_cast<int>(s) * per;
    const int n = std::min(per, layer.out_c - off);
    if (n <= 0) return;
    nn::Layer part = layer;
    part.out_c = n;
    nn::Tensor16 wp({n, layer.in_c, layer.kh, layer.kw});
    std::copy_n(w.data() + off * wsize, n * wsize, wp.data());
    const nn::AccTensor a = nn::conv2d_reference(part, in, wp);
    std::copy_n(a.data(), n * plane, acc.data() + off * plane);
  });
  return acc;
}

}  // namespace

nn::Tensor16 reference_forward(const nn::Network& net,
                               const runtime::WeightStore& weights,
                               const nn::Tensor16& input, int target_bits,
                               int threads) {
  ThreadPool pool(std::max(1, threads));
  std::unordered_map<std::string, nn::Tensor16> tensors;
  tensors[nn::kNetworkInput] = input;
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    const nn::Layer& layer = net.layers()[i];
    const std::vector<std::string> ins = net.resolved_inputs(i);
    const nn::Tensor16& in = tensors.at(ins.at(0));
    nn::Tensor16 out;
    switch (layer.kind) {
      case nn::LayerKind::Conv:
      case nn::LayerKind::Depthwise:
      case nn::LayerKind::MatMul: {
        const nn::Tensor16& w = weights.get(layer);
        nn::AccTensor acc;
        if (layer.kind == nn::LayerKind::Conv) {
          acc = conv_reference_parallel(layer, in, w, pool);
        } else if (layer.kind == nn::LayerKind::Depthwise) {
          acc = nn::depthwise_reference(layer, in, w);
        } else {
          nn::Tensor16 flat = in;
          if (in.dims().size() != 2) {
            flat = nn::Tensor16({static_cast<int>(layer.mm_m),
                                 static_cast<int>(layer.mm_p)});
            std::copy_n(in.data(), in.size(), flat.data());
          }
          acc = nn::matmul_reference(layer, flat, w);
        }
        out = nn::requantize_output(layer, acc,
                                    runtime::calibrate_shift(acc, target_bits));
        break;
      }
      case nn::LayerKind::Pool:
        out = layer.pool_op == nn::PoolOp::Max
                  ? nn::maxpool_reference(layer, in)
                  : nn::avgpool_reference(layer, in);
        break;
      case nn::LayerKind::Concat: {
        int channels = 0;
        for (const std::string& n : ins) channels += tensors.at(n).dims()[0];
        out = nn::Tensor16({channels, in.dims()[1], in.dims()[2]});
        std::int64_t at = 0;
        for (const std::string& n : ins) {
          const nn::Tensor16& t = tensors.at(n);
          std::copy_n(t.data(), t.size(), out.data() + at);
          at += t.size();
        }
        break;
      }
      case nn::LayerKind::Ewop:
        if (layer.ewop_op == nn::EwopOp::Generic) {
          out = in;
        } else {
          const nn::Tensor16& b = tensors.at(ins.at(1));
          out = nn::Tensor16(in.dims());
          for (std::int64_t k = 0; k < in.size(); ++k)
            out[k] = relu(requantize(acc_t{in[k]} + acc_t{b[k]}, 0));
        }
        break;
    }
    tensors[layer.name] = std::move(out);
  }
  return tensors.at(net.sink_names().front());
}

}  // namespace perfbench
