// Test oracle for the runtime: a serial forward pass over a network graph
// built only from the nn reference kernels (src/nn/reference.h). It shares
// nothing with ExecContext but calibrate_shift, so an executor output that
// equals it is pinned to the scalar arithmetic, layer by layer.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/network.h"
#include "nn/reference.h"
#include "runtime/executor.h"
#include "runtime/weight_store.h"

namespace ftdl {

struct ReferenceForward {
  nn::Tensor16 output;              ///< the graph's sink tensor
  std::vector<int> requant_shifts;  ///< per layer, in order; 0 for host layers
};

/// Runs `net` on `input` with the nn reference kernels: convs, depthwise and
/// MMs (a CHW input flattened to {M, P}), max/avg pooling, concat and
/// residual add-ReLU, each overlay layer requantised with the calibrated
/// shift at `target_bits`.
inline ReferenceForward reference_forward(
    const nn::Network& net, const runtime::WeightStore& weights,
    const nn::Tensor16& input,
    int target_bits = runtime::ExecOptions{}.target_magnitude_bits) {
  ReferenceForward result;
  std::unordered_map<std::string, nn::Tensor16> tensors;
  tensors[nn::kNetworkInput] = input;
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    const nn::Layer& layer = net.layers()[i];
    const std::vector<std::string> ins = net.resolved_inputs(i);
    const nn::Tensor16& in = tensors.at(ins.at(0));
    int shift = 0;
    nn::Tensor16 out;
    switch (layer.kind) {
      case nn::LayerKind::Conv:
      case nn::LayerKind::Depthwise:
      case nn::LayerKind::MatMul: {
        const nn::Tensor16& w = weights.get(layer);
        nn::AccTensor acc;
        if (layer.kind == nn::LayerKind::Conv) {
          acc = nn::conv2d_reference(layer, in, w);
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
        shift = runtime::calibrate_shift(acc, target_bits);
        out = nn::requantize_output(layer, acc, shift);
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
        std::int16_t* dst = out.data();
        for (const std::string& n : ins) {
          const nn::Tensor16& t = tensors.at(n);
          dst = std::copy_n(t.data(), t.size(), dst);
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
    result.requant_shifts.push_back(shift);
    tensors[layer.name] = std::move(out);
  }
  result.output = tensors.at(net.sink_names().at(0));
  return result;
}

}  // namespace ftdl
