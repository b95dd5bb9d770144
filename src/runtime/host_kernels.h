// Host EWOP kernels of the runtime: the overlay-layer epilogue, pooling and
// the residual add.
//
// The executor runs all three behind the overlay (Sec. V-A's host EWOP
// stage), the way DLA chains pooling and activation behind its PE array:
//
//   * the epilogue requantises the accumulators CachedLayerSim::run wrote,
//     using the max |acc| that run reported instead of a second scan; one
//     pass of saturate48 -> arithmetic >> (floor) -> int16 clamp -> ReLU.
//     When max |acc| < 2^31, saturate48 is the identity and every
//     accumulator is its low 32 bits, so the pass narrows to int32 vector
//     lanes (simd::requantize_i32); larger values take the scalar formula;
//   * pooling is separable. A band of input rows is copied into a per-task
//     buffer on the stack, padded with the reduction's identity (-32768 for
//     max, 0 for a sum), so no window is clipped after that. Then a
//     vertical max or int32 sum over each window's rows (contiguous
//     max_epi16 or widening adds; at stride 1 over the whole band at once),
//     then one horizontal pass over the reduced rows (simd::window_max_i16:
//     shifted loads at stride 1, even/odd columns at stride 2). A global
//     average (the window is the whole unpadded plane, as in GoogLeNet's
//     pool5/7x7_avg) sums each channel's plane in one pass; a 1-wide plane
//     reduces one contiguous run per output; a layer whose window rows do
//     not fit the buffer runs on the oracle;
//   * the residual add, relu(requantize(a + b, 0)) per element, is a
//     saturating int16 add then a max with 0 (simd::add_relu_i16).
//
// Each fans out over channel (the add: element) ranges on the pool it is
// given, serially below kSerialBelow elements, and is bit-identical to its
// oracle (nn::requantize_output, nn::maxpool_reference,
// nn::avgpool_reference, the add's per-element formula) at every pool size
// and with simd::set_enabled on or off, pinned by the sweeps in
// tests/test_runtime.cpp. None touches the heap.
#pragma once

#include <cstdint>

#include "nn/layer.h"
#include "nn/tensor.h"

namespace ftdl {
class ThreadPool;
}

namespace ftdl::runtime {

/// Element count below which a kernel runs serially on the caller: a pool
/// batch would cost more than it saves, and the serving runtime's small
/// layers stay off the pool. Counts the accumulators of a requantisation,
/// the input elements of a pooling and the outputs of an add.
inline constexpr std::int64_t kSerialBelow = std::int64_t{1} << 16;

/// nn::requantize_output(layer, acc, shift), given `max_abs`, the max |acc|
/// CachedLayerSim::run returned for `acc` (a magnitude: 2^63 for
/// INT64_MIN).
nn::Tensor16 requantize_layer(const nn::Layer& layer, const nn::AccTensor& acc,
                              std::uint64_t max_abs, int shift,
                              ThreadPool* pool);

/// nn::maxpool_reference or nn::avgpool_reference of `in` ({in_c, in_h,
/// in_w}), by layer.pool_op: an empty window gives -32768 (max) or 0
/// (average), and an average truncates sum / count over the clipped area.
nn::Tensor16 pool_layer(const nn::Layer& layer, const nn::Tensor16& in,
                        ThreadPool* pool);

/// relu(requantize(a[i] + b[i], 0)) for every element: the residual add of
/// an EwopOp::AddRelu layer. Throws ConfigError when a and b differ in
/// shape.
nn::Tensor16 add_relu_layer(const nn::Layer& layer, const nn::Tensor16& a,
                            const nn::Tensor16& b, ThreadPool* pool);

}  // namespace ftdl::runtime
