// Layer descriptors and operation accounting.
//
// FTDL partitions DL computation into three sub-workload classes (Table I):
// convolution (CONV), matrix multiply (MM) and element-wise operations
// (EWOP). CONV and MM run on the overlay; EWOP (activations, pooling,
// residual adds, gates) runs on the host CPU in a pipelined fashion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftdl::nn {

enum class LayerKind {
  Conv,      ///< 2D convolution (may carry a fused host-side ReLU)
  Depthwise, ///< depthwise 2D convolution: one filter per channel
  MatMul,    ///< fully-connected / LSTM gate matrix: out = W * act
  Pool,      ///< max/avg pooling (EWOP class, host)
  Ewop,      ///< explicit element-wise stage with a given op count (host)
  Concat,    ///< channel-wise concatenation (host, zero arithmetic ops)
};

const char* to_string(LayerKind k);

/// Semantics of pooling (runtime executor).
enum class PoolOp { Max, Avg };

/// Semantics of an Ewop layer for the functional runtime. Layers tagged
/// Generic carry only an op count (host work modeling) and are identity in
/// the runtime.
enum class EwopOp {
  Generic,  ///< op-count only (e.g. normalization stages of seqCNN)
  AddRelu,  ///< residual add of two inputs followed by ReLU (ResNet)
};

/// One layer of a network. A plain aggregate (no invariant beyond positive
/// extents) — construct through the factory functions below which validate.
struct Layer {
  std::string name;
  LayerKind kind = LayerKind::Conv;

  // CONV / Pool geometry (activations are CHW, batch 1).
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0;
  int kh = 0, kw = 0;
  int stride = 1;
  int pad = 0;

  // MM geometry, paper convention: out[N][P] += W[N][M] * act[M][P]
  // (M = reduction / input features, N = output features, P = columns).
  std::int64_t mm_m = 0, mm_n = 0, mm_p = 0;

  /// Explicit op count for Ewop layers.
  std::int64_t explicit_ewop_ops = 0;

  /// Fused host-side ReLU after this layer (adds EWOP ops).
  bool relu = false;

  /// How many times this layer executes per inference (e.g. LSTM steps).
  int repeat = 1;

  /// Dataflow inputs: names of producer layers, or nn::kNetworkInput for
  /// the network input tensor. Empty means "the previous layer in the
  /// list" (sequential chaining), keeping linear networks terse.
  std::vector<std::string> input_names;

  PoolOp pool_op = PoolOp::Max;
  EwopOp ewop_op = EwopOp::Generic;

  // ---- derived ------------------------------------------------------------

  int out_h() const;
  int out_w() const;

  /// Multiply-accumulate count per single execution (CONV/MM only, else 0).
  std::int64_t macs() const;

  /// Total ops per inference in the paper's accounting: 2 ops per MAC for
  /// CONV/MM; for Pool, kh*kw ops per output; Ewop uses the explicit count;
  /// a fused ReLU adds one op per output element. Includes `repeat`.
  std::int64_t conv_ops() const;
  std::int64_t mm_ops() const;
  std::int64_t ewop_ops() const;
  std::int64_t total_ops() const { return conv_ops() + mm_ops() + ewop_ops(); }

  /// Unique weight words (shared across `repeat` executions).
  std::int64_t weight_count() const;

  /// Output elements per single execution.
  std::int64_t out_elems() const;

  /// True for layers the FTDL overlay executes (CONV, depthwise, MM).
  bool on_overlay() const {
    return kind == LayerKind::Conv || kind == LayerKind::Depthwise ||
           kind == LayerKind::MatMul;
  }
};

/// Throws ftdl::ConfigError unless `l` is well formed for its kind: positive
/// extents, stride and kernel, and a kernel that fits the padded input for
/// CONV/DWCONV/POOL; output channels for CONV (equal to the input channels
/// for DWCONV); positive MM extents; a positive repeat. The factories below
/// and the artifact loaders (compiler/program_io.h) call it.
void validate(const Layer& l);

/// 2D convolution; validates extents and that the kernel covers the input.
Layer make_conv(const std::string& name, int in_c, int in_h, int in_w,
                int out_c, int k, int stride, int pad, bool relu = true);

/// Depthwise convolution: `channels` independent k x k filters (MobileNet
/// style). Note the overlay schedules it poorly by design: no loop is
/// weight-only, so the activation-sharing D2 columns cannot be split.
Layer make_depthwise(const std::string& name, int channels, int in_h,
                     int in_w, int k, int stride, int pad, bool relu = true);

/// Non-square-kernel convolution.
Layer make_conv2(const std::string& name, int in_c, int in_h, int in_w,
                 int out_c, int kh, int kw, int stride, int pad,
                 bool relu = true);

/// Matrix multiply out[N][P] = W[N][M] x act[M][P].
Layer make_matmul(const std::string& name, std::int64_t m, std::int64_t n,
                  std::int64_t p, bool relu = false, int repeat = 1);

/// Pooling layer (host EWOP).
Layer make_pool(const std::string& name, int in_c, int in_h, int in_w, int k,
                int stride, int pad = 0);

/// Non-square pooling window (e.g. max-over-time in sequence models).
Layer make_pool2(const std::string& name, int in_c, int in_h, int in_w, int kh,
                 int kw, int stride, int pad = 0);

/// Explicit element-wise stage with `ops` operations per inference.
Layer make_ewop(const std::string& name, std::int64_t ops);

/// Channel-wise concatenation of the named producer layers.
Layer make_concat(const std::string& name, std::vector<std::string> inputs);

/// Residual add + ReLU over the two named producers (ResNet-style).
/// Counts 2 ops per element.
Layer make_add_relu(const std::string& name, std::int64_t elems,
                    std::vector<std::string> inputs);

/// Name designating the network input tensor in Layer::input_names.
inline constexpr const char* kNetworkInput = "@input";

/// Returns `layer` with explicit dataflow inputs (builder-style helper).
Layer with_inputs(Layer layer, std::vector<std::string> inputs);

}  // namespace ftdl::nn
