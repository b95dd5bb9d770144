#include "nn/layer.h"

#include "common/error.h"

namespace ftdl::nn {

const char* to_string(LayerKind k) {
  switch (k) {
    case LayerKind::Conv: return "CONV";
    case LayerKind::Depthwise: return "DWCONV";
    case LayerKind::MatMul: return "MM";
    case LayerKind::Pool: return "POOL";
    case LayerKind::Ewop: return "EWOP";
    case LayerKind::Concat: return "CONCAT";
  }
  return "?";
}

int Layer::out_h() const {
  if (kind != LayerKind::Conv && kind != LayerKind::Depthwise &&
      kind != LayerKind::Pool)
    return 0;
  return (in_h + 2 * pad - kh) / stride + 1;
}

int Layer::out_w() const {
  if (kind != LayerKind::Conv && kind != LayerKind::Depthwise &&
      kind != LayerKind::Pool)
    return 0;
  return (in_w + 2 * pad - kw) / stride + 1;
}

std::int64_t Layer::macs() const {
  switch (kind) {
    case LayerKind::Conv:
      return std::int64_t{out_c} * out_h() * out_w() * in_c * kh * kw;
    case LayerKind::Depthwise:
      return std::int64_t{in_c} * out_h() * out_w() * kh * kw;
    case LayerKind::MatMul:
      return mm_m * mm_n * mm_p;
    default:
      return 0;
  }
}

std::int64_t Layer::conv_ops() const {
  return (kind == LayerKind::Conv || kind == LayerKind::Depthwise)
             ? 2 * macs() * repeat
             : 0;
}

std::int64_t Layer::mm_ops() const {
  return kind == LayerKind::MatMul ? 2 * macs() * repeat : 0;
}

std::int64_t Layer::ewop_ops() const {
  std::int64_t ops = 0;
  switch (kind) {
    case LayerKind::Pool:
      // MLPerf-style accounting: one op per pooled output element (the
      // window comparisons are not arithmetic ops). This matches the EWOP
      // fractions of Table I.
      ops = out_elems();
      break;
    case LayerKind::Ewop:
      ops = explicit_ewop_ops;
      break;
    case LayerKind::Concat:
      ops = 0;  // data movement only
      break;
    default:
      break;
  }
  if (relu) ops += out_elems();
  return ops * repeat;
}

std::int64_t Layer::weight_count() const {
  switch (kind) {
    case LayerKind::Conv:
      return std::int64_t{out_c} * in_c * kh * kw;
    case LayerKind::Depthwise:
      return std::int64_t{in_c} * kh * kw;
    case LayerKind::MatMul:
      return mm_n * mm_m;
    default:
      return 0;
  }
}

std::int64_t Layer::out_elems() const {
  switch (kind) {
    case LayerKind::Conv:
    case LayerKind::Depthwise:
    case LayerKind::Pool:
      return std::int64_t{(kind == LayerKind::Conv) ? out_c : in_c} * out_h() *
             out_w();
    case LayerKind::MatMul:
      return mm_n * mm_p;
    case LayerKind::Ewop:
    case LayerKind::Concat:
      return 0;
  }
  return 0;
}

void validate(const Layer& l) {
  const bool windowed = l.kind == LayerKind::Conv ||
                        l.kind == LayerKind::Depthwise ||
                        l.kind == LayerKind::Pool;
  if (windowed) {
    if (l.in_c <= 0 || l.in_h <= 0 || l.in_w <= 0)
      throw ConfigError(l.name + ": input extents must be positive");
    if (l.kh <= 0 || l.kw <= 0 || l.stride <= 0 || l.pad < 0)
      throw ConfigError(l.name + ": bad kernel geometry");
    if (l.out_h() <= 0 || l.out_w() <= 0)
      throw ConfigError(l.name + ": kernel does not fit input");
  }
  if (l.kind == LayerKind::Conv && l.out_c <= 0)
    throw ConfigError(l.name + ": output channels must be positive");
  if (l.kind == LayerKind::Depthwise && l.out_c != l.in_c)
    throw ConfigError(l.name + ": depthwise output channels must equal input");
  if (l.kind == LayerKind::MatMul &&
      (l.mm_m <= 0 || l.mm_n <= 0 || l.mm_p <= 0))
    throw ConfigError(l.name + ": matmul extents must be positive");
  if (l.repeat <= 0) throw ConfigError(l.name + ": repeat must be positive");
}

Layer make_conv(const std::string& name, int in_c, int in_h, int in_w,
                int out_c, int k, int stride, int pad, bool relu) {
  return make_conv2(name, in_c, in_h, in_w, out_c, k, k, stride, pad, relu);
}

Layer make_depthwise(const std::string& name, int channels, int in_h,
                     int in_w, int k, int stride, int pad, bool relu) {
  Layer l;
  l.name = name;
  l.kind = LayerKind::Depthwise;
  l.in_c = channels;
  l.out_c = channels;  // one filter per channel
  l.in_h = in_h;
  l.in_w = in_w;
  l.kh = k;
  l.kw = k;
  l.stride = stride;
  l.pad = pad;
  l.relu = relu;
  validate(l);
  return l;
}

Layer make_conv2(const std::string& name, int in_c, int in_h, int in_w,
                 int out_c, int kh, int kw, int stride, int pad, bool relu) {
  Layer l;
  l.name = name;
  l.kind = LayerKind::Conv;
  l.in_c = in_c;
  l.in_h = in_h;
  l.in_w = in_w;
  l.out_c = out_c;
  l.kh = kh;
  l.kw = kw;
  l.stride = stride;
  l.pad = pad;
  l.relu = relu;
  validate(l);
  return l;
}

Layer make_matmul(const std::string& name, std::int64_t m, std::int64_t n,
                  std::int64_t p, bool relu, int repeat) {
  Layer l;
  l.name = name;
  l.kind = LayerKind::MatMul;
  l.mm_m = m;
  l.mm_n = n;
  l.mm_p = p;
  l.relu = relu;
  l.repeat = repeat;
  validate(l);
  return l;
}

Layer make_pool(const std::string& name, int in_c, int in_h, int in_w, int k,
                int stride, int pad) {
  return make_pool2(name, in_c, in_h, in_w, k, k, stride, pad);
}

Layer make_pool2(const std::string& name, int in_c, int in_h, int in_w, int kh,
                 int kw, int stride, int pad) {
  Layer l;
  l.name = name;
  l.kind = LayerKind::Pool;
  l.in_c = in_c;
  l.in_h = in_h;
  l.in_w = in_w;
  l.kh = kh;
  l.kw = kw;
  l.stride = stride;
  l.pad = pad;
  validate(l);
  return l;
}

Layer make_ewop(const std::string& name, std::int64_t ops) {
  if (ops < 0) throw ConfigError(name + ": EWOP op count must be non-negative");
  Layer l;
  l.name = name;
  l.kind = LayerKind::Ewop;
  l.explicit_ewop_ops = ops;
  return l;
}

Layer make_concat(const std::string& name, std::vector<std::string> inputs) {
  if (inputs.size() < 2)
    throw ConfigError(name + ": concat needs at least two inputs");
  Layer l;
  l.name = name;
  l.kind = LayerKind::Concat;
  l.input_names = std::move(inputs);
  return l;
}

Layer make_add_relu(const std::string& name, std::int64_t elems,
                    std::vector<std::string> inputs) {
  if (inputs.size() != 2)
    throw ConfigError(name + ": residual add needs exactly two inputs");
  Layer l = make_ewop(name, 2 * elems);
  l.ewop_op = EwopOp::AddRelu;
  l.input_names = std::move(inputs);
  return l;
}

Layer with_inputs(Layer layer, std::vector<std::string> inputs) {
  layer.input_names = std::move(inputs);
  return layer;
}

}  // namespace ftdl::nn
