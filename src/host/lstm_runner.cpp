#include "host/lstm_runner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/fixed_point.h"
#include "common/rng.h"
#include "nn/reference.h"

namespace ftdl::host {

namespace {

constexpr int kGateInFracBits = 12;   // Q4.12 gate pre-activation
constexpr int kGateOutFracBits = 14;  // Q1.14 gate activation
constexpr int kLutBits = 9;           // 512 intervals, 513 knots
constexpr int kLutSize = 1 << kLutBits;

/// Knot table for f over the Q4.12 input range [-8, 8]; lookups linearly
/// interpolate between knots, keeping the error well under one output LSB
/// of typical gate activations.
std::array<std::int16_t, kLutSize + 1> build_lut(double (*f)(double)) {
  std::array<std::int16_t, kLutSize + 1> lut{};
  for (int i = 0; i <= kLutSize; ++i) {
    const double x_fixed = double(i) / kLutSize * 65536.0 - 32768.0;
    const double x = x_fixed / double(1 << kGateInFracBits);
    const double y = f(x);
    lut[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(std::clamp(
        std::lround(y * double(1 << kGateOutFracBits)),
        long(std::numeric_limits<std::int16_t>::min()),
        long(std::numeric_limits<std::int16_t>::max())));
  }
  return lut;
}

std::int16_t lookup(const std::array<std::int16_t, kLutSize + 1>& lut,
                    std::int16_t x) {
  const int u = int(x) + 32768;                    // 0 .. 65535
  const int idx = u >> (16 - kLutBits);            // knot index
  const int frac = u & ((1 << (16 - kLutBits)) - 1);
  const int a = lut[static_cast<std::size_t>(idx)];
  const int b = lut[static_cast<std::size_t>(idx + 1)];
  return static_cast<std::int16_t>(
      a + ((b - a) * frac >> (16 - kLutBits)));
}

}  // namespace

std::int16_t sigmoid_q(std::int16_t x) {
  static const auto lut =
      build_lut([](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  return lookup(lut, x);
}

std::int16_t tanh_q(std::int16_t x) {
  static const auto lut = build_lut([](double v) { return std::tanh(v); });
  return lookup(lut, x);
}

void lstm_cell_update(const nn::Tensor16& pre_i, const nn::Tensor16& pre_f,
                      const nn::Tensor16& pre_g, const nn::Tensor16& pre_o,
                      LstmCellState& state) {
  const std::int64_t n = state.c.size();
  FTDL_ASSERT(state.h.size() == n && pre_i.size() == n && pre_f.size() == n &&
              pre_g.size() == n && pre_o.size() == n);

  for (std::int64_t k = 0; k < n; ++k) {
    const acc_t i_g = sigmoid_q(pre_i[k]);  // Q1.14
    const acc_t f_g = sigmoid_q(pre_f[k]);
    const acc_t g_g = tanh_q(pre_g[k]);
    const acc_t o_g = sigmoid_q(pre_o[k]);

    // c' = f*c + i*g, with products rescaled back to Q4.12.
    const acc_t fc = (f_g * acc_t{state.c[k]}) >> kGateOutFracBits;
    const acc_t ig = (i_g * g_g) >> (2 * kGateOutFracBits - kGateInFracBits);
    const std::int16_t c_new = requantize(fc + ig, 0);
    state.c[k] = c_new;

    // h' = o * tanh(c'), rescaled to Q4.12.
    const acc_t th = tanh_q(c_new);  // Q1.14
    state.h[k] = requantize(
        (o_g * th) >> (2 * kGateOutFracBits - kGateInFracBits), 0);
  }
}

LstmWeights LstmWeights::random_for(const LstmSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  LstmWeights w;
  const std::vector<int> dims = {spec.hidden_size,
                                 spec.input_size + spec.hidden_size};
  for (nn::Tensor16* t : {&w.w_i, &w.w_f, &w.w_g, &w.w_o}) {
    *t = nn::Tensor16(dims);
    t->fill_random(rng, 15);
  }
  return w;
}

std::vector<nn::Tensor16> run_lstm_sequence(
    const LstmSpec& spec, const LstmWeights& weights,
    const std::vector<nn::Tensor16>& inputs) {
  if (spec.input_size <= 0 || spec.hidden_size <= 0)
    throw ConfigError("LSTM sizes must be positive");
  for (const nn::Tensor16* t :
       {&weights.w_i, &weights.w_f, &weights.w_g, &weights.w_o}) {
    if (t->dims() !=
        std::vector<int>{spec.hidden_size, spec.input_size + spec.hidden_size})
      throw ConfigError("LSTM weight shape mismatch");
  }

  LstmCellState state{nn::Tensor16({spec.hidden_size}),
                      nn::Tensor16({spec.hidden_size})};
  std::vector<nn::Tensor16> outputs;
  outputs.reserve(inputs.size());

  // Each gate is one MM layer over the stacked column [x_t ; h_{t-1}].
  const nn::Layer gate = nn::make_matmul(
      "lstm_gate", spec.input_size + spec.hidden_size, spec.hidden_size, 1);
  nn::Tensor16 xh({spec.input_size + spec.hidden_size, 1});
  const auto pre_activation = [&](const nn::Tensor16& w) {
    return nn::requantize_output(gate, nn::matmul_reference(gate, xh, w),
                                 spec.pre_activation_shift);
  };
  for (const nn::Tensor16& x : inputs) {
    if (x.dims() != std::vector<int>{spec.input_size})
      throw ConfigError("LSTM input vector shape mismatch");
    std::copy(state.h.data(), state.h.data() + state.h.size(),
              std::copy(x.data(), x.data() + x.size(), xh.data()));
    lstm_cell_update(pre_activation(weights.w_i), pre_activation(weights.w_f),
                     pre_activation(weights.w_g), pre_activation(weights.w_o),
                     state);
    outputs.push_back(state.h);
  }
  return outputs;
}

}  // namespace ftdl::host
