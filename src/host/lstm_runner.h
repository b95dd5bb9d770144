// Quantized LSTM sequence execution.
//
// The overlay computes the gate matrices (MM workloads, Table I's seqLSTM);
// the host applies the cell nonlinearities. This runner executes a whole
// sequence the way the deployed system would: per step, four W[H][I+H] x
// [x_t ; h_{t-1}] products (nn::matmul_reference), requantized to Q4.12 gate
// pre-activations (nn::requantize_output), then the cell update. Its
// nonlinearities use 512-entry lookup tables over Q4.12 inputs producing
// Q1.14 outputs, the standard fixed-point treatment on embedded hosts.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace ftdl::host {

/// LUT sigmoid: Q4.12 in -> Q1.14 out, monotone, sigmoid(0) = 0.5.
std::int16_t sigmoid_q(std::int16_t x);

/// LUT tanh: Q4.12 in -> Q1.14 out, odd function, tanh(0) = 0.
std::int16_t tanh_q(std::int16_t x);

/// One LSTM cell update on the quantized domain:
///   c' = f*c + i*g ; h' = o * tanh(c')
/// where i/f/o are sigmoid(pre) and g is tanh(pre), all Q4.12 inputs with
/// as many elements as the state; c' and h' (Q4.12) replace c and h.
struct LstmCellState {
  nn::Tensor16 c;  ///< cell state, Q4.12
  nn::Tensor16 h;  ///< hidden state, Q4.12
};
void lstm_cell_update(const nn::Tensor16& pre_i, const nn::Tensor16& pre_f,
                      const nn::Tensor16& pre_g, const nn::Tensor16& pre_o,
                      LstmCellState& state);

struct LstmSpec {
  int input_size = 0;
  int hidden_size = 0;
  /// Right-shift applied to the gate matmul accumulators to land in Q4.12.
  int pre_activation_shift = 8;
};

/// Gate weights, reference MM layout W[N][M] with N = hidden, M = input +
/// hidden (x first, then h).
struct LstmWeights {
  nn::Tensor16 w_i, w_f, w_g, w_o;

  /// Deterministic random weights for a spec.
  static LstmWeights random_for(const LstmSpec& spec, std::uint64_t seed);
};

/// Runs `inputs` (one {input_size} vector per step, Q4.12) through the cell;
/// returns h_t per step (Q4.12). State starts at zero. Throws
/// ftdl::ConfigError on shape mismatches.
std::vector<nn::Tensor16> run_lstm_sequence(const LstmSpec& spec,
                                            const LstmWeights& weights,
                                            const std::vector<nn::Tensor16>& inputs);

}  // namespace ftdl::host
