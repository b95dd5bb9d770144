// A network = named sequence of layers, with the aggregate statistics the
// paper reports in Table I (op breakdown by class, 16-bit weight bytes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace ftdl::nn {

struct NetworkStats {
  std::int64_t conv_ops = 0;   ///< 2 ops per CONV MAC
  std::int64_t mm_ops = 0;     ///< 2 ops per MM MAC
  std::int64_t ewop_ops = 0;   ///< pooling / activations / explicit EWOP
  std::int64_t weight_words = 0;

  std::int64_t total_ops() const { return conv_ops + mm_ops + ewop_ops; }
  std::int64_t weight_bytes() const { return 2 * weight_words; }  // 16-bit

  double conv_fraction() const { return double(conv_ops) / double(total_ops()); }
  double mm_fraction() const { return double(mm_ops) / double(total_ops()); }
  double ewop_fraction() const { return double(ewop_ops) / double(total_ops()); }
};

class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<Layer>& layers() const { return layers_; }

  void add(Layer layer) { layers_.push_back(std::move(layer)); }

  /// Layers that run on the overlay (CONV and MM), in execution order.
  std::vector<Layer> overlay_layers() const;

  NetworkStats stats() const;

  // ---- dataflow graph ------------------------------------------------------

  /// The resolved producer names of layer `i`: explicit input_names, or the
  /// previous layer (kNetworkInput for the first layer) when empty.
  std::vector<std::string> resolved_inputs(std::size_t i) const;

  /// Index of the layer named `name`; -1 if absent.
  int find(const std::string& name) const;

  /// Names of the graph's sink layers — layers whose output no other layer
  /// consumes — in declaration order. A non-empty network always has at
  /// least one sink (the last-declared layer can never be consumed, since
  /// inputs only reference earlier layers); branching graphs may have
  /// several (multi-output heads). Callers that need THE network output
  /// (the feed-forward executor) must reject |sinks| != 1.
  std::vector<std::string> sink_names() const;

  /// Checks that layer names are unique, every input reference points to
  /// an earlier layer or the network input (the graph is a DAG by
  /// construction), and every layer has as many resolved inputs as it reads:
  /// two for a residual add (EwopOp::AddRelu), any number for a concat, one
  /// for every other layer. Throws ftdl::ConfigError on violations.
  void validate_graph() const;

 private:
  std::string name_;
  std::vector<Layer> layers_;
};

}  // namespace ftdl::nn
