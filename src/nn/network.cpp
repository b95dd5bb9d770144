#include "nn/network.h"

#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace ftdl::nn {

std::vector<Layer> Network::overlay_layers() const {
  std::vector<Layer> out;
  for (const Layer& l : layers_) {
    if (l.on_overlay()) out.push_back(l);
  }
  return out;
}

std::vector<std::string> Network::resolved_inputs(std::size_t i) const {
  FTDL_ASSERT(i < layers_.size());
  const Layer& l = layers_[i];
  if (!l.input_names.empty()) return l.input_names;
  if (i == 0) return {kNetworkInput};
  return {layers_[i - 1].name};
}

std::vector<std::size_t> Network::last_uses() const {
  std::unordered_map<std::string, std::size_t> last;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    for (const std::string& in : resolved_inputs(i)) last[in] = i;
  const auto of = [&](const std::string& name) {
    const auto it = last.find(name);
    return it == last.end() ? layers_.size() : it->second;
  };
  std::vector<std::size_t> uses{of(kNetworkInput)};
  for (const Layer& l : layers_) uses.push_back(of(l.name));
  return uses;
}

std::vector<std::string> Network::sink_names() const {
  const std::vector<std::size_t> last = last_uses();
  std::vector<std::string> sinks;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    if (last[i + 1] == layers_.size()) sinks.push_back(layers_[i].name);
  return sinks;
}

int Network::find(const std::string& name) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Network::validate_graph() const {
  // The network input's name is taken: a layer named so would make every
  // reference to it ambiguous.
  std::unordered_set<std::string> seen{kNetworkInput};
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    if (!seen.insert(l.name).second)
      throw ConfigError(name_ + ": duplicate layer name " + l.name);
    const std::vector<std::string> inputs = resolved_inputs(i);
    // A concat joins any number of inputs and the residual add two; every
    // other layer reads one, so the executor would drop the rest.
    const std::size_t arity =
        l.kind == LayerKind::Ewop && l.ewop_op == EwopOp::AddRelu ? 2 : 1;
    if (l.kind != LayerKind::Concat && inputs.size() != arity)
      throw ConfigError(name_ + ": layer " + l.name + " needs exactly " +
                        std::to_string(arity) + " input(s), has " +
                        std::to_string(inputs.size()));
    for (const std::string& in : inputs) {
      if (!seen.contains(in))
        throw ConfigError(name_ + ": layer " + l.name +
                          " references unknown or later layer " + in);
    }
  }
}

NetworkStats Network::stats() const {
  NetworkStats s;
  for (const Layer& l : layers_) {
    s.conv_ops += l.conv_ops();
    s.mm_ops += l.mm_ops();
    // A fused ReLU on a CONV/MM layer is host-side EWOP work.
    s.ewop_ops += l.ewop_ops();
    s.weight_words += l.weight_count();
  }
  return s;
}

}  // namespace ftdl::nn
