// Text front-end: a line-based network description language for the ftdlc
// command-line compiler.
//
// Grammar (one statement per line; '#' starts a comment):
//
//   network NAME
//   input C H W
//   conv   NAME out=N k=K [kh=K kw=K] [stride=S] [pad=P] [norelu] [from=X]
//   depthwise NAME [k=K] [stride=S] [pad=P] [norelu] [from=X]
//   pool   NAME k=K [stride=S] [pad=P] [avg] [from=X]
//   fc     NAME out=N [relu] [from=X]
//   concat NAME from=A,B[,C...]
//   ewop   NAME ops=N [from=X]
//
// Layers chain sequentially unless `from=` names explicit producers
// (`@input` refers to the network input). Input channel counts and spatial
// extents are inferred from the producer's output shape, so a spec never
// repeats geometry.
#pragma once

#include <string>

#include "nn/network.h"

namespace ftdl::frontend {

/// Parses a network spec; throws ftdl::ConfigError with a line-numbered
/// message on any syntax or shape error. The returned network's dataflow
/// graph is validated.
nn::Network parse_network_spec(const std::string& text);

/// Reads `path` and parses it.
nn::Network parse_network_file(const std::string& path);

/// The network the tools' MODEL argument names: a path ending in `.ftdl`
/// is parsed as a spec (parse_network_file), anything else is a model-zoo
/// name (nn::model_by_name).
nn::Network load_model(const std::string& model);

}  // namespace ftdl::frontend
