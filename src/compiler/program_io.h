// Ahead-of-time compilation artifacts: save/load compiled layer programs.
//
// A deployed FTDL system compiles once and ships the controller instruction
// streams plus the mapping metadata. The text format is line-based
// (key=value), human-diffable, and versioned. Loading re-runs the
// analytical model on the stored mapping, then statically verifies the
// stored stream against it (compiler/program_verify.h) — a corrupted or
// hand-edited artifact cannot silently disagree with itself, and it fails
// with the same diagnostics compile_layer would emit.
//
// The strict key=value reader and the layer-key codec are shared with the
// `ftdl-network` bundle (analyze/network_io.h). The loaders throw only
// ftdl::Error on bad input; docs/verification.md "Loading artifacts" lists
// the grammar and value domains.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/codegen.h"

namespace ftdl::compiler {

/// The key=value lines of one text artifact, read strictly: a line without
/// '=' or a repeated key is rejected ('#' and blank lines are skipped), and
/// each accessor checks the whole value. Every failure throws ftdl::Error
/// "<artifact>: <key>: <what>".
class KeyValueReader {
 public:
  KeyValueReader(const std::string& text, std::string artifact);

  const std::string& str(const std::string& key) const;
  /// A base-10 integer in [lo, hi] (parse_int_strict).
  std::int64_t integer(const std::string& key, std::int64_t lo,
                       std::int64_t hi) const;
  /// `n` integers in [lo, hi]; with `rest`, then a non-empty name stored
  /// there, else nothing.
  std::vector<std::int64_t> integers(const std::string& key, std::size_t n,
                                     std::int64_t lo, std::int64_t hi,
                                     std::string* rest = nullptr) const;
  /// `0` or `1`.
  bool flag(const std::string& key) const;
  /// One of an enum's declared values, 0 through `last`.
  template <typename Enum>
  Enum enumerator(const std::string& key, Enum last) const {
    return static_cast<Enum>(integer(key, 0, static_cast<std::int64_t>(last)));
  }
  [[noreturn]] void fail(const std::string& key, const std::string& what) const;

 private:
  std::string artifact_;
  std::map<std::string, std::string> kv_;
};

/// The six layer keys both formats write (`name kind geom mm relu repeat`)
/// under `prefix` ("layer." in a program, "layer.<i>." in a bundle).
std::string serialize_layer_keys(const nn::Layer& layer,
                                 const std::string& prefix);

/// Reads the six layer keys back; the layer must pass nn::validate and the
/// magnitude caps that keep its derived counts within int64.
nn::Layer parse_layer_keys(const KeyValueReader& kv, const std::string& prefix);

/// Serializes a program to its text form.
std::string serialize_program(const LayerProgram& program);

/// Parses a serialized program and re-validates it against `config`
/// (re-evaluates the analytical model, regenerates and compares the
/// instruction stream). Throws ftdl::Error on version/format problems and
/// ftdl::ConfigError on semantic mismatches.
LayerProgram deserialize_program(const std::string& text,
                                 const arch::OverlayConfig& config);

/// File convenience wrappers (common/file_io.h).
void save_program(const LayerProgram& program, const std::string& path);
LayerProgram load_program(const std::string& path,
                          const arch::OverlayConfig& config);

}  // namespace ftdl::compiler
