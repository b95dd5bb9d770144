#include "compiler/program_io.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "arch/isa.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/math_util.h"
#include "common/str_util.h"
#include "compiler/program_verify.h"

namespace ftdl::compiler {

namespace {

constexpr const char* kMagic = "ftdl-program";
constexpr int kVersion = 1;

// Value domains of the layer keys. The caps keep every count derived from
// a loaded layer or mapping (MACs, weights, tensor elements, cycles, each
// times `repeat` and the weight-group count) far from int64 overflow; real
// networks sit orders of magnitude below them.
constexpr std::int64_t kMaxExtent = std::int64_t{1} << 24;
constexpr std::int64_t kMaxRepeat = std::int64_t{1} << 16;
constexpr double kMaxLayerCount = double(std::int64_t{1} << 40);
constexpr double kMaxPaddedMacs = double(std::int64_t{1} << 44);

/// nn::validate plus the magnitude caps above (the CONV product also bounds
/// a DWCONV's MACs, whose out_c equals in_c).
void check_layer(const KeyValueReader& kv, const std::string& prefix,
                 const nn::Layer& l) {
  const std::string key =
      prefix + (l.kind == nn::LayerKind::MatMul ? "mm" : "geom");
  try {
    nn::validate(l);
  } catch (const ConfigError& e) {
    kv.fail(key, e.what());
  }
  const double macs =
      l.kind == nn::LayerKind::MatMul
          ? double(l.mm_m) * double(l.mm_n) * double(l.mm_p)
          : double(l.out_c) * l.out_h() * l.out_w() * l.in_c * l.kh * l.kw;
  const double elems = double(std::max(l.in_c, l.out_c)) *
                       std::max(l.in_h, l.out_h()) *
                       std::max(l.in_w, l.out_w());
  if (macs > kMaxLayerCount || elems > kMaxLayerCount)
    kv.fail(key, "layer too large");
}

}  // namespace

KeyValueReader::KeyValueReader(const std::string& text, std::string artifact)
    : artifact_(std::move(artifact)) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw Error(artifact_ + ": malformed line: " + line);
    if (!kv_.emplace(line.substr(0, eq), line.substr(eq + 1)).second)
      fail(line.substr(0, eq), "duplicate key");
  }
}

void KeyValueReader::fail(const std::string& key,
                          const std::string& what) const {
  throw Error(artifact_ + ": " + key + ": " + what);
}

const std::string& KeyValueReader::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) fail(key, "missing key");
  return it->second;
}

std::int64_t KeyValueReader::integer(const std::string& key, std::int64_t lo,
                                     std::int64_t hi) const {
  return integers(key, 1, lo, hi)[0];
}

std::vector<std::int64_t> KeyValueReader::integers(const std::string& key,
                                                   std::size_t n,
                                                   std::int64_t lo,
                                                   std::int64_t hi,
                                                   std::string* rest) const {
  std::istringstream in(str(key));
  std::vector<std::int64_t> out(n);
  std::string tok;
  bool ok = true;
  for (std::int64_t& v : out) {
    ok = ok && (in >> tok) && parse_int_strict(tok.c_str(), lo, hi, &v);
  }
  tok.clear();
  std::getline(in >> std::ws, tok);  // the remainder, if any
  if (!ok || tok.empty() != (rest == nullptr))
    fail(key, strformat("'%s' is not %s in [%lld, %lld]%s", str(key).c_str(),
                        n == 1 ? "an integer"
                               : strformat("%zu integers", n).c_str(),
                        static_cast<long long>(lo), static_cast<long long>(hi),
                        rest ? " and a name" : ""));
  if (rest) *rest = tok;
  return out;
}

bool KeyValueReader::flag(const std::string& key) const {
  return integer(key, 0, 1) == 1;
}

std::string serialize_layer_keys(const nn::Layer& l,
                                 const std::string& prefix) {
  const char* p = prefix.c_str();
  std::string out;
  out += prefix + "name=" + l.name + "\n";
  out += strformat("%skind=%d\n", p, static_cast<int>(l.kind));
  out += strformat("%sgeom=%d %d %d %d %d %d %d %d\n", p, l.in_c, l.in_h,
                   l.in_w, l.out_c, l.kh, l.kw, l.stride, l.pad);
  out += strformat("%smm=%lld %lld %lld\n", p, static_cast<long long>(l.mm_m),
                   static_cast<long long>(l.mm_n),
                   static_cast<long long>(l.mm_p));
  out += strformat("%srelu=%d\n", p, l.relu ? 1 : 0);
  out += strformat("%srepeat=%d\n", p, l.repeat);
  return out;
}

nn::Layer parse_layer_keys(const KeyValueReader& kv,
                           const std::string& prefix) {
  nn::Layer l;
  l.name = kv.str(prefix + "name");
  l.kind = kv.enumerator(prefix + "kind", nn::LayerKind::Concat);
  const auto geom = kv.integers(prefix + "geom", 8, 0, kMaxExtent);
  int* const fields[] = {&l.in_c, &l.in_h, &l.in_w, &l.out_c,
                         &l.kh,   &l.kw,   &l.stride, &l.pad};
  for (std::size_t i = 0; i < geom.size(); ++i)
    *fields[i] = static_cast<int>(geom[i]);
  const auto mm = kv.integers(prefix + "mm", 3, 0, INT32_MAX);
  l.mm_m = mm[0];
  l.mm_n = mm[1];
  l.mm_p = mm[2];
  l.relu = kv.flag(prefix + "relu");
  l.repeat = static_cast<int>(kv.integer(prefix + "repeat", 1, kMaxRepeat));
  check_layer(kv, prefix, l);
  return l;
}

namespace {

/// The mapping, check value and stream of one part's program, each key
/// under `prefix` ("" for the program, "tail." for its shorter last part).
std::string serialize_part(const LayerProgram& part,
                           const std::string& prefix) {
  std::string out;
  // The mapping: one line per hardware level, K tiles each.
  for (HwLevel level : kAllLevels) {
    out += strformat("%smap.%s=", prefix.c_str(), to_string(level));
    for (int k = 0; k < part.mapping.k(); ++k) {
      if (k) out += ' ';
      out += std::to_string(part.mapping.tile(level, k));
    }
    out += '\n';
  }
  // Cross-check values.
  out += strformat("%scheck.c_exe=%lld\n", prefix.c_str(),
                   static_cast<long long>(part.perf.c_exe));
  std::string words;
  for (std::uint64_t w : part.encoded_stream()) {
    if (!words.empty()) words += ' ';
    words += strformat("%016llx", static_cast<unsigned long long>(w));
  }
  out += prefix + "stream=" + words + "\n";
  return out;
}

/// Reads back the keys serialize_part wrote under `prefix` for a part that
/// maps `slice` and runs `parts` times, and re-validates them against
/// `config`: re-evaluates the analytical model, then statically verifies
/// the stored stream against it.
LayerProgram parse_part(const KeyValueReader& kv, const std::string& prefix,
                        const nn::Layer& slice, int parts,
                        const arch::OverlayConfig& config) {
  const std::string stored = prefix.empty() ? "stored" : "stored tail";
  LayerProgram prog;
  prog.layer = slice;
  prog.weight_groups = parts;
  prog.workload = Workload::from_layer(slice);
  prog.mapping = Mapping::identity(prog.workload.k());
  double padded_macs = parts;
  for (HwLevel level : kAllLevels) {
    const std::string key = prefix + "map." + to_string(level);
    const auto tiles = kv.integers(
        key, static_cast<std::size_t>(prog.workload.k()), 1, INT32_MAX);
    for (int k = 0; k < prog.workload.k(); ++k) {
      prog.mapping.tile(level, k) = tiles[static_cast<std::size_t>(k)];
      padded_macs *= double(tiles[static_cast<std::size_t>(k)]);
    }
    // Tiles multiply into loop coverages and cycle counts: bound them
    // before the analytical model forms those products.
    if (padded_macs > kMaxPaddedMacs)
      kv.fail(key, "mapping covers too many padded MACs");
  }

  if (!satisfies_logical_constraints(prog.mapping, prog.workload, config.d1,
                                     config.d2, config.d3))
    throw ConfigError(stored + " mapping violates the overlay constraints");
  prog.perf = evaluate(prog.workload, prog.mapping, config);
  if (!prog.perf.feasible)
    throw ConfigError(stored + " mapping is infeasible on this overlay");
  prog.reload_cycles_per_group = weight_reload_cycles(prog.perf, config);

  const std::int64_t stored_cexe =
      kv.integer(prefix + "check.c_exe", 0, INT64_MAX);
  if (stored_cexe != prog.perf.c_exe)
    throw ConfigError(strformat(
        "%s C_exe %lld disagrees with re-evaluation %lld (wrong overlay "
        "config?)",
        stored.c_str(), static_cast<long long>(stored_cexe),
        static_cast<long long>(prog.perf.c_exe)));

  // The stored stream is the artifact that ships to hardware: decode it and
  // hand it to the static verifier, so a tampered or stale artifact fails
  // with exactly the diagnostic compile_layer would produce for that stream.
  try {
    std::vector<std::uint64_t> words;
    std::istringstream in(kv.str(prefix + "stream"));
    for (std::string tok; in >> tok;) words.push_back(arch::parse_word(tok));
    prog.row_stream = arch::decode_stream(words);
  } catch (const ConfigError&) {
    throw;
  } catch (const Error& e) {
    throw ConfigError(stored + " instruction stream does not decode: " +
                      e.what());
  }
  const verify::VerifyResult vr = verify_program(prog, config);
  if (const verify::Diagnostic* d = vr.first_error())
    throw ConfigError(stored +
                      " instruction stream disagrees with the mapping: " +
                      d->to_string());
  return prog;
}

}  // namespace

std::string serialize_program(const LayerProgram& program) {
  std::string out;
  out += strformat("%s v%d\n", kMagic, kVersion);
  out += serialize_layer_keys(program.layer, "layer.");
  out += strformat("groups=%d\n", program.weight_groups);
  out += serialize_part(program, "");
  if (program.tail) out += serialize_part(*program.tail, "tail.");
  return out;
}

LayerProgram deserialize_program(const std::string& text,
                                 const arch::OverlayConfig& config) {
  const std::size_t eol = std::min(text.find('\n'), text.size());
  const std::string header = text.substr(0, eol);
  if (header != strformat("%s v%d", kMagic, kVersion))
    throw Error("not a v" + std::to_string(kVersion) + " ftdl program: " + header);
  const KeyValueReader kv(text.substr(eol), kMagic);

  const nn::Layer layer = parse_layer_keys(kv, "layer.");
  if (!layer.on_overlay())
    kv.fail("layer.kind", "not an overlay layer (CONV, DWCONV or MM)");
  const int extent = weight_only_extent(layer);
  const int groups = static_cast<int>(kv.integer("groups", 1, extent));
  // The stored mapping describes ONE full-size part; `groups` counts the
  // parts that run, so it is the count compile_layer derives from the slice.
  const nn::Layer slice = weight_group_slice(layer, groups);
  const int size = weight_only_extent(slice);
  if (ceil_div(extent, size) != groups)
    kv.fail("groups", strformat("%d is not a part count: slices of %d "
                                "channels run as %lld parts",
                                groups, size,
                                static_cast<long long>(ceil_div(extent, size))));

  LayerProgram prog = parse_part(kv, "", slice, groups, config);
  prog.layer = layer;
  if (const int rest = extent % size; rest != 0) {
    prog.tail = std::make_shared<const LayerProgram>(parse_part(
        kv, "tail.", with_weight_only_extent(layer, rest), 1, config));
  }
  return prog;
}

void save_program(const LayerProgram& program, const std::string& path) {
  write_file_atomic(path, serialize_program(program));
}

LayerProgram load_program(const std::string& path,
                          const arch::OverlayConfig& config) {
  const auto text = read_file(path);
  if (!text) throw Error("cannot open program file " + path);
  return deserialize_program(*text, config);
}

}  // namespace ftdl::compiler
