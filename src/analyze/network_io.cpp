#include "analyze/network_io.h"

#include <cstdint>
#include <sstream>

#include "common/error.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "compiler/program_io.h"

namespace ftdl::analyze {

namespace {

constexpr const char* kMagic = "ftdl-network";
constexpr int kVersion = 1;
constexpr const char* kProgramMarker = "%% program ";

constexpr std::int64_t kMaxEntries = std::int64_t{1} << 20;
constexpr std::int64_t kMaxEwopOps = std::int64_t{1} << 40;
constexpr std::int64_t kMaxElemWords = 1024;

/// The six shared layer keys (compiler/program_io.h) plus the four host keys.
std::string serialize_layer(std::size_t i, const nn::Layer& l) {
  const std::string p = strformat("layer.%zu.", i);
  std::string out = compiler::serialize_layer_keys(l, p);
  out += p + strformat("pool_op=%d\n", static_cast<int>(l.pool_op));
  out += p + strformat("ewop_op=%d\n", static_cast<int>(l.ewop_op));
  out += p + strformat("ewop_ops=%lld\n",
                       static_cast<long long>(l.explicit_ewop_ops));
  std::string inputs;
  for (const std::string& in : l.input_names) {
    if (!inputs.empty()) inputs += ',';
    inputs += in;
  }
  out += p + "inputs=" + inputs + "\n";
  return out;
}

nn::Layer parse_layer(const compiler::KeyValueReader& kv, std::int64_t i) {
  const std::string p = strformat("layer.%lld.", static_cast<long long>(i));
  nn::Layer l = compiler::parse_layer_keys(kv, p);
  l.pool_op = kv.enumerator(p + "pool_op", nn::PoolOp::Avg);
  l.ewop_op = kv.enumerator(p + "ewop_op", nn::EwopOp::AddRelu);
  l.explicit_ewop_ops = kv.integer(p + "ewop_ops", 0, kMaxEwopOps);
  const std::string& inputs = kv.str(p + "inputs");
  std::size_t pos = 0;
  while (pos < inputs.size()) {
    const std::size_t comma = inputs.find(',', pos);
    const std::size_t end = comma == std::string::npos ? inputs.size() : comma;
    if (end > pos) l.input_names.push_back(inputs.substr(pos, end - pos));
    pos = end + 1;
  }
  return l;
}

}  // namespace

std::string serialize_network(const ScheduledNetwork& sn) {
  std::string out;
  out += strformat("%s v%d\n", kMagic, kVersion);
  out += "name=" + sn.net.name() + "\n";
  out += strformat("objective=%d\n", static_cast<int>(sn.schedule.objective));
  out += strformat("layers=%zu\n", sn.net.layers().size());
  for (std::size_t i = 0; i < sn.net.layers().size(); ++i) {
    out += serialize_layer(i, sn.net.layers()[i]);
  }
  out += strformat("image_words=%llu\n",
                   static_cast<unsigned long long>(sn.memory.image_words));
  out += strformat("tensors=%zu\n", sn.memory.tensors.size());
  for (std::size_t i = 0; i < sn.memory.tensors.size(); ++i) {
    const TensorPlan& t = sn.memory.tensors[i];
    out += strformat("tensor.%zu=%llu %llu %d %s\n", i,
                     static_cast<unsigned long long>(t.range.base),
                     static_cast<unsigned long long>(t.range.words),
                     t.elem_words, t.producer.c_str());
  }
  out += strformat("weights=%zu\n", sn.memory.weights.size());
  for (std::size_t i = 0; i < sn.memory.weights.size(); ++i) {
    const WeightPlan& w = sn.memory.weights[i];
    out += strformat("weight.%zu=%llu %llu %s\n", i,
                     static_cast<unsigned long long>(w.range.base),
                     static_cast<unsigned long long>(w.range.words),
                     w.layer.c_str());
  }
  out += strformat("programs=%zu\n", sn.schedule.layers.size());
  for (std::size_t k = 0; k < sn.schedule.layers.size(); ++k) {
    out += strformat("%s%zu\n", kProgramMarker, k);
    out += compiler::serialize_program(sn.schedule.layers[k]);
  }
  return out;
}

ScheduledNetwork parse_network_bundle(const std::string& text,
                                      const arch::OverlayConfig& config) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != strformat("%s v%d", kMagic, kVersion))
    throw Error("not a v" + std::to_string(kVersion) +
                " ftdl network bundle: " + header);

  // Split the remainder into the key=value section and the embedded
  // program sections.
  std::string head_text;
  std::vector<std::string> program_texts;
  std::string line;
  std::string* current = &head_text;
  while (std::getline(in, line)) {
    if (line.rfind(kProgramMarker, 0) == 0) {
      program_texts.emplace_back();
      current = &program_texts.back();
      continue;
    }
    *current += line;
    *current += '\n';
  }

  const compiler::KeyValueReader kv(head_text, kMagic);

  nn::Network net(kv.str("name"));
  const std::int64_t n_layers = kv.integer("layers", 0, kMaxEntries);
  for (std::int64_t i = 0; i < n_layers; ++i) net.add(parse_layer(kv, i));

  MemoryPlan memory;
  memory.image_words =
      static_cast<std::uint64_t>(kv.integer("image_words", 0, INT64_MAX));
  const std::int64_t n_tensors = kv.integer("tensors", 0, kMaxEntries);
  for (std::int64_t i = 0; i < n_tensors; ++i) {
    const std::string key = strformat("tensor.%lld", static_cast<long long>(i));
    std::string producer;
    const auto nums = kv.integers(key, 3, 0, INT64_MAX, &producer);
    if (nums[2] > kMaxElemWords) kv.fail(key, "element size out of range");
    memory.tensors.push_back(TensorPlan{
        producer,
        MemRange{static_cast<std::uint64_t>(nums[0]),
                 static_cast<std::uint64_t>(nums[1])},
        static_cast<int>(nums[2])});
  }
  const std::int64_t n_weights = kv.integer("weights", 0, kMaxEntries);
  for (std::int64_t i = 0; i < n_weights; ++i) {
    const std::string key = strformat("weight.%lld", static_cast<long long>(i));
    std::string layer;
    const auto nums = kv.integers(key, 2, 0, INT64_MAX, &layer);
    memory.weights.push_back(WeightPlan{
        layer, MemRange{static_cast<std::uint64_t>(nums[0]),
                        static_cast<std::uint64_t>(nums[1])}});
  }

  if (kv.integer("programs", 0, kMaxEntries) !=
      static_cast<std::int64_t>(program_texts.size()))
    kv.fail("programs", strformat("%zu programs embedded",
                                  program_texts.size()));

  // Per-program validation first (analytical model + stream verifier),
  // exactly as loading each .ftdlprog individually would.
  compiler::NetworkSchedule sched;
  sched.network_name = net.name();
  sched.config = config;
  sched.objective = kv.enumerator("objective", compiler::Objective::Balance);
  double e_wbuf_weighted = 0.0;
  std::int64_t weight_words = 0;
  for (const std::string& ptext : program_texts) {
    compiler::LayerProgram prog = compiler::deserialize_program(ptext, config);
    sched.total_cycles += prog.total_cycles() * prog.layer.repeat;
    sched.overlay_macs += prog.layer.macs() * prog.layer.repeat;
    e_wbuf_weighted += prog.perf.e_wbuf * double(prog.layer.weight_count());
    weight_words += prog.layer.weight_count();
    sched.layers.push_back(std::move(prog));
  }
  for (const nn::Layer& l : net.layers()) sched.host_ewop_ops += l.ewop_ops();
  if (sched.total_cycles > 0) {
    sched.hardware_efficiency =
        double(sched.overlay_macs) /
        (double(sched.total_cycles) * double(config.tpes()));
  }
  sched.mean_e_wbuf =
      weight_words > 0 ? e_wbuf_weighted / double(weight_words) : 0.0;

  return ScheduledNetwork(std::move(net), std::move(sched),
                          std::move(memory));
}

ScheduledNetwork deserialize_network(const std::string& text,
                                     const arch::OverlayConfig& config) {
  ScheduledNetwork sn = parse_network_bundle(text, config);
  const AnalysisResult r = analyze_network(sn);
  if (const Diagnostic* d = r.first_error()) {
    throw ConfigError("network bundle fails static analysis: " +
                      d->to_string());
  }
  return sn;
}

void save_network(const ScheduledNetwork& sn, const std::string& path) {
  write_file_atomic(path, serialize_network(sn));
}

ScheduledNetwork load_network(const std::string& path,
                              const arch::OverlayConfig& config) {
  const auto text = read_file(path);
  if (!text) throw Error("cannot open network bundle " + path);
  return deserialize_network(*text, config);
}

}  // namespace ftdl::analyze
