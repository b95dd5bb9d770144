// Artifact formats and their loaders.
//
// ArtifactGolden: `ftdl-program v1` and `ftdl-network v1` text is pinned
// byte for byte by the files in tests/golden/ (an unsplit layer program, an
// evenly split one and one whose last part is shorter, and the bundle of
// examples/specs/lenet.ftdl), and the goldens load back field-equal.
//
// ArtifactFuzz: every loader of untrusted bytes (deserialize_program,
// ProgramStore::load, deserialize_network, and the network spec parser)
// meets seeded mutants of a valid artifact — byte flips, truncation at every line, duplicated and swapped
// lines, and numeric tokens swapped for non-numeric, oversized, negative
// and junk-suffixed text. Each outcome must be a successful load or an
// ftdl::Error (for the store: a miss plus an eviction); any other
// exception fails the test. The named cases pin values that were once
// accepted silently or escaped as std:: exceptions.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <functional>
#include <tuple>
#include <string>
#include <utility>
#include <vector>

#include "analyze/network_io.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "compiler/program_io.h"
#include "compiler/program_store.h"
#include "compiler/scheduler.h"
#include "frontend/spec_parser.h"
#include "nn/model_zoo.h"

namespace ftdl {
namespace {

namespace fs = std::filesystem;

arch::OverlayConfig cfg() { return arch::paper_config(); }

std::string golden(const std::string& name) {
  const auto text = read_file(std::string(FTDL_GOLDEN_DIR) + "/" + name);
  if (!text) throw Error("missing golden " + name);
  return *text;
}

void expect_layer_eq(const nn::Layer& a, const nn::Layer& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(std::vector<int>({a.in_c, a.in_h, a.in_w, a.out_c, a.kh, a.kw,
                              a.stride, a.pad}),
            std::vector<int>({b.in_c, b.in_h, b.in_w, b.out_c, b.kh, b.kw,
                              b.stride, b.pad}))
      << a.name;
  EXPECT_EQ(a.mm_m, b.mm_m);
  EXPECT_EQ(a.mm_n, b.mm_n);
  EXPECT_EQ(a.mm_p, b.mm_p);
  EXPECT_EQ(a.relu, b.relu);
  EXPECT_EQ(a.repeat, b.repeat);
}

void expect_program_eq(const compiler::LayerProgram& a,
                       const compiler::LayerProgram& b) {
  expect_layer_eq(a.layer, b.layer);
  EXPECT_EQ(a.weight_groups, b.weight_groups);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.perf.c_exe, b.perf.c_exe);
  EXPECT_EQ(a.reload_cycles_per_group, b.reload_cycles_per_group);
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
  EXPECT_EQ(a.encoded_stream(), b.encoded_stream());
  ASSERT_EQ(a.tail != nullptr, b.tail != nullptr);
  if (a.tail) expect_program_eq(*a.tail, *b.tail);
}

/// The 4x2x3 overlay GoogLeNet's classifier splits unevenly on.
arch::OverlayConfig small_cfg() {
  arch::OverlayConfig c = arch::paper_config();
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  return c;
}

/// GoogLeNet's loss3/classifier (1024 -> 1000) at 4x2x3: 63 parts of 16
/// output features, the last of 8.
compiler::LayerProgram tail_program() {
  const nn::Network net = nn::googlenet();
  for (const nn::Layer& l : net.layers()) {
    if (l.name == "loss3/classifier")
      return compiler::compile_layer(l, small_cfg(),
                                     compiler::Objective::Performance, 2'000);
  }
  throw Error("GoogLeNet has no loss3/classifier");
}

analyze::ScheduledNetwork lenet_scheduled() {
  const nn::Network net = frontend::parse_network_file(
      std::string(FTDL_EXAMPLES_DIR) + "/specs/lenet.ftdl");
  return analyze::make_scheduled(
      net, compiler::schedule_network(net, cfg(),
                                      compiler::Objective::Performance,
                                      2'000));
}

// ---- goldens ----------------------------------------------------------------

TEST(ArtifactGolden, LayerProgramsAreByteIdentical) {
  const compiler::LayerProgram unsplit = compiler::compile_layer(
      nn::make_conv("io_conv", 64, 14, 14, 96, 3, 1, 1), cfg(),
      compiler::Objective::Performance, 5'000);
  const compiler::LayerProgram split = compiler::compile_layer(
      nn::make_matmul("big_fc", 2048, 4096, 2), cfg(),
      compiler::Objective::Performance, 5'000);
  ASSERT_EQ(unsplit.weight_groups, 1);
  ASSERT_GT(split.weight_groups, 1);
  ASSERT_EQ(split.tail, nullptr);
  for (const auto& [prog, file] :
       {std::pair{&unsplit, "program_unsplit.ftdlprog"},
        std::pair{&split, "program_split.ftdlprog"}}) {
    const std::string text = golden(file);
    EXPECT_EQ(compiler::serialize_program(*prog), text) << file;
    expect_program_eq(compiler::deserialize_program(text, cfg()), *prog);
  }
}

TEST(ArtifactGolden, TailProgramIsByteIdentical) {
  const compiler::LayerProgram prog = tail_program();
  ASSERT_EQ(prog.weight_groups, 63);
  ASSERT_NE(prog.tail, nullptr);
  EXPECT_EQ(prog.tail->layer.mm_n, 8);
  const std::string text = golden("program_tail.ftdlprog");
  EXPECT_EQ(compiler::serialize_program(prog), text);
  expect_program_eq(compiler::deserialize_program(text, small_cfg()), prog);
}

TEST(ArtifactGolden, LenetBundleIsByteIdentical) {
  const analyze::ScheduledNetwork sn = lenet_scheduled();
  const std::string text = golden("lenet.ftdlnet");
  EXPECT_EQ(analyze::serialize_network(sn), text);

  const analyze::ScheduledNetwork back =
      analyze::deserialize_network(text, cfg());
  EXPECT_EQ(back.net.name(), sn.net.name());
  ASSERT_EQ(back.net.layers().size(), sn.net.layers().size());
  for (std::size_t i = 0; i < sn.net.layers().size(); ++i) {
    const nn::Layer& a = back.net.layers()[i];
    const nn::Layer& b = sn.net.layers()[i];
    expect_layer_eq(a, b);
    EXPECT_EQ(a.pool_op, b.pool_op);
    EXPECT_EQ(a.ewop_op, b.ewop_op);
    EXPECT_EQ(a.explicit_ewop_ops, b.explicit_ewop_ops);
    EXPECT_EQ(a.input_names, b.input_names);
  }
  EXPECT_EQ(back.schedule.objective, sn.schedule.objective);
  EXPECT_EQ(back.schedule.total_cycles, sn.schedule.total_cycles);
  EXPECT_EQ(back.schedule.overlay_macs, sn.schedule.overlay_macs);
  EXPECT_EQ(back.schedule.host_ewop_ops, sn.schedule.host_ewop_ops);
  EXPECT_EQ(back.schedule.hardware_efficiency,
            sn.schedule.hardware_efficiency);
  ASSERT_EQ(back.schedule.layers.size(), sn.schedule.layers.size());
  for (std::size_t i = 0; i < sn.schedule.layers.size(); ++i) {
    expect_program_eq(back.schedule.layers[i], sn.schedule.layers[i]);
  }
  EXPECT_EQ(back.memory.image_words, sn.memory.image_words);
  ASSERT_EQ(back.memory.tensors.size(), sn.memory.tensors.size());
  for (std::size_t i = 0; i < sn.memory.tensors.size(); ++i) {
    EXPECT_EQ(back.memory.tensors[i].producer, sn.memory.tensors[i].producer);
    EXPECT_EQ(back.memory.tensors[i].range.base,
              sn.memory.tensors[i].range.base);
    EXPECT_EQ(back.memory.tensors[i].range.words,
              sn.memory.tensors[i].range.words);
    EXPECT_EQ(back.memory.tensors[i].elem_words,
              sn.memory.tensors[i].elem_words);
  }
  ASSERT_EQ(back.memory.weights.size(), sn.memory.weights.size());
  for (std::size_t i = 0; i < sn.memory.weights.size(); ++i) {
    EXPECT_EQ(back.memory.weights[i].layer, sn.memory.weights[i].layer);
    EXPECT_EQ(back.memory.weights[i].range.base,
              sn.memory.weights[i].range.base);
    EXPECT_EQ(back.memory.weights[i].range.words,
              sn.memory.weights[i].range.words);
  }
}

// ---- mutation harness -------------------------------------------------------

constexpr int kByteFlips = 256;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Every mutant of `text`: seeded byte flips, truncation at every line,
/// each line duplicated, each adjacent line pair swapped, and every run of
/// decimal digits replaced by each of four malformed tokens.
std::vector<std::string> mutants(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> out;
  Rng rng(seed);
  const auto last = static_cast<std::int64_t>(text.size()) - 1;
  for (int i = 0; i < kByteFlips; ++i) {
    std::string m = text;
    const auto pos = static_cast<std::size_t>(rng.uniform(0, last));
    if (i % 2 == 0) {
      m[pos] = static_cast<char>(m[pos] ^ (1 << rng.uniform(0, 7)));
    } else {
      m[pos] = static_cast<char>(rng.uniform(1, 255));
    }
    out.push_back(std::move(m));
  }
  for (std::size_t nl = text.find('\n'); nl != std::string::npos;
       nl = text.find('\n', nl + 1)) {
    out.push_back(text.substr(0, nl));
    out.push_back(text.substr(0, nl + 1));
  }
  const std::vector<std::string> lines = split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> dup = lines;
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
    out.push_back(join_lines(dup));
    if (i + 1 < lines.size()) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[i + 1]);
      out.push_back(join_lines(swapped));
    }
  }
  for (std::size_t i = 0; i < text.size();) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end])))
      ++end;
    const std::string tok = text.substr(i, end - i);
    for (const std::string& swap :
         {std::string("abc"), std::string("99999999999"), "-" + tok,
          tok + "zz"}) {
      out.push_back(text.substr(0, i) + swap + text.substr(end));
    }
    i = end;
  }
  return out;
}

struct Outcomes {
  int loaded = 0;
  int rejected = 0;
};

/// Runs `load` on every mutant; an exception other than ftdl::Error fails
/// the test and prints the mutant.
template <typename Load>
Outcomes load_all(const std::vector<std::string>& ms, Load load) {
  Outcomes o;
  for (const std::string& m : ms) {
    try {
      load(m);
      ++o.loaded;
    } catch (const Error&) {
      ++o.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ftdl exception: " << e.what()
                    << "\n--- mutant ---\n"
                    << m;
    }
  }
  return o;
}

/// The text of the `k`-th program embedded in a network bundle.
std::string embedded_program(const std::string& bundle, int k) {
  const std::string marker = strformat("%%%% program %d\n", k);
  const std::size_t start = bundle.find(marker) + marker.size();
  const std::size_t end = bundle.find("%% program ", start);
  return bundle.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start);
}

using KeyValue = std::pair<std::string, std::string>;

/// `text` with the value of `key` replaced.
std::string with_value(const std::string& text, const std::string& key,
                       const std::string& value) {
  const std::size_t at = text.find("\n" + key + "=");
  if (at == std::string::npos) throw Error("no key " + key);
  const std::size_t start = at + key.size() + 2;
  return text.substr(0, start) + value + text.substr(text.find('\n', start));
}

/// LeNet's c1 program: a 6-output-channel conv at the paper overlay.
std::string c1_program() {
  return embedded_program(golden("lenet.ftdlnet"), 0);
}

void expect_rejected(const std::string& text, const std::string& key,
                     const std::function<void(const std::string&)>& load) {
  try {
    load(text);
    ADD_FAILURE() << key << ": malformed value loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << key << ": " << e.what();
  }
}

// ---- programs ---------------------------------------------------------------

TEST(ArtifactFuzz, ProgramMutantsLoadOrThrowFtdlError) {
  // LeNet's unsplit c1, and a program with a tail so the tail.* keys are
  // mutated too.
  for (const auto& [text, config, seed] :
       {std::tuple{c1_program(), cfg(), 101},
        std::tuple{golden("program_tail.ftdlprog"), small_cfg(), 102}}) {
    ASSERT_NO_THROW(compiler::deserialize_program(text, config));
    const auto ms = mutants(text, seed);
    const Outcomes o = load_all(ms, [&](const std::string& m) {
      compiler::deserialize_program(m, config);
    });
    EXPECT_EQ(o.loaded + o.rejected, static_cast<int>(ms.size()));
    EXPECT_GT(o.rejected, static_cast<int>(ms.size()) / 2);
  }
}

TEST(ArtifactFuzz, MalformedProgramValuesThrowFtdlError) {
  const std::string text = c1_program();
  const auto load = [](const std::string& t) {
    compiler::deserialize_program(t, cfg());
  };
  for (const auto& [key, value] : std::vector<KeyValue>{
           {"groups", "abc"},
           {"layer.kind", "x"},
           {"layer.repeat", "99999999999"},
           {"layer.geom", "1 28 28 6 5 5 1 2 junk"},
           {"check.c_exe", "840zz"},
           {"groups", "2147483647"},  // c1 has 6 output channels
           {"groups", "7"},
           {"layer.relu", "yes"},
           {"layer.geom", "1 28 28 6 5 5 0 2"},  // stride 0
           {"map.T", "1 1 1 7 5 2147483647"}}) {
    expect_rejected(with_value(text, key, value), key, load);
  }
  expect_rejected(text + "groups=1\n", "groups", load);  // duplicate key
}

/// `text` without the line of `key`.
std::string without_key(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + "=");
  if (at == std::string::npos) throw Error("no key " + key);
  return text.substr(0, at) + text.substr(text.find('\n', at + 1));
}

TEST(ArtifactFuzz, MalformedTailProgramThrowsFtdlError) {
  const std::string text = golden("program_tail.ftdlprog");
  const auto load = [](const std::string& t) {
    compiler::deserialize_program(t, small_cfg());
  };
  // 1000 features in slices of 16 run as 63 parts; 64 groups of that slice
  // size is not a part count the compiler writes.
  expect_rejected(with_value(text, "groups", "64"), "groups", load);
  for (const char* key : {"tail.map.D1", "tail.map.T", "tail.check.c_exe",
                          "tail.stream"})
    expect_rejected(without_key(text, key), key, load);
  expect_rejected(with_value(text, "tail.check.c_exe", "1x"),
                  "tail.check.c_exe", load);
  expect_rejected(with_value(text, "tail.map.D1", "1 1"), "tail.map.D1", load);
}

// ---- store entries ----------------------------------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "ftdl_artifacts_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) throw Error("mkdtemp failed");
    path = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A store entry around `payload` with a valid header and footer, so the
/// payload reaches deserialize_program.
std::string framed(std::uint64_t key, const std::string& payload) {
  Hash64 h;
  h.bytes(payload.data(), payload.size());
  return strformat("ftdl-store v1 config=%016llx key=%016llx\n",
                   static_cast<unsigned long long>(
                       compiler::overlay_config_digest(cfg())),
                   static_cast<unsigned long long>(key)) +
         payload +
         strformat("footer bytes=%zu checksum=%016llx\n", payload.size(),
                   static_cast<unsigned long long>(h.digest()));
}

/// Loads `entry` from a store; it must come back as a hit, or as a miss
/// that evicted the entry.
void expect_hit_or_eviction(compiler::ProgramStore& store, std::uint64_t key,
                            const std::string& entry, bool* hit) {
  write_file_atomic(store.entry_path(key), entry);
  const compiler::StoreStats before = store.stats();
  const auto prog = store.load(key, cfg());
  const compiler::StoreStats after = store.stats();
  *hit = prog.has_value();
  if (*hit) {
    EXPECT_EQ(after.hits, before.hits + 1);
    return;
  }
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.evictions, before.evictions + 1) << entry;
  EXPECT_FALSE(fs::exists(store.entry_path(key)));
}

TEST(ArtifactFuzz, StoreEntryMutantsHitOrEvict) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Off);  // one eviction warning per mutant
  TempDir dir;
  compiler::ProgramStore store(dir.path);
  constexpr std::uint64_t kKey = 0x5eed;
  const std::string payload = c1_program();
  store.put(kKey, cfg(), compiler::deserialize_program(payload, cfg()));
  const std::string entry = *read_file(store.entry_path(kKey));
  ASSERT_EQ(entry, framed(kKey, payload));

  int hits = 0;
  int evictions = 0;
  bool hit = false;
  // Raw damage to the framed entry, and damaged payloads re-framed so they
  // get past the checksum into the program parser.
  for (const std::string& m : mutants(entry, 202)) {
    expect_hit_or_eviction(store, kKey, m, &hit);
    (hit ? hits : evictions) += 1;
  }
  for (const std::string& m : mutants(payload, 303)) {
    expect_hit_or_eviction(store, kKey, framed(kKey, m), &hit);
    (hit ? hits : evictions) += 1;
  }
  set_log_level(saved);
  EXPECT_GT(hits, 0);
  EXPECT_GT(evictions, hits);
}

TEST(ArtifactFuzz, StoreEvictsFramedMalformedProgram) {
  TempDir dir;
  compiler::ProgramStore store(dir.path);
  constexpr std::uint64_t kKey = 0xabc;
  bool hit = true;
  expect_hit_or_eviction(store, kKey,
                         framed(kKey,
                                with_value(c1_program(), "groups", "abc")),
                         &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().evictions, 1);
}

// ---- network bundles --------------------------------------------------------

TEST(ArtifactFuzz, BundleMutantsLoadOrThrowFtdlError) {
  const std::string text = golden("lenet.ftdlnet");
  const auto ms = mutants(text, 404);
  const Outcomes o = load_all(ms, [](const std::string& m) {
    analyze::deserialize_network(m, cfg());
  });
  EXPECT_EQ(o.loaded + o.rejected, static_cast<int>(ms.size()));
  EXPECT_GT(o.rejected, static_cast<int>(ms.size()) / 2);
}

TEST(ArtifactFuzz, MalformedBundleValuesThrowFtdlError) {
  const std::string text = golden("lenet.ftdlnet");
  const auto load = [](const std::string& t) {
    analyze::deserialize_network(t, cfg());
  };
  for (const auto& [key, value] : std::vector<KeyValue>{
           {"layer.1.relu", "yes"},
           {"layer.1.pool_op", "9"},
           {"layer.1.repeat", "-5"},
           {"layer.1.ewop_op", "2"},
           {"objective", "7"},
           {"layers", "99999999999"},
           {"tensor.1", "62254 4704 1"},  // no producer name
           {"tensor.1", "62254 -4704 1 c1"},
           {"programs", "4"}}) {
    expect_rejected(with_value(text, key, value), key, load);
  }
}

// ---- network specs ----------------------------------------------------------

TEST(ArtifactFuzz, SpecMutantsParseOrThrowFtdlError) {
  for (const auto& [file, seed] :
       {std::pair{"lenet.ftdl", 505}, std::pair{"inception_module.ftdl", 506},
        std::pair{"tiny_mobilenet.ftdl", 507}}) {
    const auto text =
        read_file(std::string(FTDL_EXAMPLES_DIR) + "/specs/" + file);
    ASSERT_TRUE(text) << file;
    ASSERT_NO_THROW(frontend::parse_network_spec(*text)) << file;
    const auto ms = mutants(*text, seed);
    const Outcomes o = load_all(ms, [](const std::string& m) {
      frontend::parse_network_spec(m);
    });
    EXPECT_EQ(o.loaded + o.rejected, static_cast<int>(ms.size())) << file;
    EXPECT_GT(o.rejected, 0) << file;
  }
}

TEST(ArtifactFuzz, MalformedSpecInputThrowsFtdlError) {
  const std::string body = "conv c1 out=6 k=5 pad=2\n";
  for (const char* input : {"input 1 28 28x", "input 1 28", "input 1 28 28 5",
                            "input 0 28 28", "input 1 -28 28",
                            "input 1 99999999999 28"}) {
    EXPECT_THROW(frontend::parse_network_spec("network n\n" +
                                              std::string(input) + "\n" +
                                              body),
                 Error)
        << input;
  }
  EXPECT_NO_THROW(
      frontend::parse_network_spec("network n\ninput 1 28 28\n" + body));
}

}  // namespace
}  // namespace ftdl
