// Tests for compiled-program serialization and the LSTM sequence runner.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <utility>
#include <vector>

#include "analyze/network_io.h"
#include "common/error.h"
#include "common/hash.h"
#include "compiler/program_io.h"
#include "host/lstm_runner.h"
#include "obs/obs.h"
#include "rtlgen/verilog_gen.h"

namespace ftdl {
namespace {

using compiler::LayerProgram;

arch::OverlayConfig cfg() { return arch::paper_config(); }

LayerProgram example_program() {
  return compiler::compile_layer(nn::make_conv("io_conv", 64, 14, 14, 96, 3, 1, 1),
                                 cfg(), compiler::Objective::Performance, 5'000);
}

TEST(ProgramIo, RoundTripPreservesEverything) {
  const LayerProgram orig = example_program();
  const std::string text = compiler::serialize_program(orig);
  const LayerProgram back = compiler::deserialize_program(text, cfg());

  EXPECT_EQ(back.layer.name, orig.layer.name);
  EXPECT_EQ(back.layer.out_c, orig.layer.out_c);
  EXPECT_EQ(back.weight_groups, orig.weight_groups);
  EXPECT_EQ(back.mapping, orig.mapping);
  EXPECT_EQ(back.perf.c_exe, orig.perf.c_exe);
  EXPECT_EQ(back.perf.hardware_efficiency, orig.perf.hardware_efficiency);
  EXPECT_EQ(back.encoded_stream(), orig.encoded_stream());
}

TEST(ProgramIo, RoundTripWithWeightGroups) {
  // Big FC: forced weight-group splitting must survive the round trip.
  const LayerProgram orig = compiler::compile_layer(
      nn::make_matmul("big_fc", 2048, 4096, 2), cfg(),
      compiler::Objective::Performance, 5'000);
  ASSERT_GT(orig.weight_groups, 1);
  const LayerProgram back =
      compiler::deserialize_program(compiler::serialize_program(orig), cfg());
  EXPECT_EQ(back.weight_groups, orig.weight_groups);
  EXPECT_EQ(back.total_cycles(), orig.total_cycles());
}

TEST(ProgramIo, RoundTripKeepsChargedWeightReload) {
  // On an overlay that charges weight reload, the loader restores each
  // part's reload cycles with the compiler's formula, so a loaded program
  // models the compiled cycle count.
  arch::OverlayConfig charged = cfg();
  charged.charge_weight_reload = true;
  const LayerProgram orig = compiler::compile_layer(
      nn::make_matmul("big_fc", 2048, 4096, 2), charged,
      compiler::Objective::Performance, 5'000);
  ASSERT_EQ(orig.weight_groups, 8);
  ASSERT_GT(orig.reload_cycles_per_group, 0);
  EXPECT_EQ(orig.total_cycles(), 490'192);
  const LayerProgram back = compiler::deserialize_program(
      compiler::serialize_program(orig), charged);
  EXPECT_EQ(back.reload_cycles_per_group, orig.reload_cycles_per_group);
  EXPECT_EQ(back.total_cycles(), 490'192);
}

TEST(ProgramIo, DepthwiseRoundTrip) {
  const LayerProgram orig = compiler::compile_layer(
      nn::make_depthwise("dw", 64, 14, 14, 3, 1, 1), cfg(),
      compiler::Objective::Performance, 4'000);
  const LayerProgram back =
      compiler::deserialize_program(compiler::serialize_program(orig), cfg());
  EXPECT_EQ(back.layer.kind, nn::LayerKind::Depthwise);
  EXPECT_EQ(back.perf.c_exe, orig.perf.c_exe);
  EXPECT_EQ(back.mapping, orig.mapping);
}

TEST(ProgramIo, FileRoundTrip) {
  const std::string path = "program_io_tmp.ftdlprog";
  const LayerProgram orig = example_program();
  compiler::save_program(orig, path);
  const LayerProgram back = compiler::load_program(path, cfg());
  EXPECT_EQ(back.perf.c_exe, orig.perf.c_exe);
  std::filesystem::remove(path);
  EXPECT_THROW(compiler::load_program("missing.ftdlprog", cfg()), Error);
}

// Regression: save_program, save_network, ftdlc --emit, ftdl-obsq and
// write_rtl_bundle once published a silently truncated artifact on a
// disk-full or I/O error. Every saver goes through write_file_atomic now.
TEST(ProgramIo, SaveToUnwritablePathThrows) {
  const LayerProgram orig = example_program();
  const analyze::ScheduledNetwork sn;
  const rtlgen::RtlBundle rtl = rtlgen::generate_overlay_rtl(cfg());
  using Saver = std::function<void(const std::string&)>;
  const std::vector<std::pair<const char*, Saver>> savers = {
      {"save_program",
       [&](const std::string& p) { compiler::save_program(orig, p); }},
      {"save_network",
       [&](const std::string& p) { analyze::save_network(sn, p); }},
      {"write_rtl_bundle",
       [&](const std::string& p) { rtlgen::write_rtl_bundle(rtl, p); }},
      {"write_chrome_trace",
       [](const std::string& p) {
         obs::Registry::global().write_chrome_trace(p);
       }},
      {"write_metrics",
       [](const std::string& p) { obs::Registry::global().write_metrics(p); }},
  };
  for (const auto& [name, save] : savers) {
    // A path under a file can never be created.
    EXPECT_THROW(save("/proc/self/cmdline/x"), Error) << name;
    // /dev/full opens fine but every write fails with ENOSPC: the saver
    // must report it, and must write the device in place, never rename a
    // temp file over it (this suite may run as root).
    if (std::filesystem::exists("/dev/full")) {
      EXPECT_THROW(save("/dev/full"), Error) << name;
      EXPECT_TRUE(std::filesystem::is_character_file("/dev/full")) << name;
    }
  }
}

TEST(ProgramIo, WrongConfigIsDetected) {
  const LayerProgram orig = example_program();
  const std::string text = compiler::serialize_program(orig);
  arch::OverlayConfig other = cfg();
  other.d3 = 10;  // different overlay: C_exe re-evaluation must disagree
  EXPECT_THROW(compiler::deserialize_program(text, other), Error);
}

TEST(ProgramIo, TamperedArtifactsRejected) {
  const std::string text = compiler::serialize_program(example_program());
  // Corrupt the header.
  EXPECT_THROW(compiler::deserialize_program("bogus v1\n" + text, cfg()), Error);
  // Corrupt the cross-check.
  std::string bad = text;
  const auto pos = bad.find("check.c_exe=");
  bad.replace(pos, std::string("check.c_exe=").size(), "check.c_exe=1");
  // "1=..." line also malformed -> any Error subtype is fine.
  EXPECT_THROW(compiler::deserialize_program(bad, cfg()), Error);
  // Corrupt the stream.
  std::string bad2 = text;
  const auto spos = bad2.find("stream=");
  bad2[spos + 8] = bad2[spos + 8] == '0' ? '1' : '0';
  EXPECT_THROW(compiler::deserialize_program(bad2, cfg()), Error);
}

// ---- LSTM sequence runner ----------------------------------------------------

TEST(LstmRunner, MatchesDoublePrecisionReference) {
  host::LstmSpec spec;
  spec.input_size = 8;
  spec.hidden_size = 6;
  const host::LstmWeights w = host::LstmWeights::random_for(spec, 42);

  // Small Q4.12 inputs keep every intermediate well inside LUT range.
  Rng rng(7);
  std::vector<nn::Tensor16> inputs;
  for (int t = 0; t < 4; ++t) {
    nn::Tensor16 x({spec.input_size});
    for (int i = 0; i < spec.input_size; ++i) {
      x[i] = static_cast<std::int16_t>(rng.uniform(-600, 600));  // ~±0.15
    }
    inputs.push_back(std::move(x));
  }
  const auto outputs = host::run_lstm_sequence(spec, w, inputs);
  ASSERT_EQ(outputs.size(), inputs.size());

  // Double-precision reference with the same quantized weights.
  auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
  std::vector<double> c(static_cast<std::size_t>(spec.hidden_size), 0.0);
  std::vector<double> h(static_cast<std::size_t>(spec.hidden_size), 0.0);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    std::vector<double> nh(static_cast<std::size_t>(spec.hidden_size));
    for (int n = 0; n < spec.hidden_size; ++n) {
      auto gate = [&](const nn::Tensor16& wt) {
        double acc = 0.0;
        for (int m = 0; m < spec.input_size; ++m) {
          acc += double(wt.at(n, m)) * double(inputs[t][m]) / 4096.0;
        }
        for (int m = 0; m < spec.hidden_size; ++m) {
          acc += double(wt.at(n, spec.input_size + m)) *
                 h[static_cast<std::size_t>(m)];
        }
        // Fixed-point path: acc_int = 4096*acc_real; pre = acc_int >> 8,
        // read as Q4.12 -> pre_real = acc_real / 256.
        return acc / double(1 << spec.pre_activation_shift);
      };
      const double gi = sig(gate(w.w_i));
      const double gf = sig(gate(w.w_f));
      const double gg = std::tanh(gate(w.w_g));
      const double go = sig(gate(w.w_o));
      c[static_cast<std::size_t>(n)] =
          gf * c[static_cast<std::size_t>(n)] + gi * gg;
      nh[static_cast<std::size_t>(n)] =
          go * std::tanh(c[static_cast<std::size_t>(n)]);
    }
    for (int n = 0; n < spec.hidden_size; ++n) {
      const double got = double(outputs[t][n]) / 4096.0;
      EXPECT_NEAR(got, nh[static_cast<std::size_t>(n)], 0.03)
          << "step " << t << " unit " << n;
      h[static_cast<std::size_t>(n)] = got;  // track the quantized trajectory
    }
  }
}

TEST(LstmRunner, ShapeChecks) {
  host::LstmSpec spec;
  spec.input_size = 4;
  spec.hidden_size = 4;
  const host::LstmWeights w = host::LstmWeights::random_for(spec, 1);
  std::vector<nn::Tensor16> bad = {nn::Tensor16({5})};
  EXPECT_THROW(host::run_lstm_sequence(spec, w, bad), ConfigError);

  host::LstmSpec mismatched = spec;
  mismatched.hidden_size = 8;
  std::vector<nn::Tensor16> ok = {nn::Tensor16({4})};
  EXPECT_THROW(host::run_lstm_sequence(mismatched, w, ok), ConfigError);
}

TEST(LstmRunner, DeterministicAndStateful) {
  host::LstmSpec spec;
  spec.input_size = 4;
  spec.hidden_size = 4;
  const host::LstmWeights w = host::LstmWeights::random_for(spec, 9);
  nn::Tensor16 x({4});
  x[0] = 800; x[1] = -400; x[2] = 200; x[3] = 1000;
  const std::vector<nn::Tensor16> seq = {x, x, x};
  const auto a = host::run_lstm_sequence(spec, w, seq);
  const auto b = host::run_lstm_sequence(spec, w, seq);
  EXPECT_EQ(a[2], b[2]);
  // With a nonzero input the state evolves: step outputs differ.
  EXPECT_NE(a[0], a[1]);
  // Every step's h_t, pinned: the gate products and the cell update must
  // not move a bit.
  Hash64 h;
  for (const nn::Tensor16& t : a)
    for (std::int64_t i = 0; i < t.size(); ++i) h.i32(t[i]);
  EXPECT_EQ(h.digest(), 0x675dec31340c1455ull);
}

}  // namespace
}  // namespace ftdl
