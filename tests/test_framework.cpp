// End-to-end framework tests: device + overlay + compiler + power together.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "ftdl/ftdl.h"

namespace ftdl {
namespace {

TEST(Framework, ConstructsWithPaperDefaults) {
  Framework fw{FrameworkOptions{}};
  EXPECT_EQ(fw.device().name, "xcvu125");
  EXPECT_EQ(fw.config().tpes(), 1200);
  // 650 MHz is achievable post-P&R on the vu125 (Fig. 6b).
  EXPECT_GE(fw.timing().clk_h_fmax_hz, fw.config().clocks.clk_h_hz);
}

TEST(Framework, DeriveFloorClockPolicy) {
  FrameworkOptions opts;
  opts.clock_policy = ClockPolicy::DeriveFloor;
  Framework fw{opts};
  // The derived clock is a 50 MHz multiple at or below fmax.
  const double clk = fw.config().clocks.clk_h_hz;
  EXPECT_LE(clk, fw.timing().clk_h_fmax_hz);
  EXPECT_NEAR(std::fmod(clk, 50e6), 0.0, 1.0);
  EXPECT_GE(clk, 650e6);  // the paper's operating point
}

TEST(Framework, RejectsOverclockedConfig) {
  FrameworkOptions opts;
  opts.config.clocks = fpga::ClockPair::from_high(720e6);  // above fmax
  EXPECT_THROW(Framework{opts}, ConfigError);
}

TEST(Framework, RejectsOverlayThatDoesNotFit) {
  FrameworkOptions opts;
  opts.device_name = "xc7z020";  // small edge part
  opts.config.d1 = 12;
  opts.config.d2 = 5;
  opts.config.d3 = 20;  // 240 per column needed; 7z020 has 55
  EXPECT_THROW(Framework{opts}, ConfigError);
}

TEST(Framework, CompilesSingleLayer) {
  Framework fw{FrameworkOptions{}};
  const auto prog = fw.compile(nn::make_conv("c", 64, 28, 28, 64, 3, 1, 1));
  EXPECT_TRUE(prog.perf.feasible);
  EXPECT_FALSE(prog.row_stream.empty());
}

TEST(Framework, EvaluatesSmallNetworkEndToEnd) {
  FrameworkOptions opts;
  opts.search_budget_per_layer = 10'000;
  Framework fw{opts};

  nn::Network net("small");
  net.add(nn::make_conv("c1", 32, 28, 28, 64, 3, 1, 1));
  net.add(nn::make_pool("p1", 64, 28, 28, 2, 2));
  net.add(nn::make_conv("c2", 64, 14, 14, 128, 3, 1, 1));
  net.add(nn::make_matmul("fc", 128 * 14 * 14, 10, 1));

  const NetworkReport r = fw.evaluate(net);
  EXPECT_GT(r.fps(), 0.0);
  EXPECT_GT(r.effective_gops(), 0.0);
  EXPECT_GT(r.gops_per_w(), 0.0);
  EXPECT_GT(r.power.total_w(), 0.0);
  EXPECT_GT(r.dram.total_joules(), 0.0);
  EXPECT_EQ(r.schedule.layers.size(), 3u);
}

// A layer split into weight groups moves every part's DRAM traffic, its
// shorter last part's included: the frame's DRAM energy is that of the sum
// over the parts that run, not of one full-size part.
TEST(Framework, SplitLayerDramVolumeCoversEveryPart) {
  FrameworkOptions opts;
  opts.config.d1 = 4;
  opts.config.d2 = 2;
  opts.config.d3 = 3;
  opts.search_budget_per_layer = 2'000;
  Framework fw{opts};
  nn::Network net("split-fc");
  net.add(nn::make_matmul("loss3/classifier", 1024, 1000, 1));

  const NetworkReport r = fw.evaluate(net);
  ASSERT_EQ(r.schedule.layers.size(), 1u);
  const compiler::LayerProgram& p = r.schedule.layers.front();
  ASSERT_GT(p.weight_groups, 1);
  ASSERT_NE(p.tail, nullptr);
  const double rd = p.perf.dram_rd_bytes * (p.weight_groups - 1) +
                    p.tail->perf.dram_rd_bytes;
  const double wr = p.perf.dram_wr_bytes * (p.weight_groups - 1) +
                    p.tail->perf.dram_wr_bytes;
  EXPECT_EQ(p.total_dram_rd_bytes(), rd);
  EXPECT_EQ(p.total_dram_wr_bytes(), wr);

  const auto volume = [&](double read, double write) {
    return dram::evaluate_volume(static_cast<std::uint64_t>(read),
                                 static_cast<std::uint64_t>(write),
                                 r.schedule.seconds_per_frame(),
                                 opts.dram_spec, opts.dram_channels);
  };
  EXPECT_EQ(r.dram.rw_joules, volume(rd, wr).rw_joules);
  EXPECT_EQ(r.dram.io_joules, volume(rd, wr).io_joules);
  EXPECT_EQ(r.dram.total_joules(), volume(rd, wr).total_joules());
  // One part's traffic alone is a different, smaller figure.
  EXPECT_LT(volume(p.perf.dram_rd_bytes, p.perf.dram_wr_bytes).rw_joules,
            r.dram.rw_joules);
}

// Per-layer Table II schedules, one row per overlay layer in execution
// order: name, weight groups, C_exe, then the D1, D2, D3, X, L and T tile
// vectors (workload-loop order; see schedule_row).
const char* const kGoogLeNetSchedule[] = {
    "conv1/7x7_s2 g1 c124320 1,3,1,1,1,4 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,112,1,1 1,1,3,1,1,1 13,1,2,1,7,2",
    "conv2/3x3_reduce g1 c21840 1,8,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,56,1,1 1,1,1,1,1,1 13,8,3,1,1,1",
    "conv2/3x3 g1 c374616 1,4,1,1,3,1 5,1,1,1,1,1 3,1,1,6,1,1 1,1,12,1,1,1 "
    "1,8,5,2,1,3 13,2,1,5,1,1",
    "inception_3a/1x1 g1 c8754 1,12,1,1,1,1 5,1,1,1,1,1 1,1,4,5,1,1 "
    "1,1,1,1,1,1 1,16,1,6,1,1 13,1,7,1,1,1",
    "inception_3a/3x3_reduce g1 c13458 1,12,1,1,1,1 5,1,1,1,1,1 1,1,4,5,1,1 "
    "1,1,1,1,1,1 1,16,1,6,1,1 20,1,7,1,1,1",
    "inception_3a/3x3 g1 c78696 1,4,1,1,1,3 5,1,1,1,1,1 2,1,10,1,1,1 "
    "1,1,1,4,1,1 1,24,1,1,3,1 13,1,3,7,1,1",
    "inception_3a/5x5_reduce g1 c7840 1,8,1,1,1,1 5,1,1,1,1,1 1,5,4,1,1,1 "
    "1,1,1,4,1,1 1,5,1,7,1,1 4,1,7,1,1,1",
    "inception_3a/5x5 g1 c11796 1,2,1,1,1,5 5,1,1,1,1,1 1,2,10,1,1,1 "
    "1,2,1,1,1,1 1,2,3,1,5,1 7,1,1,28,1,1",
    "inception_3a/pool_proj g1 c8064 1,12,1,1,1,1 5,1,1,1,1,1 1,2,1,10,1,1 "
    "1,1,1,1,1,1 1,4,1,3,1,1 7,2,28,1,1,1",
    "inception_3b/1x1 g1 c24096 1,12,1,1,1,1 5,1,1,1,1,1 2,1,10,1,1,1 "
    "1,1,1,4,1,1 1,22,1,1,1,1 13,1,3,7,1,1",
    "inception_3b/3x3_reduce g1 c24096 1,12,1,1,1,1 5,1,1,1,1,1 2,1,10,1,1,1 "
    "1,1,1,4,1,1 1,22,1,1,1,1 13,1,3,7,1,1",
    "inception_3b/3x3 g1 c165360 1,4,1,1,1,3 5,1,1,1,1,1 1,5,4,1,1,1 "
    "10,1,1,4,1,1 1,7,1,1,1,1 4,1,7,7,3,1",
    "inception_3b/5x5_reduce g1 c11088 1,12,1,1,1,1 5,1,1,1,1,1 1,2,1,10,1,1 "
    "1,1,4,1,1,1 1,1,7,1,1,1 7,11,1,3,1,1",
    "inception_3b/5x5 g1 c63180 1,12,1,1,1,1 5,1,1,1,1,1 1,1,4,1,1,5 "
    "1,1,1,10,1,1 1,1,1,3,1,1 20,3,7,1,5,1",
    "inception_3b/pool_proj g1 c12030 1,12,1,1,1,1 5,1,1,1,1,1 1,1,4,5,1,1 "
    "1,1,1,1,1,1 1,22,1,6,1,1 13,1,7,1,1,1",
    "inception_4a/1x1 g1 c16398 1,12,1,1,1,1 5,1,1,1,1,1 1,2,2,5,1,1 "
    "1,1,1,1,1,1 1,4,7,1,1,1 39,5,1,3,1,1",
    "inception_4a/3x3_reduce g1 c8418 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 20,10,3,1,1,1",
    "inception_4a/3x3 g1 c31788 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,3,1 42,2,3,1,1,3",
    "inception_4a/5x5_reduce g1 c4704 1,12,1,1,1,1 4,1,1,1,1,1 1,10,1,2,1,1 "
    "1,1,1,1,1,1 1,1,7,1,1,1 4,4,2,7,1,1",
    "inception_4a/5x5 g1 c3938 1,2,1,1,5,1 5,1,1,1,1,1 5,4,1,1,1,1 "
    "1,1,1,1,1,1 1,2,2,7,1,1 2,1,7,2,1,5",
    "inception_4a/pool_proj g1 c5478 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 13,10,3,1,1,1",
    "inception_4b/1x1 g1 c14820 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,1,1 32,11,3,1,1,1",
    "inception_4b/3x3_reduce g1 c10644 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 23,11,3,1,1,1",
    "inception_4b/3x3 g1 c37170 1,4,1,1,1,3 5,1,1,1,1,1 5,4,1,1,1,1 "
    "1,1,1,7,1,1 1,7,2,1,1,1 9,1,7,2,3,1",
    "inception_4b/5x5_reduce g1 c5292 1,12,1,1,1,1 5,1,1,1,1,1 1,5,2,2,1,1 "
    "1,1,1,1,1,1 1,1,7,1,1,1 5,9,1,7,1,1",
    "inception_4b/5x5 g1 c6843 1,12,1,1,1,1 5,1,1,1,1,1 1,2,2,5,1,1 "
    "1,1,1,1,1,1 1,1,1,1,1,5 13,1,7,3,5,1",
    "inception_4b/pool_proj g1 c6024 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 13,11,3,1,1,1",
    "inception_4c/1x1 g1 c12048 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,1,1 26,11,3,1,1,1",
    "inception_4c/3x3_reduce g1 c12048 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,1,1 26,11,3,1,1,1",
    "inception_4c/3x3 g1 c57344 1,4,1,1,1,3 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,1,1,1 1,32,7,1,1,1 3,1,2,14,3,1",
    "inception_4c/5x5_reduce g1 c5292 1,12,1,1,1,1 5,1,1,1,1,1 1,5,2,2,1,1 "
    "1,1,1,1,1,1 1,1,7,1,1,1 5,9,1,7,1,1",
    "inception_4c/5x5 g1 c6843 1,12,1,1,1,1 5,1,1,1,1,1 1,2,2,5,1,1 "
    "1,1,1,1,1,1 1,1,1,1,1,5 13,1,7,3,5,1",
    "inception_4c/pool_proj g1 c6024 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 13,11,3,1,1,1",
    "inception_4d/1x1 g1 c10644 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 23,11,3,1,1,1",
    "inception_4d/3x3_reduce g1 c13434 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,1,1 29,11,3,1,1,1",
    "inception_4d/3x3 g1 c68148 1,12,1,1,1,1 5,1,1,1,1,1 5,4,1,1,1,1 "
    "2,1,1,3,1,1 1,3,2,5,1,3 6,1,7,1,3,1",
    "inception_4d/5x5_reduce g1 c5544 1,12,1,1,1,1 4,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,11,1,14,1,1 8,1,3,1,1,1",
    "inception_4d/5x5 g1 c10938 1,12,1,1,1,1 5,1,1,1,1,1 1,1,4,1,1,5 "
    "1,1,1,1,1,1 1,1,1,7,1,1 13,3,4,2,5,1",
    "inception_4d/pool_proj g1 c6024 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,1,1,14,1,1 13,11,3,1,1,1",
    "inception_4e/1x1 g1 c25480 1,12,1,1,1,1 5,1,1,1,1,1 4,5,1,1,1,1 "
    "1,1,14,1,1,1 1,1,1,2,1,1 13,9,1,7,1,1",
    "inception_4e/3x3_reduce g1 c14820 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,1,1 32,11,3,1,1,1",
    "inception_4e/3x3 g1 c88218 1,4,1,1,1,3 5,1,1,1,1,1 10,1,2,1,1,1 "
    "1,1,1,1,1,1 1,40,1,3,1,1 7,1,7,5,3,1",
    "inception_4e/5x5_reduce g1 c5544 1,12,1,1,1,1 4,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,1,1,1 1,11,1,14,1,1 8,1,3,1,1,1",
    "inception_4e/5x5 g1 c21876 1,12,1,1,1,1 5,1,1,1,1,1 1,1,1,4,1,5 "
    "1,1,1,2,1,1 1,1,1,2,1,1 26,3,14,1,5,1",
    "inception_4e/pool_proj g1 c12048 1,12,1,1,1,1 5,1,1,1,1,1 1,4,5,1,1,1 "
    "1,1,1,2,1,1 1,1,1,7,1,1 26,11,3,1,1,1",
    "inception_5a/1x1 g1 c10210 1,12,1,1,1,1 5,1,1,1,1,1 1,5,4,1,1,1 "
    "1,1,1,1,1,1 1,7,1,1,1,1 52,2,2,7,1,1",
    "inception_5a/3x3_reduce g1 c6290 1,12,1,1,1,1 5,1,1,1,1,1 1,5,4,1,1,1 "
    "1,1,1,1,1,1 1,7,1,1,1,1 32,2,2,7,1,1",
    "inception_5a/3x3 g1 c21186 1,12,1,1,1,1 5,1,1,1,1,1 4,5,1,1,1,1 "
    "1,1,1,1,1,1 1,3,1,1,3,1 16,1,7,7,1,3",
    "inception_5a/5x5_reduce g1 c2352 1,12,1,1,1,1 5,1,1,1,1,1 1,10,2,1,1,1 "
    "1,1,1,1,1,1 1,1,4,1,1,1 7,7,1,7,1,1",
    "inception_5a/5x5 g1 c5478 1,12,1,1,1,1 5,1,1,1,1,1 1,1,1,4,1,5 "
    "1,1,1,1,1,1 1,3,1,2,1,1 26,1,7,1,5,1",
    "inception_5a/pool_proj g1 c5114 1,12,1,1,1,1 5,1,1,1,1,1 2,5,2,1,1,1 "
    "1,1,1,1,1,1 1,14,1,1,1,1 13,1,4,7,1,1",
    "inception_5b/1x1 g1 c15306 1,12,1,1,1,1 5,1,1,1,1,1 6,3,1,1,1,1 "
    "1,1,1,1,1,1 1,8,1,7,1,1 13,3,7,1,1,1",
    "inception_5b/3x3_reduce g1 c7662 1,12,1,1,1,1 5,1,1,1,1,1 3,6,1,1,1,1 "
    "1,1,1,1,1,1 1,3,1,7,1,1 13,4,7,1,1,1",
    "inception_5b/3x3 g1 c28242 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,1,1,1 1,48,1,1,1,1 4,1,7,7,1,3",
    "inception_5b/5x5_reduce g1 c2352 1,12,1,1,1,1 5,1,1,1,1,1 1,5,4,1,1,1 "
    "1,1,1,1,1,1 1,14,1,1,1,1 10,1,2,7,1,1",
    "inception_5b/5x5 g1 c6388 1,12,1,1,1,1 5,1,1,1,1,1 2,2,1,1,1,5 "
    "1,1,1,1,1,1 1,2,1,7,1,1 13,1,7,1,5,1",
    "inception_5b/pool_proj g1 c5114 1,12,1,1,1,1 5,1,1,1,1,1 2,5,2,1,1,1 "
    "1,1,1,1,1,1 1,14,1,1,1,1 13,1,4,7,1,1",
    "loss3/classifier g1 c1738 12,1,1 1,5,1 1,20,1 1,1,1 86,1,1 1,10,1",
};
const char* const kResNet50Schedule[] = {
    "conv1/7x7_s2 g1 c124320 1,3,1,1,1,4 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,112,1,1 1,1,3,1,1,1 13,1,2,1,7,2",
    "res2_1/conv1_1x1 g1 c21840 1,8,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,56,1,1 1,1,1,1,1,1 13,8,3,1,1,1",
    "res2_1/conv2_3x3 g1 c104886 1,4,1,1,1,3 5,1,1,1,1,1 1,1,1,20,1,1 "
    "1,1,1,3,1,1 1,16,1,1,1,1 13,1,56,1,3,1",
    "res2_1/conv3_1x1 g1 c87360 1,8,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,56,1,1 1,1,1,1,1,1 52,8,3,1,1,1",
    "res2_1/shortcut_1x1 g1 c87360 1,8,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,56,1,1 1,1,1,1,1,1 52,8,3,1,1,1",
    "res2_2/conv1_1x1 g1 c48102 1,12,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,3,1,1,1 1,22,1,1,1,1 13,1,1,56,1,1",
    "res2_2/conv2_3x3 g1 c104886 1,4,1,1,1,3 5,1,1,1,1,1 1,1,1,20,1,1 "
    "1,1,1,3,1,1 1,16,1,1,1,1 13,1,56,1,3,1",
    "res2_2/conv3_1x1 g1 c87360 1,8,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,56,1,1 1,1,1,1,1,1 52,8,3,1,1,1",
    "res2_3/conv1_1x1 g1 c48102 1,12,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,3,1,1,1 1,22,1,1,1,1 13,1,1,56,1,1",
    "res2_3/conv2_3x3 g1 c104886 1,4,1,1,1,3 5,1,1,1,1,1 1,1,1,20,1,1 "
    "1,1,1,3,1,1 1,16,1,1,1,1 13,1,56,1,3,1",
    "res2_3/conv3_1x1 g1 c87360 1,8,1,1,1,1 5,1,1,1,1,1 1,1,20,1,1,1 "
    "1,1,1,56,1,1 1,1,1,1,1,1 52,8,3,1,1,1",
    "res3_1/conv1_1x1 g1 c24096 1,12,1,1,1,1 5,1,1,1,1,1 1,2,1,10,1,1 "
    "1,1,4,1,1,1 1,1,7,1,1,1 26,11,1,3,1,1",
    "res3_1/conv2_3x3 g1 c120624 1,4,1,1,1,3 5,1,1,1,1,1 1,3,2,1,3,1 "
    "1,1,1,28,1,1 1,1,5,1,1,1 26,11,3,1,1,1",
    "res3_1/conv3_1x1 g1 c48174 1,12,1,1,1,1 5,1,1,1,1,1 2,1,2,5,1,1 "
    "1,1,7,1,1,1 1,1,2,2,1,1 52,11,1,3,1,1",
    "res3_1/shortcut_1x1 g1 c117690 1,12,1,1,1,1 5,1,1,1,1,1 3,1,1,6,1,1 "
    "1,1,1,5,1,1 1,6,4,1,1,1 35,4,7,1,1,1",
    "res3_2/conv1_1x1 g1 c47028 1,12,1,1,1,1 5,1,1,1,1,1 2,1,10,1,1,1 "
    "1,1,1,4,1,1 1,43,1,1,1,1 13,1,3,7,1,1",
    "res3_2/conv2_3x3 g1 c120624 1,4,1,1,1,3 5,1,1,1,1,1 1,3,2,1,3,1 "
    "1,1,1,28,1,1 1,1,5,1,1,1 26,11,3,1,1,1",
    "res3_2/conv3_1x1 g1 c48174 1,12,1,1,1,1 5,1,1,1,1,1 2,1,2,5,1,1 "
    "1,1,7,1,1,1 1,1,2,2,1,1 52,11,1,3,1,1",
    "res3_3/conv1_1x1 g1 c47028 1,12,1,1,1,1 5,1,1,1,1,1 2,1,10,1,1,1 "
    "1,1,1,4,1,1 1,43,1,1,1,1 13,1,3,7,1,1",
    "res3_3/conv2_3x3 g1 c120624 1,4,1,1,1,3 5,1,1,1,1,1 1,3,2,1,3,1 "
    "1,1,1,28,1,1 1,1,5,1,1,1 26,11,3,1,1,1",
    "res3_3/conv3_1x1 g1 c48174 1,12,1,1,1,1 5,1,1,1,1,1 2,1,2,5,1,1 "
    "1,1,7,1,1,1 1,1,2,2,1,1 52,11,1,3,1,1",
    "res3_4/conv1_1x1 g1 c47028 1,12,1,1,1,1 5,1,1,1,1,1 2,1,10,1,1,1 "
    "1,1,1,4,1,1 1,43,1,1,1,1 13,1,3,7,1,1",
    "res3_4/conv2_3x3 g1 c120624 1,4,1,1,1,3 5,1,1,1,1,1 1,3,2,1,3,1 "
    "1,1,1,28,1,1 1,1,5,1,1,1 26,11,3,1,1,1",
    "res3_4/conv3_1x1 g1 c48174 1,12,1,1,1,1 5,1,1,1,1,1 2,1,2,5,1,1 "
    "1,1,7,1,1,1 1,1,2,2,1,1 52,11,1,3,1,1",
    "res4_1/conv1_1x1 g1 c26262 1,12,1,1,1,1 5,1,1,1,1,1 1,4,1,5,1,1 "
    "1,1,1,3,1,1 1,6,1,1,1,1 52,2,14,1,1,1",
    "res4_1/conv2_3x3 g1 c114688 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,64,1,1,1,1 3,1,14,2,1,3",
    "res4_1/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 10,1,1,2,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,2,14,1,1,1",
    "res4_1/shortcut_1x1 g1 c110840 1,12,1,1,1,1 5,1,1,1,1,1 9,1,1,2,1,1 "
    "1,1,1,4,1,1 1,43,14,1,1,1 23,1,1,2,1,1",
    "res4_2/conv1_1x1 g1 c51086 1,12,1,1,1,1 5,1,1,1,1,1 1,10,1,2,1,1 "
    "1,1,7,1,1,1 1,5,1,1,1,1 52,2,2,7,1,1",
    "res4_2/conv2_3x3 g1 c114688 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,64,1,1,1,1 3,1,14,2,1,3",
    "res4_2/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 10,1,1,2,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,2,14,1,1,1",
    "res4_3/conv1_1x1 g1 c51086 1,12,1,1,1,1 5,1,1,1,1,1 1,10,1,2,1,1 "
    "1,1,7,1,1,1 1,5,1,1,1,1 52,2,2,7,1,1",
    "res4_3/conv2_3x3 g1 c114688 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,64,1,1,1,1 3,1,14,2,1,3",
    "res4_3/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 10,1,1,2,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,2,14,1,1,1",
    "res4_4/conv1_1x1 g1 c51086 1,12,1,1,1,1 5,1,1,1,1,1 1,10,1,2,1,1 "
    "1,1,7,1,1,1 1,5,1,1,1,1 52,2,2,7,1,1",
    "res4_4/conv2_3x3 g1 c114688 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,64,1,1,1,1 3,1,14,2,1,3",
    "res4_4/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 10,1,1,2,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,2,14,1,1,1",
    "res4_5/conv1_1x1 g1 c51086 1,12,1,1,1,1 5,1,1,1,1,1 1,10,1,2,1,1 "
    "1,1,7,1,1,1 1,5,1,1,1,1 52,2,2,7,1,1",
    "res4_5/conv2_3x3 g1 c114688 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,64,1,1,1,1 3,1,14,2,1,3",
    "res4_5/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 10,1,1,2,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,2,14,1,1,1",
    "res4_6/conv1_1x1 g1 c51086 1,12,1,1,1,1 5,1,1,1,1,1 1,10,1,2,1,1 "
    "1,1,7,1,1,1 1,5,1,1,1,1 52,2,2,7,1,1",
    "res4_6/conv2_3x3 g1 c114688 1,4,1,1,3,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,64,1,1,1,1 3,1,14,2,1,3",
    "res4_6/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 10,1,1,2,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,2,14,1,1,1",
    "res5_1/conv1_1x1 g1 c25851 1,12,1,1,1,1 5,1,1,1,1,1 3,6,1,1,1,1 "
    "1,1,7,1,1,1 1,5,1,1,1,1 35,3,1,7,1,1",
    "res5_1/conv2_3x3 g4 c26790 1,4,1,1,3,1 5,1,1,1,1,1 4,5,1,1,1,1 "
    "1,2,1,1,1,1 1,13,7,1,1,1 7,1,1,7,1,3",
    "res5_1/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,4,7,1,1,1",
    "res5_1/shortcut_1x1 g2 c86688 1,12,1,1,1,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,1,1,1 1,86,4,7,1,1 11,1,2,1,1,1",
    "res5_2/conv1_1x1 g1 c50470 1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
    "1,1,1,7,1,1 1,3,1,1,1,1 103,3,7,1,1,1",
    "res5_2/conv2_3x3 g4 c26790 1,4,1,1,3,1 5,1,1,1,1,1 4,5,1,1,1,1 "
    "1,2,1,1,1,1 1,13,7,1,1,1 7,1,1,7,1,3",
    "res5_2/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,4,7,1,1,1",
    "res5_3/conv1_1x1 g1 c50470 1,12,1,1,1,1 5,1,1,1,1,1 1,20,1,1,1,1 "
    "1,1,1,7,1,1 1,3,1,1,1,1 103,3,7,1,1,1",
    "res5_3/conv2_3x3 g4 c26790 1,4,1,1,3,1 5,1,1,1,1,1 4,5,1,1,1,1 "
    "1,2,1,1,1,1 1,13,7,1,1,1 7,1,1,7,1,3",
    "res5_3/conv3_1x1 g1 c45402 1,12,1,1,1,1 5,1,1,1,1,1 20,1,1,1,1,1 "
    "1,1,1,7,1,1 1,11,1,1,1,1 21,4,7,1,1,1",
    "fc1000 g2 c1818 12,1,1 1,5,1 10,2,1 1,1,1 18,1,1 1,50,1",
};

std::string schedule_row(const compiler::LayerProgram& lp) {
  std::string row = lp.layer.name + " g" + std::to_string(lp.weight_groups) +
                    " c" + std::to_string(lp.perf.c_exe);
  for (compiler::HwLevel level : compiler::kAllLevels) {
    const char* sep = " ";
    for (std::int64_t v : lp.mapping.level(level)) {
      row += sep + std::to_string(v);
      sep = ",";
    }
  }
  return row;
}

/// Compares a schedule with its golden rows and names the first layer that
/// differs.
void expect_layer_schedules(const NetworkReport& report,
                            std::span<const char* const> golden) {
  const auto& layers = report.schedule.layers;
  for (std::size_t i = 0; i < std::min(layers.size(), golden.size()); ++i) {
    const std::string row = schedule_row(layers[i]);
    if (row != golden[i]) {
      ADD_FAILURE() << "first layer that differs: " << layers[i].layer.name
                    << "\n  expected: " << golden[i]
                    << "\n  actual:   " << row;
      return;
    }
  }
  EXPECT_EQ(layers.size(), golden.size());
}

// Table II (paper config on the xcvu125, 60 k search budget per layer): the
// modeled schedules of GoogLeNet and ResNet50, in total and per layer. Any
// change to these numbers is a change of the reproduced paper figures.
TEST(Framework, ReproducesTableIISchedules) {
  FrameworkOptions opts;
  opts.search_budget_per_layer = 60'000;
  Framework fw{opts};
  const NetworkReport g = fw.evaluate(nn::googlenet());
  const NetworkReport r = fw.evaluate(nn::resnet50());
  EXPECT_EQ(g.schedule.total_cycles, 1'600'500);
  EXPECT_EQ(r.schedule.total_cycles, 3'979'085);
  EXPECT_NEAR(g.fps(), 406.1, 0.05);
  EXPECT_NEAR(r.fps(), 163.4, 0.05);
  // Every split layer at this config divides evenly: no part is shorter.
  for (const NetworkReport* report : {&g, &r}) {
    for (const compiler::LayerProgram& lp : report->schedule.layers)
      EXPECT_EQ(lp.tail, nullptr) << lp.layer.name;
  }
  {
    SCOPED_TRACE("GoogLeNet");
    expect_layer_schedules(g, kGoogLeNetSchedule);
  }
  {
    SCOPED_TRACE("ResNet50");
    expect_layer_schedules(r, kResNet50Schedule);
  }
}

TEST(Framework, SmallerDeviceSmallerOverlay) {
  FrameworkOptions opts;
  opts.device_name = "xc7z020";
  opts.config.d1 = 5;
  opts.config.d2 = 4;
  opts.config.d3 = 9;             // 180 TPEs on the small edge part
  opts.config.psumbuf_words = 1024;  // 2 BRAM18 per SuperBlock fits the 280
  opts.config.clocks = fpga::ClockPair::from_high(600e6);
  Framework fw{opts};
  EXPECT_EQ(fw.config().tpes(), 180);
  const auto prog = fw.compile(nn::make_conv("c", 32, 14, 14, 32, 3, 1, 1));
  EXPECT_TRUE(prog.perf.feasible);
}

}  // namespace
}  // namespace ftdl
