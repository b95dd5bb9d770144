// End-to-end framework tests: device + overlay + compiler + power together.
#include <gtest/gtest.h>

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

// Table II (paper config on the xcvu125, 60 k search budget per layer): the
// modeled schedules of GoogLeNet and ResNet50. Any change to these numbers
// is a change of the reproduced paper figures.
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
