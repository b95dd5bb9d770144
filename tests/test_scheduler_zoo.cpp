// Network-level scheduling sweeps across the whole model zoo, plus
// objective-comparison and timing-report checks that exercise the
// framework the way the benches do (at small budgets).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "arch/overlay_config.h"
#include "common/error.h"
#include "compiler/scheduler.h"
#include "compiler/session.h"
#include "fpga/device_zoo.h"
#include "nn/model_zoo.h"
#include "timing/timing_report.h"

namespace ftdl {
namespace {

using arch::paper_config;
using compiler::Objective;
using compiler::schedule_network;

class ZooScheduling : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooScheduling, EveryModelSchedulesWithSaneNumbers) {
  const nn::Network net = nn::model_by_name(GetParam());
  const auto sched = schedule_network(net, paper_config(),
                                      Objective::Performance, 6'000);
  EXPECT_EQ(sched.layers.size(), net.overlay_layers().size());
  EXPECT_GT(sched.total_cycles, 0);
  EXPECT_GT(sched.hardware_efficiency, 0.01) << GetParam();
  EXPECT_LE(sched.hardware_efficiency, 1.0) << GetParam();
  EXPECT_GT(sched.mean_e_wbuf, 0.0);
  EXPECT_LE(sched.mean_e_wbuf, 1.0 + 1e-9);
  EXPECT_GT(sched.fps(), 0.0);
  // Per-layer invariants.
  std::int64_t macs = 0;
  for (const auto& lp : sched.layers) {
    EXPECT_TRUE(lp.perf.feasible) << lp.layer.name;
    EXPECT_GE(lp.weight_groups, 1);
    macs += lp.layer.macs() * lp.layer.repeat;
  }
  EXPECT_EQ(macs, sched.overlay_macs);
}

INSTANTIATE_TEST_SUITE_P(Models, ZooScheduling,
                         ::testing::Values("GoogLeNet", "ResNet50",
                                           "AlphaGoZero", "Sentimental-seqCNN",
                                           "Sentimental-seqLSTM",
                                           "MobileNetV1"));

// The modeled charge is the parts that run, on every overlay layer of five
// zoo networks at 4x2x3 with an 8 k budget: weight_groups counts the parts,
// and total_cycles() equals the sum of each part's own compiled
// total_cycles() (the full-size slice and the shorter last slice, each
// compiled on its own). The four layers whose charge moved when programs
// began to count the parts that run are pinned: two run a shorter last
// part, and two (ResNet50's fc1000, seqLSTM's classifier) run fewer
// full-size parts than the group count they were searched at. The network
// sums pin every other layer to its earlier charge.
TEST(SchedulerZoo, ModeledChargeEqualsThePartsThatRun) {
  arch::OverlayConfig cfg = paper_config();
  cfg.d1 = 4;
  cfg.d2 = 2;
  cfg.d3 = 3;
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  const auto compile = [&](const nn::Layer& l) {
    return session.compile(l, cfg, Objective::Performance, 8'000);
  };
  const std::map<std::string, std::pair<int, std::int64_t>> moved = {
      {"GoogLeNet/loss3/classifier", {63, 86'630}},
      {"ResNet50/fc1000", {125, 172'250}},
      {"AlphaGoZero/policy/fc", {16, 22'966}},
      {"Sentimental-seqLSTM/classifier", {125, 257'250}},
  };
  const std::pair<const char*, std::int64_t> nets[] = {
      {"GoogLeNet", 72'869'748},     {"ResNet50", 175'206'620},
      {"AlphaGoZero", 11'325'148},   {"Sentimental-seqCNN", 517'546},
      {"Sentimental-seqLSTM", 1'668'322},
  };
  int tails_seen = 0, moved_seen = 0;
  for (const auto& [name, total] : nets) {
    std::int64_t sum = 0;
    for (const nn::Layer& layer : nn::model_by_name(name).overlay_layers()) {
      const std::string id = std::string(name) + "/" + layer.name;
      SCOPED_TRACE(id);
      const compiler::LayerProgram prog = compile(layer);
      sum += prog.total_cycles();
      if (prog.weight_groups == 1) {
        EXPECT_EQ(prog.tail, nullptr);
        continue;
      }
      const compiler::LayerProgram full =
          compile(compiler::weight_group_slice(layer, prog.weight_groups));
      ASSERT_EQ(full.weight_groups, 1);
      std::int64_t parts = prog.full_size_parts();
      std::int64_t part_cycles = full.total_cycles() * parts;
      if (prog.tail) {
        const compiler::LayerProgram tail = compile(prog.tail->layer);
        ASSERT_EQ(tail.weight_groups, 1);
        part_cycles += tail.total_cycles();
        ++parts;
        ++tails_seen;
      }
      if (const auto it = moved.find(id); it != moved.end()) {
        ++moved_seen;
        EXPECT_EQ(prog.weight_groups, it->second.first);
        EXPECT_EQ(prog.total_cycles(), it->second.second);
      }
      EXPECT_EQ(prog.weight_groups, parts);
      EXPECT_EQ(prog.total_cycles(), part_cycles);
    }
    EXPECT_EQ(sum, total) << name;
  }
  EXPECT_EQ(moved_seen, static_cast<int>(moved.size()));
  EXPECT_EQ(tails_seen, 2);  // GoogLeNet's classifier and AlphaGoZero's
}

TEST(SchedulerZoo, BalanceObjectiveImprovesEwbufOnGoogLeNet) {
  const nn::Network net = nn::googlenet();
  const auto perf = schedule_network(net, paper_config(),
                                     Objective::Performance, 8'000);
  const auto bal = schedule_network(net, paper_config(),
                                    Objective::Balance, 8'000);
  EXPECT_GT(bal.mean_e_wbuf, perf.mean_e_wbuf);
  // Eqn. 13 weighs E_WBUF equally with normalized speed, so layers whose
  // duplication-free mappings are slow (conv1: N=3) may trade a LOT of
  // speed for residency — the trade is real but must stay finite.
  EXPECT_GT(bal.fps(), 0.03 * perf.fps());
}

TEST(SchedulerZoo, MobileNetEfficiencyFarBelowGoogLeNet) {
  // The depthwise architecture-limit, at network level.
  const auto mb = schedule_network(nn::mobilenet_v1(), paper_config(),
                                   Objective::Performance, 6'000);
  const auto gn = schedule_network(nn::googlenet(), paper_config(),
                                   Objective::Performance, 6'000);
  EXPECT_LT(mb.hardware_efficiency, 0.6 * gn.hardware_efficiency);
}

TEST(SchedulerZoo, SeqLstmPaysTheBatchOnePenalty) {
  const auto sched = schedule_network(nn::sentimental_seqlstm(),
                                      paper_config(),
                                      Objective::Performance, 6'000);
  // Gate matrices at P=1 cannot reach 2-way weight reuse: <= ~50%.
  EXPECT_LT(sched.hardware_efficiency, 0.55);
  for (const auto& lp : sched.layers) {
    if (lp.layer.mm_p == 1) {
      EXPECT_FALSE(lp.perf.weight_reuse_ok);
    }
  }
}

TEST(SchedulerZoo, TimingReportRendersForPaperConfig) {
  timing::OverlayGeometry g;
  g.d1 = 12;
  g.d2 = 5;
  g.d3 = 20;
  const std::string report = timing::render_timing_report(
      fpga::ultrascale_vu125(), g, fpga::ClockPair::from_high(650e6));
  EXPECT_NE(report.find("Timing MET"), std::string::npos);
  EXPECT_NE(report.find("dsp-internal"), std::string::npos);
  EXPECT_NE(report.find("CLKl"), std::string::npos);
  EXPECT_EQ(report.find("VIOLATED"), std::string::npos);

  // An overclocked target must be flagged, not hidden.
  const std::string bad = timing::render_timing_report(
      fpga::ultrascale_vu125(), g, fpga::ClockPair::from_high(760e6));
  EXPECT_NE(bad.find("VIOLATED"), std::string::npos);
  EXPECT_NE(bad.find("NOT MET"), std::string::npos);
}

TEST(SchedulerZoo, ChargedReloadLowersFpsOnResNet) {
  arch::OverlayConfig charged = paper_config();
  charged.charge_weight_reload = true;
  const auto free_sched = schedule_network(nn::resnet50(), paper_config(),
                                           Objective::Performance, 6'000);
  const auto paid = schedule_network(nn::resnet50(), charged,
                                     Objective::Performance, 6'000);
  EXPECT_LT(paid.fps(), free_sched.fps());
}

TEST(SchedulerZoo, ScheduleCsvExport) {
  nn::Network net("csvnet");
  net.add(nn::make_conv("c1", 16, 14, 14, 16, 3, 1, 1));
  net.add(nn::make_matmul("fc", 16 * 14 * 14, 10, 1));
  const auto sched = schedule_network(net, paper_config(),
                                      Objective::Performance, 4'000);
  const std::string path =
      compiler::schedule_to_csv(sched, "schedule_test_tmp.csv");
  std::ifstream in(path);
  std::string header, l1, l2;
  std::getline(in, header);
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_NE(header.find("e_wbuf"), std::string::npos);
  EXPECT_NE(l1.find("c1"), std::string::npos);
  EXPECT_NE(l2.find("fc"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ftdl
