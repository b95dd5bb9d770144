// Tests for the host LSTM kernels (fixed-point nonlinearities, cell update)
// and the host pipeline model.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/overlay_config.h"
#include "compiler/scheduler.h"
#include "host/host_pipeline.h"
#include "host/lstm_runner.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"

namespace ftdl::host {
namespace {

std::int16_t to_q412(double x) {
  return static_cast<std::int16_t>(std::lround(x * 4096.0));
}
double from_q114(std::int16_t v) { return double(v) / 16384.0; }

TEST(EwopKernels, SigmoidShape) {
  // sigmoid(0) = 0.5, saturates toward 0/1, monotone.
  EXPECT_NEAR(from_q114(sigmoid_q(0)), 0.5, 0.01);
  EXPECT_NEAR(from_q114(sigmoid_q(to_q412(4.0))), 1.0 / (1 + std::exp(-4.0)),
              0.01);
  EXPECT_NEAR(from_q114(sigmoid_q(to_q412(-4.0))), 1.0 / (1 + std::exp(4.0)),
              0.01);
  for (int x = -30000; x < 30000; x += 700) {
    EXPECT_LE(sigmoid_q(static_cast<std::int16_t>(x)),
              sigmoid_q(static_cast<std::int16_t>(x + 700)));
  }
}

TEST(EwopKernels, TanhShape) {
  EXPECT_NEAR(from_q114(tanh_q(0)), 0.0, 0.01);
  EXPECT_NEAR(from_q114(tanh_q(to_q412(2.0))), std::tanh(2.0), 0.01);
  // Odd symmetry within LUT quantization.
  for (double x : {0.5, 1.0, 3.0}) {
    EXPECT_NEAR(from_q114(tanh_q(to_q412(x))),
                -from_q114(tanh_q(to_q412(-x))), 0.02);
  }
}

TEST(EwopKernels, LstmCellAgainstDoubleReference) {
  // One cell update compared against double-precision math.
  const double pi = 0.7, pf = -0.3, pg = 0.5, po = 1.2, c0 = 0.4;
  LstmCellState st{nn::Tensor16({1}), nn::Tensor16({1})};
  st.c[0] = to_q412(c0);
  nn::Tensor16 i({1}), f({1}), g({1}), o({1});
  i[0] = to_q412(pi); f[0] = to_q412(pf); g[0] = to_q412(pg); o[0] = to_q412(po);
  lstm_cell_update(i, f, g, o, st);

  auto sig = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  const double c1 = sig(pf) * c0 + sig(pi) * std::tanh(pg);
  const double h1 = sig(po) * std::tanh(c1);
  EXPECT_NEAR(double(st.c[0]) / 4096.0, c1, 0.02);
  EXPECT_NEAR(double(st.h[0]) / 4096.0, h1, 0.02);
}

TEST(HostPipeline, PaperClaimHoldsOnGoogLeNet) {
  // "The performance was not bounded by these layers" — check it: at a
  // modest 20 Gops/s host, EWOP time is far below overlay time.
  const nn::Network net = nn::googlenet();
  const auto sched = compiler::schedule_network(net, arch::paper_config(),
                                                compiler::Objective::Performance,
                                                10'000);
  const PipelineReport r = evaluate_pipeline(net, sched, HostModel{});
  EXPECT_FALSE(r.ewop_bounds_throughput);
  EXPECT_LT(r.host_over_overlay, 0.25);
  EXPECT_DOUBLE_EQ(r.frame_seconds, r.overlay_seconds);
  EXPECT_GT(r.worst_stage_ratio, 0.0);
}

TEST(HostPipeline, SlowHostBreaksTheClaim) {
  const nn::Network net = nn::googlenet();
  const auto sched = compiler::schedule_network(net, arch::paper_config(),
                                                compiler::Objective::Performance,
                                                10'000);
  const double required = required_host_ops_per_sec(net, sched);
  EXPECT_GT(required, 0.0);

  HostModel slow;
  slow.ewop_ops_per_sec = required / 2.0;
  const PipelineReport r = evaluate_pipeline(net, sched, slow);
  EXPECT_TRUE(r.ewop_bounds_throughput);
  EXPECT_GT(r.frame_seconds, r.overlay_seconds);

  HostModel fast;
  fast.ewop_ops_per_sec = required * 2.0;
  EXPECT_FALSE(evaluate_pipeline(net, sched, fast).ewop_bounds_throughput);
}

TEST(HostPipeline, HostOnlyNetworkHasDefinedRatios) {
  // Regression: a network with no overlay layers has overlay_seconds == 0,
  // and the report used to divide straight through it — host_over_overlay
  // came out inf-by-accident and, with no host work either, NaN. The
  // defined values (host_pipeline.h): +inf when host work exists with no
  // overlay stage to hide behind, and every gauge stays finite.
  nn::Network net("host-only");
  net.add(nn::make_pool("pool", 8, 16, 16, 2, 2));
  net.add(nn::make_ewop("post", 10'000));
  net.validate_graph();
  compiler::NetworkSchedule sched;
  sched.config = arch::paper_config();

  obs::Registry::global().reset();
  obs::set_enabled(true);
  const PipelineReport r = evaluate_pipeline(net, sched, HostModel{});
  obs::set_enabled(false);

  EXPECT_DOUBLE_EQ(r.overlay_seconds, 0.0);
  EXPECT_GT(r.host_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.frame_seconds, r.host_seconds);
  EXPECT_TRUE(std::isinf(r.host_over_overlay));
  EXPECT_GT(r.host_over_overlay, 0.0);
  EXPECT_TRUE(r.ewop_bounds_throughput);
  // The hand-off queue gauge must stay finite for the metrics JSON: a
  // host-bound pipeline is fully occupied, not infinitely so.
  const double occupancy = obs::Registry::global().gauge("host/queue_occupancy");
  EXPECT_TRUE(std::isfinite(occupancy));
  EXPECT_DOUBLE_EQ(occupancy, 1.0);
  obs::Registry::global().reset();
}

TEST(HostPipeline, EmptyNetworkReportsZeros) {
  // Degenerate case of the same regression: no work anywhere must give
  // well-defined zeros, never 0/0 NaN.
  nn::Network net("empty");
  compiler::NetworkSchedule sched;
  sched.config = arch::paper_config();
  const PipelineReport r = evaluate_pipeline(net, sched, HostModel{});
  EXPECT_DOUBLE_EQ(r.overlay_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.host_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.frame_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.host_over_overlay, 0.0);
  EXPECT_FALSE(r.ewop_bounds_throughput);
  EXPECT_FALSE(std::isnan(r.host_over_overlay));
}

}  // namespace
}  // namespace ftdl::host
