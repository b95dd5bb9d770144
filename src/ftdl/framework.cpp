#include "ftdl/framework.h"

#include <cmath>

#include "common/error.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "compiler/session.h"
#include "fpga/device_zoo.h"
#include "timing/placement.h"

namespace ftdl {

Framework::Framework(FrameworkOptions options)
    : options_(std::move(options)), device_(fpga::device_by_name(options_.device_name)) {
  arch::OverlayConfig& cfg = options_.config;

  if (options_.jobs > 0) {
    compiler::CompilerSession::global().set_jobs(options_.jobs);
  }

  // Place and time the overlay first: the clock policy may need the result,
  // and an overlay that does not fit should fail fast.
  timing::OverlayGeometry g;
  g.d1 = cfg.d1;
  g.d2 = cfg.d2;
  g.d3 = cfg.d3;
  const timing::PlacementResult placement = timing::place_ftdl(device_, g);
  timing_ = cfg.double_pump ? timing::analyze_double_pump(device_, placement)
                            : timing::analyze_single_clock(device_, placement);

  if (options_.clock_policy == ClockPolicy::DeriveFloor) {
    const double grid = 50e6;
    const double derived =
        std::floor(timing_.clk_h_fmax_hz / grid) * grid;
    cfg.clocks = fpga::ClockPair::from_high(derived);
    log_info(strformat("derived CLKh = %s (post-P&R fmax %s)",
                       format_hz(derived).c_str(),
                       format_hz(timing_.clk_h_fmax_hz).c_str()));
  } else if (cfg.clocks.clk_h_hz > timing_.clk_h_fmax_hz + 1.0) {
    throw ConfigError(strformat(
        "configured CLKh %s exceeds post-P&R fmax %s on %s",
        format_hz(cfg.clocks.clk_h_hz).c_str(),
        format_hz(timing_.clk_h_fmax_hz).c_str(), device_.name.c_str()));
  }

  cfg.validate_for_device(device_);
}

compiler::LayerProgram Framework::compile(const nn::Layer& layer) const {
  return compiler::CompilerSession::global().compile(
      layer, options_.config, options_.objective,
      options_.search_budget_per_layer);
}

NetworkReport Framework::evaluate(const nn::Network& net) const {
  NetworkReport report;
  report.schedule = compiler::schedule_network(
      net, options_.config, options_.objective,
      options_.search_budget_per_layer);

  // DRAM traffic totals over one frame.
  double rd_bytes = 0.0, wr_bytes = 0.0;
  for (const compiler::LayerProgram& p : report.schedule.layers) {
    rd_bytes += p.total_dram_rd_bytes() * p.layer.repeat;
    wr_bytes += p.total_dram_wr_bytes() * p.layer.repeat;
  }
  report.dram = dram::evaluate_volume(
      static_cast<std::uint64_t>(rd_bytes), static_cast<std::uint64_t>(wr_bytes),
      report.schedule.seconds_per_frame(), options_.dram_spec,
      options_.dram_channels);

  report.power = power::estimate_power(device_, options_.config,
                                       report.schedule.hardware_efficiency,
                                       report.dram.average_watts());
  return report;
}

}  // namespace ftdl
