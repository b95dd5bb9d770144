#include "dse/explorer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/csv.h"
#include "common/error.h"
#include "common/str_util.h"
#include "compiler/session.h"
#include "dram/dram_power.h"
#include "obs/obs.h"
#include "timing/placement.h"
#include "timing/timing_analyzer.h"

namespace ftdl::dse {

namespace {

/// Evaluates one candidate end to end; returns false when it is infeasible
/// (does not fit the device / no feasible mapping / timing below base clock).
bool evaluate_candidate(const nn::Network& net, const fpga::Device& device,
                        arch::OverlayConfig cfg, const DseOptions& opt,
                        DsePoint& out) {
  try {
    timing::OverlayGeometry g;
    g.d1 = cfg.d1;
    g.d2 = cfg.d2;
    g.d3 = cfg.d3;
    const timing::PlacementResult placement = timing::place_ftdl(device, g);
    const timing::TimingReport sta = timing::analyze_double_pump(device, placement);
    if (opt.derive_clock) {
      const double grid = 25e6;
      cfg.clocks = fpga::ClockPair::from_high(
          std::floor(sta.clk_h_fmax_hz / grid) * grid);
    } else if (cfg.clocks.clk_h_hz > sta.clk_h_fmax_hz) {
      return false;  // candidate cannot run at the requested clock
    }
    cfg.validate_for_device(device);

    const compiler::NetworkSchedule sched = compiler::schedule_network(
        net, cfg, compiler::Objective::Performance,
        opt.search_budget_per_layer);

    // DRAM + FPGA power at this candidate's activity.
    double rd = 0.0, wr = 0.0;
    for (const compiler::LayerProgram& p : sched.layers) {
      rd += p.total_dram_rd_bytes() * p.layer.repeat;
      wr += p.total_dram_wr_bytes() * p.layer.repeat;
    }
    const dram::DramReport dr = dram::evaluate_volume(
        static_cast<std::uint64_t>(rd), static_cast<std::uint64_t>(wr),
        sched.seconds_per_frame(), dram::DramSpec::ddr4_2400());
    const power::PowerBreakdown pw = power::estimate_power(
        device, cfg, sched.hardware_efficiency, dr.average_watts());

    out.config = cfg;
    out.clk_h_hz = cfg.clocks.clk_h_hz;
    out.fps = sched.fps();
    out.efficiency = sched.hardware_efficiency;
    out.power_w = pw.total_w();
    out.gops_per_w =
        power::power_efficiency_gops_per_w(sched.effective_gops(), pw);
    out.tpes = cfg.tpes();
    const std::int64_t psum_brams =
        (cfg.psumbuf_words * cfg.psum_bytes * 8 + 18 * 1024 - 1) / (18 * 1024);
    out.bram18_used =
        cfg.tpes() + static_cast<int>(cfg.superblocks() * psum_brams);
    return true;
  } catch (const Error&) {
    return false;
  }
}

void mark_pareto(std::vector<DsePoint>& pts) {
  for (DsePoint& a : pts) {
    a.pareto = true;
    for (const DsePoint& b : pts) {
      // b dominates a: at least as fast AND at most as power-hungry,
      // strictly better in one dimension.
      if (b.fps >= a.fps && b.power_w <= a.power_w &&
          (b.fps > a.fps || b.power_w < a.power_w)) {
        a.pareto = false;
        break;
      }
    }
  }
}

}  // namespace

DseResult explore(const nn::Network& net, const fpga::Device& device,
                  const arch::OverlayConfig& base, const DseOptions& options) {
  if (options.d1_candidates.empty())
    throw ConfigError("DSE needs at least one D1 candidate");

  std::vector<std::int64_t> actbufs =
      options.sweep_actbuf ? std::vector<std::int64_t>{64, 128, 256}
                           : std::vector<std::int64_t>{base.actbuf_words};

  // Enumerate candidates serially, then evaluate them concurrently through
  // the shared compiler session (its program cache makes overlapping
  // candidates cheap) and collect survivors back in enumeration order, so
  // the point set is identical to a serial sweep.
  std::vector<arch::OverlayConfig> candidates;
  for (int d1 : options.d1_candidates) {
    for (int d2 = 1; d2 <= device.dsp_columns; ++d2) {
      // Per (d1, d2): deepest D3 that fits the column height.
      const int d3 = device.dsp_per_column / d1;
      if (d3 < 1) continue;
      for (std::int64_t actbuf : actbufs) {
        arch::OverlayConfig cfg = base;
        cfg.d1 = d1;
        cfg.d2 = d2;
        cfg.d3 = d3;
        cfg.actbuf_words = actbuf;
        if (double(cfg.tpes()) <
            options.min_dsp_utilization * device.total_dsp())
          continue;
        candidates.push_back(cfg);
      }
    }
  }

  compiler::CompilerSession& session = compiler::CompilerSession::global();
  if (options.jobs > 0) session.set_jobs(options.jobs);

  obs::ScopedSpan span("dse", "explore",
                       {{"network", net.name()},
                        {"candidates", std::to_string(candidates.size())}});

  std::vector<std::unique_ptr<DsePoint>> evaluated(candidates.size());
  session.pool().parallel_for(candidates.size(), [&](std::size_t i) {
    compiler::name_worker_track();
    obs::ScopedSpan task_span(
        "dse", "candidate",
        {{"split", strformat("%dx%dx%d", candidates[i].d1, candidates[i].d2,
                             candidates[i].d3)}});
    DsePoint pt;
    if (evaluate_candidate(net, device, candidates[i], options, pt)) {
      evaluated[i] = std::make_unique<DsePoint>(pt);
    }
  });

  DseResult result;
  for (const auto& pt : evaluated) {
    if (pt) result.points.push_back(*pt);
  }

  mark_pareto(result.points);
  std::sort(result.points.begin(), result.points.end(),
            [](const DsePoint& a, const DsePoint& b) { return a.fps > b.fps; });
  return result;
}

std::vector<DsePoint> DseResult::frontier() const {
  std::vector<DsePoint> out;
  for (const DsePoint& p : points) {
    if (p.pareto) out.push_back(p);
  }
  return out;
}

std::string export_csv(const DseResult& result, const std::string& path) {
  CsvWriter csv(path, {"d1", "d2", "d3", "actbuf", "clk_mhz", "fps",
                       "efficiency", "power_w", "gops_per_w", "tpes",
                       "bram18", "pareto"});
  for (const DsePoint& p : result.points) {
    csv.row({std::to_string(p.config.d1), std::to_string(p.config.d2),
             std::to_string(p.config.d3),
             std::to_string(p.config.actbuf_words),
             strformat("%.0f", p.clk_h_hz / 1e6), strformat("%.2f", p.fps),
             strformat("%.4f", p.efficiency), strformat("%.2f", p.power_w),
             strformat("%.2f", p.gops_per_w), std::to_string(p.tpes),
             std::to_string(p.bram18_used), p.pareto ? "1" : "0"});
  }
  return path;
}

}  // namespace ftdl::dse
