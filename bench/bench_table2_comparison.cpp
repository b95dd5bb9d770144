// Table II: overall performance of FTDL and comparison with related works.
//
// The FTDL row is *computed by this framework*: the compiler schedules
// every GoogLeNet / ResNet50 layer on the Table II configuration (D1=12,
// D2=5, D3=20 on xcvu125 at 650 MHz, 26 GB/s DRAM), giving the network
// hardware efficiency, FPS, and (with the DRAM + FPGA power models) the
// power efficiency. Prior-work columns use their published frequency and
// efficiency normalized to the same 1200 DSPs, exactly as the paper did.
#include <cstdio>

#include "baseline/prior_work.h"
#include "common/str_util.h"
#include "common/table.h"
#include "ftdl/ftdl.h"

int main() {
  using namespace ftdl;

  FrameworkOptions opts;  // Table II defaults
  opts.search_budget_per_layer = 60'000;
  Framework fw{opts};

  std::printf("=== Table II: FTDL vs prior works ===\n");
  std::printf("FTDL config: %s on %s, post-P&R fmax %s\n",
              fw.config().to_string().c_str(), fw.device().name.c_str(),
              format_hz(fw.timing().clk_h_fmax_hz).c_str());
  std::printf("Mapping search budget: %lld candidates per layer\n\n",
              static_cast<long long>(opts.search_budget_per_layer));

  const nn::Network googlenet = nn::googlenet();
  const nn::Network resnet = nn::resnet50();
  const NetworkReport g = fw.evaluate(googlenet);
  const NetworkReport r = fw.evaluate(resnet);

  const double g_ops = double(googlenet.stats().total_ops());
  const double r_ops = double(resnet.stats().total_ops());
  const int ndsp = fw.config().tpes();

  AsciiTable table({"Work", "DSP freq", "HW eff.", "GoogLeNet FPS",
                    "ResNet50 FPS", "GOPS/W"});
  const double base_g = baseline::normalized_fps(
      baseline::table2_prior_works().front(), ndsp, g_ops);
  const double base_r = baseline::normalized_fps(
      baseline::table2_prior_works().front(), ndsp, r_ops);

  for (const auto& w : baseline::table2_prior_works()) {
    const double fps_g = baseline::normalized_fps(w, ndsp, g_ops);
    const double fps_r = baseline::normalized_fps(w, ndsp, r_ops);
    table.row({w.key, strformat("%.0f MHz", w.dsp_freq_mhz),
               format_percent(w.hardware_efficiency),
               strformat("%.1f (%.1fx)", fps_g, fps_g / base_g),
               strformat("%.1f (%.1fx)", fps_r, fps_r / base_r),
               w.power_eff_gops_per_w
                   ? strformat("%.1f", *w.power_eff_gops_per_w)
                   : std::string("N/A")});
  }
  table.row({"FTDL (this work)",
             format_hz(fw.config().clocks.clk_h_hz),
             strformat("%s / %s",
                       format_percent(g.schedule.hardware_efficiency).c_str(),
                       format_percent(r.schedule.hardware_efficiency).c_str()),
             strformat("%.1f (%.1fx)", g.fps(), g.fps() / base_g),
             strformat("%.1f (%.1fx)", r.fps(), r.fps() / base_r),
             strformat("%.1f", g.gops_per_w())});
  table.print();

  std::printf("\nFTDL detail:\n");
  std::printf("  GoogLeNet: %.1f FPS, %.0f effective GOPS, E_WBUF %.2f, "
              "%zu overlay layers\n",
              g.fps(), g.effective_gops(), g.schedule.mean_e_wbuf,
              g.schedule.layers.size());
  std::printf("  ResNet50:  %.1f FPS, %.0f effective GOPS, E_WBUF %.2f, "
              "%zu overlay layers\n",
              r.fps(), r.effective_gops(), r.schedule.mean_e_wbuf,
              r.schedule.layers.size());
  std::printf("  Power: %.1f W total (DSP %.1f, BRAM %.1f, CLB %.1f, clock "
              "%.1f, static %.1f, DRAM %.1f)\n",
              g.power.total_w(), g.power.dsp_w, g.power.bram_w, g.power.clb_w,
              g.power.clock_w, g.power.static_w, g.power.dram_w);
  std::printf("  Paper row: 650 MHz, 81.1%% / 74.8%%, 402.6 / 151.2 FPS "
              "(7.7x / 7.1x), 27.6 GOPS/W (1.9x)\n");
  return 0;
}
