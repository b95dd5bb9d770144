// table2-compile: the Table II schedule of GoogLeNet and ResNet50, from a
// cold compiler cache, through ftdl::Framework::evaluate.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "common/str_util.h"
#include "compiler/session.h"
#include "ftdl/ftdl.h"
#include "nn/model_zoo.h"
#include "trace.h"

namespace perfbench {

using namespace ftdl;

namespace {

/// Table II search budget per layer (bench_table2_comparison).
constexpr std::int64_t kBudget = 60'000;

/// Modeled cycles per frame of the Table II schedules (406.1 and 163.4 FPS
/// at 650 MHz). Any change to them is a change of the paper's numbers.
constexpr std::int64_t kGoogLeNetCycles = 1'600'500;
constexpr std::int64_t kResNet50Cycles = 3'979'085;

FrameworkOptions table2_options(const Options& opt) {
  FrameworkOptions fo;  // Table II config on xcvu125
  fo.search_budget_per_layer = kBudget;
  fo.jobs = opt.threads;
  return fo;
}

/// Set-up is about 0.1 ms; many repetitions keep its median steady.
int setup_reps(const Options& opt) {
  return opt.short_mode || opt.trace ? 5 : 301;
}

}  // namespace

Outcome run_table2_compile(const Options& opt, Tracer* tracer) {
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  session.set_store(nullptr);  // no disk tier: FTDL_CACHE_DIR must not warm it
  const FrameworkOptions fo = table2_options(opt);

  // Set-up: the framework and the two network graphs it schedules.
  std::vector<double> setup_s;
  std::optional<Framework> fw;
  std::optional<nn::Network> googlenet, resnet;
  for (int i = 0; i < setup_reps(opt); ++i) {
    Scope span(tracer, "setup", "table2-compile");
    const auto t0 = Clock::now();
    fw.emplace(fo);
    googlenet.emplace(nn::googlenet());
    resnet.emplace(nn::resnet50());
    setup_s.push_back(seconds_since(t0));
  }

  Outcome out;
  std::vector<double> pair_ms;
  double g_fps = 0.0, r_fps = 0.0;
  compiler::SessionStats before, after;
  const auto start = Clock::now();
  do {
    session.clear_cache();
    before = session.stats();
    const auto t0 = Clock::now();
    std::int64_t cycles[2] = {0, 0};
    {
      Scope span(tracer, "compiler.evaluate", "googlenet");
      const NetworkReport g = fw->evaluate(*googlenet);
      cycles[0] = g.schedule.total_cycles;
      g_fps = g.fps();
    }
    {
      Scope span(tracer, "compiler.evaluate", "resnet50");
      const NetworkReport r = fw->evaluate(*resnet);
      cycles[1] = r.schedule.total_cycles;
      r_fps = r.fps();
    }
    pair_ms.push_back(seconds_since(t0) * 1e3);
    std::printf("  evaluate pair %zu: %.1f ms\n", pair_ms.size(), pair_ms.back());
    after = session.stats();
    if (opt.corrupt) ++cycles[0];
    out.attempted += 2;
    out.failed += (cycles[0] != kGoogLeNetCycles) + (cycles[1] != kResNet50Cycles);
  } while (!opt.short_mode && seconds_since(start) < opt.seconds);
  const double timed_s = seconds_since(start);

  out.add("setup_s", median(setup_s), "s");
  out.add("p50_ms", median(pair_ms), "ms");
  // Frames per second of one GoogLeNet plus one ResNet50 frame.
  out.add("modeled_fps", 1.0 / (1.0 / g_fps + 1.0 / r_fps), "frame/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");

  out.note("compile_s", median(pair_ms) / 1e3, "s");
  out.note("googlenet_fps", g_fps, "frame/s");
  out.note("resnet50_fps", r_fps, "frame/s");
  out.note("evaluate_pairs", double(pair_ms.size()), "count");
  out.note("evaluate_pairs_per_s", double(pair_ms.size()) / timed_s, "1/s");

  if (tracer) {
    out.layer("compiler.evaluate_s.googlenet",
              median(tracer->durations_ms("compiler.evaluate", "googlenet")) / 1e3,
              "s");
    out.layer("compiler.evaluate_s.resnet50",
              median(tracer->durations_ms("compiler.evaluate", "resnet50")) / 1e3,
              "s");
    out.layer("compiler.distinct_shapes", double(after.entries), "count");
    out.layer("compiler.cache_hits", double(after.hits - before.hits), "count");
    out.layer("compiler.cache_misses", double(after.misses - before.misses),
              "count");
    out.layer("compiler.search_budget", double(kBudget), "count");
  }
  return out;
}

void probe_compiler(const Options& opt, Tracer& tracer, Outcome& out) {
  // One compile per distinct layer shape, on a fresh session, spread over
  // the session's own pool; each call is timed where it is made.
  compiler::CompilerSession fresh(opt.threads);
  const arch::OverlayConfig config = table2_options(opt).config;
  std::vector<nn::Layer> shapes;
  std::set<std::string> seen;
  for (const nn::Network& net : {nn::googlenet(), nn::resnet50()}) {
    for (const nn::Layer& l : net.overlay_layers()) {
      const std::string key = strformat(
          "%d/%d/%d/%d/%d/%d/%d/%d/%d/%lld/%lld/%lld/%d", int(l.kind), l.in_c,
          l.in_h, l.in_w, l.out_c, l.kh, l.kw, l.stride, l.pad,
          static_cast<long long>(l.mm_m), static_cast<long long>(l.mm_n),
          static_cast<long long>(l.mm_p), int(l.relu));
      if (seen.insert(key).second) shapes.push_back(l);
    }
    if (opt.short_mode) break;
  }
  fresh.pool().parallel_for(shapes.size(), [&](std::size_t i) {
    Scope span(&tracer, "compiler.compile_layer", shapes[i].name);
    fresh.compile(shapes[i], config, compiler::Objective::Performance, kBudget);
  });
  const std::vector<double> ms = tracer.durations_ms("compiler.compile_layer");
  out.layer("compiler.layer_compile_ms_p50", median(ms), "ms");
  out.layer("compiler.layer_compile_ms_max",
            ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()), "ms");
}

}  // namespace perfbench
