// infer-googlenet: closed-loop GoogLeNet inference, one request in flight,
// through runtime::ExecContext on the CycleSim path; plus the traced run's
// per-layer probe of the simulator and the runtime's host kernels.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "compiler/session.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"
#include "sim/ftdl_sim.h"
#include "trace.h"

namespace perfbench {

using namespace ftdl;

namespace {

/// Distinct seeded request inputs cycled through by the timed loop.
constexpr int kInputs = 4;

/// The network, its weights and the warm context built on them (the
/// context keeps references to both, so they live together on the heap).
struct Model {
  Model(nn::Network n, runtime::WeightStore w)
      : net(std::move(n)), weights(std::move(w)) {}
  nn::Network net;
  runtime::WeightStore weights;
  std::unique_ptr<runtime::ExecContext> ctx;
};

std::unique_ptr<Model> build_model(const Options& opt,
                                   const runtime::ExecOptions& eo,
                                   Tracer* tracer) {
  std::unique_ptr<Model> m;
  {
    Scope span(tracer, "nn.build", "googlenet");
    nn::Network net = nn::googlenet();
    runtime::WeightStore w =
        runtime::WeightStore::random_for(net, mix_seed(opt.seed, 1));
    m = std::make_unique<Model>(std::move(net), std::move(w));
  }
  Scope span(tracer, "runtime.warmup", "googlenet");
  m->ctx = std::make_unique<runtime::ExecContext>(m->net, m->weights, eo);
  return m;
}

/// Layer classes of the per-layer sim metrics.
std::string layer_class(const nn::Layer& l) {
  if (l.kind == nn::LayerKind::MatMul) return "fc";
  switch (l.kh) {
    case 7: return "stem";
    case 1: return "conv1x1";
    case 3: return "conv3x3";
    case 5: return "conv5x5";
    default: return "other";
  }
}

const char* bound_channel(const compiler::Performance& p) {
  if (p.c_exe == p.c_dram_rd || p.c_exe == p.c_dram_wr) return "dram";
  if (p.c_exe == p.c_act_bus) return "actbus";
  if (p.c_exe == p.c_psum_bus) return "psumbus";
  return "compute";
}

/// The weight-group layers the executor runs for `layer` (output channels
/// or features split into `groups` near-equal slices).
std::vector<nn::Layer> group_layers(const nn::Layer& layer, int groups) {
  const int total = layer.kind == nn::LayerKind::MatMul
                        ? static_cast<int>(layer.mm_n)
                        : layer.out_c;
  const int size = static_cast<int>(ceil_div(total, groups));
  std::vector<nn::Layer> out;
  for (int off = 0; off < total; off += size) {
    nn::Layer g = layer;
    const int n = std::min(size, total - off);
    if (layer.kind == nn::LayerKind::MatMul) g.mm_n = n;
    else g.out_c = n;
    out.push_back(std::move(g));
  }
  return out;
}

nn::Tensor16 random_tensor(const nn::Dims& dims, Rng& rng) {
  nn::Tensor16 t(dims);
  t.fill_random(rng);
  return t;
}

}  // namespace

Outcome run_infer_googlenet(const Options& opt, Tracer* tracer) {
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  session.set_store(nullptr);
  session.set_jobs(opt.threads);  // the sim_jobs=0 pool
  const runtime::ExecOptions eo = sim_exec_options(0);

  // Set-up: model + weights + ExecContext constructor, from a cold compiler
  // cache each time (a new process pays the compile).
  std::vector<double> setup_s;
  std::unique_ptr<Model> model;
  const int reps = opt.short_mode || opt.trace ? 1 : 3;
  for (int i = 0; i < reps; ++i) {
    model.reset();
    session.clear_cache();
    Scope span(tracer, "setup", "infer-googlenet");
    const auto t0 = Clock::now();
    model = build_model(opt, eo, tracer);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<nn::Tensor16> inputs;
  for (int i = 0; i < kInputs; ++i)
    inputs.push_back(make_input(model->net, mix_seed(opt.seed, 100 + i)));

  Outcome out;
  std::vector<nn::Tensor16> first_outputs(kInputs);
  std::vector<double> run_ms;
  std::int64_t cycles = 0;
  const int min_runs = opt.short_mode ? 1 : 3;
  const auto start = Clock::now();
  for (int i = 0; i < min_runs || seconds_since(start) < opt.seconds; ++i) {
    const nn::Tensor16& in = inputs[static_cast<std::size_t>(i % kInputs)];
    runtime::ExecResult r;
    {
      Scope span(tracer, "runtime.run", "googlenet", std::uint64_t(i) + 1);
      const auto t0 = Clock::now();
      r = model->ctx->run(in);
      run_ms.push_back(seconds_since(t0) * 1e3);
    }
    cycles = r.total_sim_cycles;
    ++out.attempted;
    // Repeats of one input must reproduce its first output exactly.
    nn::Tensor16& first = first_outputs[static_cast<std::size_t>(i % kInputs)];
    if (i < kInputs) first = std::move(r.output);
    else out.failed += !(r.output == first);
  }
  const double timed_s = seconds_since(start);

  // Outside the timed window: the first output against the nn reference
  // kernels.
  {
    Scope span(tracer, "check.reference", "googlenet");
    if (opt.corrupt) first_outputs[0][0] ^= 1;
    const nn::Tensor16 ref = reference_forward(
        model->net, model->weights, inputs[0], eo.target_magnitude_bits,
        opt.threads);
    ++out.attempted;
    out.failed += !(ref == first_outputs[0]);
  }

  out.add("setup_s", median(setup_s), "s");
  out.add("p50_ms", median(run_ms), "ms");
  out.add("modeled_fps", eo.config.clocks.clk_h_hz / double(cycles), "frame/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.note("infer_p50_ms", median(run_ms), "ms");
  out.note("infer_samples", double(run_ms.size()), "count");
  out.note("inferences_per_s", double(run_ms.size()) / timed_s, "1/s");
  out.note("googlenet_sim_cycles", double(cycles), "cycle");

  if (tracer) {
    const ArenaStats a = model->ctx->arena_stats();
    out.layer("runtime.run_ms", median(run_ms), "ms");
    out.layer("runtime.warmup_s",
              median(tracer->durations_ms("runtime.warmup")) / 1e3, "s");
    out.layer("runtime.arena_reuses", double(a.reuses), "count");
    out.layer("runtime.arena_fallback_allocs", double(a.fallback_allocs),
              "count");
    out.layer("runtime.arena_high_water_mb", double(a.high_water_bytes) / 1e6,
              "MB");
  }
  return out;
}

void probe_sim_runtime(const Options& opt, Tracer& tracer, Outcome& out) {
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  const runtime::ExecOptions eo = sim_exec_options(0);
  const nn::Network net = nn::googlenet();
  Rng rng(mix_seed(opt.seed, 3));

  struct Row {
    std::string name, cls;
    const char* bound = "";
    int groups = 0;
    double ms = 0.0;
    std::int64_t valid = 0, padded = 0, cycles = 0, analytic = 0;
  };
  std::vector<Row> rows;
  std::vector<nn::Layer> layers = net.overlay_layers();
  if (opt.short_mode) layers.resize(std::min<std::size_t>(layers.size(), 3));
  for (const nn::Layer& layer : layers) {
    const compiler::LayerProgram master = session.compile(
        layer, eo.config, compiler::Objective::Performance,
        eo.search_budget_per_layer);
    Row row{layer.name, layer_class(layer), bound_channel(master.perf),
            master.weight_groups};
    const nn::Tensor16 in =
        layer.kind == nn::LayerKind::MatMul
            ? random_tensor({static_cast<int>(layer.mm_m),
                             static_cast<int>(layer.mm_p)}, rng)
            : random_tensor({layer.in_c, layer.in_h, layer.in_w}, rng);
    for (const nn::Layer& g : group_layers(layer, master.weight_groups)) {
      const compiler::LayerProgram prog = session.compile(
          g, eo.config, compiler::Objective::Performance,
          eo.search_budget_per_layer);
      const nn::Tensor16 w = random_tensor(nn::Dims(runtime::weight_dims(g)), rng);
      sim::SimOptions so;
      so.collect_trace = false;
      std::unique_ptr<sim::CachedLayerSim> cs;
      {
        Scope span(&tracer, "sim.construct", layer.name);
        cs = std::make_unique<sim::CachedLayerSim>(prog, eo.config, so);
      }
      nn::AccTensor acc;
      {
        Scope span(&tracer, "sim.run", row.cls);
        const auto t0 = Clock::now();
        cs->run(w, in, acc, &session.pool());
        row.ms += seconds_since(t0) * 1e3;
      }
      row.valid += cs->stats().valid_maccs;
      row.padded += cs->stats().padded_maccs;
      row.cycles += cs->stats().cycles;
      row.analytic += prog.total_cycles();
    }
    rows.push_back(row);
  }

  // Per-class roll-up and the per-layer table.
  std::map<std::string, Row> by_class;
  for (const char* c : {"stem", "conv1x1", "conv3x3", "conv5x5", "fc"})
    by_class[c] = Row{};
  std::int64_t total_cycles = 0;
  double ratio_max = 0.0, sim_ms = 0.0;
  std::string table = strformat("%-28s %-8s %6s %10s %9s %9s %12s %12s %7s %s\n",
                                "layer", "class", "groups", "wall_ms",
                                "pad_G/s", "val_G/s", "sim_cycles",
                                "c_exe", "ratio", "bound");
  for (const Row& r : rows) {
    Row& c = by_class[r.cls];
    c.ms += r.ms;
    c.valid += r.valid;
    c.padded += r.padded;
    total_cycles += r.cycles;
    sim_ms += r.ms;
    const double ratio = double(r.cycles) / double(std::max<std::int64_t>(1, r.analytic));
    ratio_max = std::max(ratio_max, ratio);
    table += strformat("%-28s %-8s %6d %10.3f %9.3f %9.3f %12lld %12lld %7.4f %s\n",
                       r.name.c_str(), r.cls.c_str(), r.groups, r.ms,
                       double(r.padded) / r.ms / 1e6, double(r.valid) / r.ms / 1e6,
                       static_cast<long long>(r.cycles),
                       static_cast<long long>(r.analytic), ratio, r.bound);
  }
  std::printf("GoogLeNet per-layer CycleSim table (d1=4 d2=2 d3=3):\n%s",
              table.c_str());
  std::ofstream(opt.out_dir + "/googlenet_layers.txt") << table;

  for (const auto& [cls, c] : by_class) {
    if (cls == "other") continue;
    const double s = std::max(c.ms, 1e-9) / 1e3;
    out.layer("sim.run_ms." + cls, c.ms, "ms");
    out.layer("sim.valid_gmacc_s." + cls, double(c.valid) / s / 1e9, "GMAC/s");
    out.layer("sim.padded_gmacc_s." + cls, double(c.padded) / s / 1e9, "GMAC/s");
  }
  out.layer("sim.cycles", double(total_cycles), "cycle");
  out.layer("sim.cycle_ratio_max", ratio_max, "ratio");
  out.layer("sim.warm_ms", tracer.total_ms("sim.construct"), "ms");

  // The probe's cycles must match what the executor simulated.
  const double infer_cycles = out.get("googlenet_sim_cycles");
  if (!opt.short_mode && infer_cycles == infer_cycles) {
    ++out.attempted;
    out.failed += double(total_cycles) != infer_cycles;
  }

  // Host kernels on layer-shaped tensors.
  double pool_ms = 0.0, requant_ms = 0.0;
  for (const nn::Layer& l : net.layers()) {
    if (l.kind == nn::LayerKind::Pool) {
      const nn::Tensor16 in = random_tensor({l.in_c, l.in_h, l.in_w}, rng);
      Scope span(&tracer, "runtime.pool", l.name);
      const auto t0 = Clock::now();
      const nn::Tensor16 o = l.pool_op == nn::PoolOp::Max
                                 ? nn::maxpool_reference(l, in)
                                 : nn::avgpool_reference(l, in);
      pool_ms += seconds_since(t0) * 1e3;
    } else if (l.on_overlay()) {
      nn::AccTensor acc(l.kind == nn::LayerKind::MatMul
                            ? nn::Dims{static_cast<int>(l.mm_n),
                                       static_cast<int>(l.mm_p)}
                            : nn::Dims{l.out_c, l.out_h(), l.out_w()});
      for (std::int64_t i = 0; i < acc.size(); ++i)
        acc[i] = rng.uniform(-(1 << 20), 1 << 20);
      Scope span(&tracer, "runtime.requant", l.name);
      const auto t0 = Clock::now();
      const nn::Tensor16 o = nn::requantize_output(
          l, acc, runtime::calibrate_shift(acc, eo.target_magnitude_bits));
      requant_ms += seconds_since(t0) * 1e3;
    }
  }
  out.layer("runtime.pool_ms", pool_ms, "ms");
  out.layer("runtime.requant_ms", requant_ms, "ms");
  out.layer("runtime.host_ms",
            median(tracer.durations_ms("runtime.run")) - sim_ms, "ms");
}

}  // namespace perfbench
