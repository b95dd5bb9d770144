// ftdl-prof — cross-layer observability profiler (docs/observability.md).
//
// Runs a model-zoo network (or an .ftdl spec) through the full stack with
// ftdl::obs collection enabled — compile + schedule (wall-clock compiler
// spans), host-pipeline evaluation, multi-FPGA pipeline planning, and a
// cycle-level simulation of the whole network on a scaled-down overlay
// (virtual-clock timelines of LoopT bursts, ActBUF refills, PSumBUF drains
// and stalls) — then writes
//   trace.json    Chrome trace-event JSON (open in https://ui.perfetto.dev)
//   metrics.json  flat counters/gauges snapshot (schema ftdl-metrics-v1)
//
//   ftdl-prof [MODEL] [options]
//     MODEL               Table I model name (default Sentimental-seqCNN)
//                         or a .ftdl network-spec path
//     --list              list the model zoo and exit
//     --trace FILE        trace output path    (default trace.json)
//     --metrics FILE      metrics output path  (default metrics.json)
//     --stream FILE       also record an ftdl-stream-v1 binary event log
//                         (docs/obs-stream-format.md; query with ftdl-obsq)
//     --budget N          mapping-search budget per layer (default 8000)
//     --jobs N            compiler parallelism (default: FTDL_JOBS env, else
//                         the hardware thread count; results bit-identical)
//     --no-sim            skip the cycle-level execution phase
//     --sim-macs-limit N  skip simulation above N network MACs (default 5e8;
//                         the functional simulator executes every MACC)
//     --cache-dir DIR     persistent program cache (FTDL_CACHE_DIR env);
//                         repeat profiles warm-start compiles from disk
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analyze/analyze.h"
#include "arch/overlay_config.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "compiler/program_store.h"
#include "compiler/session.h"
#include "frontend/spec_parser.h"
#include "host/host_pipeline.h"
#include "multifpga/partition.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "obs/stream_writer.h"
#include "runtime/executor.h"

namespace {

using namespace ftdl;

struct Args {
  std::string model = "Sentimental-seqCNN";
  std::string trace_path = "trace.json";
  std::string metrics_path = "metrics.json";
  std::string stream_path;  ///< empty = no binary event log
  std::int64_t budget = 8'000;
  std::int64_t sim_macs_limit = 500'000'000;
  std::string cache_dir;
  int jobs = 0;  ///< 0 = session default (FTDL_JOBS env / hardware threads)
  bool no_sim = false;
  bool list = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "ftdl-prof: %s\n", msg);
  std::fprintf(stderr,
               "usage: ftdl-prof [MODEL|SPEC.ftdl] [--trace FILE] "
               "[--metrics FILE] [--stream FILE]\n                 "
               "[--budget N] [--jobs N] [--cache-dir DIR] "
               "[--no-sim] [--sim-macs-limit N] [--list]\n");
  std::exit(2);
}

/// Strict flag parsing (common/str_util): `--budget 8k` is a usage error,
/// never a silent 0.
std::int64_t parse_int_flag(const char* opt, const char* s, std::int64_t min_v,
                            std::int64_t max_v) {
  std::int64_t v = 0;
  if (!parse_int_strict(s, min_v, max_v, &v)) {
    usage((std::string(opt) + " needs an integer in [" +
           std::to_string(min_v) + ", " + std::to_string(max_v) + "], got '" +
           s + "'")
              .c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--trace") == 0) args.trace_path = next(i);
    else if (std::strcmp(a, "--metrics") == 0) args.metrics_path = next(i);
    else if (std::strcmp(a, "--stream") == 0) args.stream_path = next(i);
    else if (std::strcmp(a, "--budget") == 0)
      args.budget = parse_int_flag(a, next(i), 1, 1'000'000'000);
    else if (std::strcmp(a, "--jobs") == 0)
      args.jobs = static_cast<int>(parse_int_flag(a, next(i), 1, 1024));
    else if (std::strcmp(a, "--cache-dir") == 0) args.cache_dir = next(i);
    else if (std::strcmp(a, "--sim-macs-limit") == 0)
      args.sim_macs_limit =
          parse_int_flag(a, next(i), 0, 9'223'372'036'854'775'807LL);
    else if (std::strcmp(a, "--no-sim") == 0) args.no_sim = true;
    else if (std::strcmp(a, "--list") == 0) args.list = true;
    else if (a[0] == '-') usage(("unknown option " + std::string(a)).c_str());
    else args.model = a;
  }
  return args;
}

nn::Network load_network(const std::string& model) {
  if (model.size() > 5 && model.substr(model.size() - 5) == ".ftdl") {
    std::ifstream in(model);
    if (!in) throw Error("cannot open spec " + model);
    std::ostringstream text;
    text << in.rdbuf();
    return frontend::parse_network_spec(text.str());
  }
  return nn::model_by_name(model);
}

/// Overlay the cycle-level phase runs on: small enough that functional
/// simulation of a whole network finishes in seconds (the schedule phase
/// still uses the full paper overlay).
arch::OverlayConfig sim_config() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  c.actbuf_words = 128;
  c.wbuf_words = 1024;
  c.psumbuf_words = 2048;
  c.clocks = fpga::ClockPair::from_high(650e6);
  return c;
}

std::int64_t overlay_macs(const nn::Network& net) {
  std::int64_t macs = 0;
  for (const nn::Layer& l : net.layers()) {
    if (l.on_overlay()) macs += l.macs() * l.repeat;
  }
  return macs;
}

nn::Tensor16 network_input(const nn::Network& net, Rng& rng) {
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 input =
      first.kind == nn::LayerKind::MatMul
          ? nn::Tensor16({static_cast<int>(first.mm_m),
                          static_cast<int>(first.mm_p)})
          : nn::Tensor16({first.in_c, first.in_h, first.in_w});
  input.fill_random(rng);
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list) {
    for (const nn::Network& net : nn::mlperf_models()) {
      std::printf("%s\n", net.name().c_str());
    }
    return 0;
  }

  try {
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    // Attach the streaming backend (when requested) after the reset so the
    // log sees the run from its first event.
    obs::set_enabled(true, args.stream_path);

    compiler::CompilerSession& session = compiler::CompilerSession::global();
    if (args.jobs > 0) session.set_jobs(args.jobs);
    const std::string cache_dir = compiler::resolve_cache_dir(args.cache_dir);
    if (!cache_dir.empty()) {
      session.set_store(std::make_shared<compiler::ProgramStore>(cache_dir));
    }

    const nn::Network net = load_network(args.model);
    std::printf("ftdl-prof: %s (%lld overlay MACs)\n", net.name().c_str(),
                static_cast<long long>(overlay_macs(net)));

    // Phase 1 — compile + schedule on the full paper overlay.
    const compiler::NetworkSchedule sched = compiler::schedule_network(
        net, arch::paper_config(), compiler::Objective::Performance,
        args.budget);
    std::printf("  schedule: %.1f FPS, %.1f%% hardware efficiency "
                "(search budget %lld per layer)\n",
                sched.fps(), 100.0 * sched.hardware_efficiency,
                static_cast<long long>(args.budget));

    // Phase 2 — host EWOP pipeline + multi-FPGA plan.
    const host::PipelineReport pipe =
        host::evaluate_pipeline(net, sched, host::HostModel{});
    std::printf("  host pipeline: %.2f host/overlay ratio (%s-bound)\n",
                pipe.host_over_overlay,
                pipe.ewop_bounds_throughput ? "host" : "overlay");
    const multifpga::MultiFpgaPlan plan = multifpga::partition_pipeline(sched, 2);
    std::printf("  2-FPGA plan: %.1f FPS, balance %.2f, resident=%s\n",
                plan.fps, plan.balance, plan.weights_resident ? "yes" : "no");
    const analyze::AnalysisResult part_check =
        analyze::analyze_partition(sched, plan);
    if (!part_check.diagnostics.empty()) {
      std::fputs(part_check.to_string().c_str(), stdout);
    }
    std::printf("  partition check: %d error(s), %d warning(s)\n",
                part_check.errors(), part_check.warnings());
    if (!part_check.ok()) return 1;

    // Phase 3 — cycle-level execution on a scaled-down overlay.
    const std::int64_t macs = overlay_macs(net);
    if (args.no_sim) {
      obs::count("prof/sim_skipped");
    } else if (macs > args.sim_macs_limit) {
      std::printf("  cycle sim: SKIPPED (%lld MACs > limit %lld; "
                  "--sim-macs-limit raises it)\n",
                  static_cast<long long>(macs),
                  static_cast<long long>(args.sim_macs_limit));
      obs::count("prof/sim_skipped");
    } else {
      try {
        Rng rng(1);
        const runtime::WeightStore weights =
            runtime::WeightStore::random_for(net, 2);
        runtime::ExecOptions opt;
        opt.config = sim_config();
        opt.search_budget_per_layer = args.budget;
        const runtime::ExecResult r =
            runtime::run_network(net, network_input(net, rng), weights, opt);
        std::printf("  cycle sim: %lld cycles over %zu layer runs\n",
                    static_cast<long long>(r.total_sim_cycles),
                    r.runs.size());
      } catch (const ConfigError& e) {
        // Recurrent networks are not executable feed-forward; the schedule
        // and pipeline phases above still profile them.
        std::printf("  cycle sim: SKIPPED (%s)\n", e.what());
        obs::count("prof/sim_skipped");
      }
    }

    obs::gauge("prof/schedule_fps", sched.fps());
    obs::gauge("prof/schedule_efficiency", sched.hardware_efficiency);

    const compiler::SessionStats ss = session.stats();
    std::printf("  session: jobs=%d, %lld cache hits / %lld misses, "
                "%lld programs (%.1f KiB)\n",
                session.jobs(), static_cast<long long>(ss.hits),
                static_cast<long long>(ss.misses),
                static_cast<long long>(ss.entries),
                double(ss.program_bytes) / 1024.0);
    if (!cache_dir.empty()) {
      std::printf("  cache %s: disk_hits=%lld disk_misses=%lld "
                  "disk_evictions=%lld disk_bytes=%lld\n",
                  cache_dir.c_str(), static_cast<long long>(ss.disk_hits),
                  static_cast<long long>(ss.disk_misses),
                  static_cast<long long>(ss.disk_evictions),
                  static_cast<long long>(ss.disk_bytes));
    }

    reg.write_chrome_trace(args.trace_path);
    reg.write_metrics(args.metrics_path);
    std::printf("wrote %s (%zu events) and %s (%zu counters, %zu gauges)\n",
                args.trace_path.c_str(), reg.event_count(),
                args.metrics_path.c_str(), reg.metrics().counters.size(),
                reg.metrics().gauges.size());
    if (reg.stream_attached()) {
      const obs::stream::StreamStats ss = reg.detach_stream();
      std::printf("wrote %s (%llu records, %llu chunks, %llu bytes)\n",
                  args.stream_path.c_str(),
                  static_cast<unsigned long long>(ss.records),
                  static_cast<unsigned long long>(
                      ss.data_chunks + ss.string_chunks),
                  static_cast<unsigned long long>(ss.bytes_written));
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdl-prof: %s\n", e.what());
    return 1;
  }
}
