// ftdlc — the FTDL command-line compiler.
//
// Compiles a network spec (see src/frontend/spec_parser.h for the grammar)
// onto a parameterized overlay, printing the per-layer schedule and the
// network roll-up; optionally emits the controllers' encoded instruction
// streams.
//
//   ftdlc NETWORK.ftdl [options]
//     --device NAME        target device          (default xcvu125)
//     --d1 N --d2 N --d3 N overlay shape          (default 12 5 20)
//     --clock MHZ          CLKh in MHz            (default 650)
//     --objective obj1|obj2  scheduling objective (default obj1)
//     --budget N           search budget/layer    (default 60000)
//     --jobs N             compiler parallelism   (default: FTDL_JOBS env,
//                          else the hardware thread count; output is
//                          bit-identical for any value)
//     --emit FILE          write instruction words (hex) to FILE
//     --bundle FILE        write the whole-network ftdl-network bundle
//     --verify             statically verify every emitted stream
//     --timing             print the post-P&R style timing report
//     --rtl DIR            generate the overlay's Verilog RTL into DIR
//     --cache-dir DIR      persistent program cache (FTDL_CACHE_DIR env);
//                          a second run warm-starts from disk
//     --quiet              suppress the per-layer table
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "analyze/analyze.h"
#include "analyze/network_io.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "common/table.h"
#include "compiler/program_store.h"
#include "compiler/program_verify.h"
#include "compiler/session.h"
#include "frontend/spec_parser.h"
#include "ftdl/ftdl.h"
#include "rtlgen/verilog_gen.h"
#include "timing/timing_report.h"
#include "verify/verifier.h"

namespace {

using namespace ftdl;

struct Args {
  std::string spec_path;
  FrameworkOptions fw;
  std::string emit_path;
  std::string bundle_path;
  std::string cache_dir;
  bool quiet = false;
  bool timing = false;
  bool verify = false;
  std::string rtl_dir;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "ftdlc: %s\n", msg);
  std::fprintf(stderr,
               "usage: ftdlc NETWORK.ftdl [--device NAME] [--d1 N --d2 N "
               "--d3 N]\n             [--clock MHZ] [--objective obj1|obj2] "
               "[--budget N] [--jobs N]\n             [--emit FILE] "
               "[--bundle FILE] [--cache-dir DIR] [--verify] [--quiet]\n");
  std::exit(2);
}

/// Strict flag parsing (common/str_util): garbage like `--jobs x8` is a
/// usage error, never a silent 0.
int parse_int_flag(const char* opt, const char* s, std::int64_t min_v,
                   std::int64_t max_v) {
  std::int64_t v = 0;
  if (!parse_int_strict(s, min_v, max_v, &v)) {
    usage((std::string(opt) + " needs an integer in [" +
           std::to_string(min_v) + ", " + std::to_string(max_v) + "], got '" +
           s + "'")
              .c_str());
  }
  return static_cast<int>(v);
}

double parse_pos_double_flag(const char* opt, const char* s) {
  double v = 0.0;
  if (!parse_double_strict(s, &v) || !(v > 0.0)) {
    usage((std::string(opt) + " needs a positive number, got '" + s + "'")
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
    if (std::strcmp(a, "--device") == 0) args.fw.device_name = next(i);
    else if (std::strcmp(a, "--d1") == 0)
      args.fw.config.d1 = parse_int_flag(a, next(i), 1, 1'000'000);
    else if (std::strcmp(a, "--d2") == 0)
      args.fw.config.d2 = parse_int_flag(a, next(i), 1, 1'000'000);
    else if (std::strcmp(a, "--d3") == 0)
      args.fw.config.d3 = parse_int_flag(a, next(i), 1, 1'000'000);
    else if (std::strcmp(a, "--clock") == 0) {
      args.fw.config.clocks =
          fpga::ClockPair::from_high(parse_pos_double_flag(a, next(i)) * 1e6);
    } else if (std::strcmp(a, "--objective") == 0) {
      const std::string v = next(i);
      if (v == "obj1") args.fw.objective = compiler::Objective::Performance;
      else if (v == "obj2") args.fw.objective = compiler::Objective::Balance;
      else usage("objective must be obj1 or obj2");
    } else if (std::strcmp(a, "--budget") == 0) {
      args.fw.search_budget_per_layer =
          parse_int_flag(a, next(i), 1, 1'000'000'000);
    } else if (std::strcmp(a, "--jobs") == 0) {
      args.fw.jobs = parse_int_flag(a, next(i), 1, 1024);
    } else if (std::strcmp(a, "--cache-dir") == 0) {
      args.cache_dir = next(i);
    } else if (std::strcmp(a, "--emit") == 0) {
      args.emit_path = next(i);
    } else if (std::strcmp(a, "--bundle") == 0) {
      args.bundle_path = next(i);
    } else if (std::strcmp(a, "--quiet") == 0) {
      args.quiet = true;
    } else if (std::strcmp(a, "--verify") == 0) {
      args.verify = true;
    } else if (std::strcmp(a, "--timing") == 0) {
      args.timing = true;
    } else if (std::strcmp(a, "--rtl") == 0) {
      args.rtl_dir = next(i);
    } else if (a[0] == '-') {
      usage((std::string("unknown option ") + a).c_str());
    } else if (args.spec_path.empty()) {
      args.spec_path = a;
    } else {
      usage("multiple spec files given");
    }
  }
  if (args.spec_path.empty()) usage("no spec file given");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const std::string cache_dir = compiler::resolve_cache_dir(args.cache_dir);
    if (!cache_dir.empty()) {
      compiler::CompilerSession::global().set_store(
          std::make_shared<compiler::ProgramStore>(cache_dir));
    }

    const nn::Network net = frontend::parse_network_file(args.spec_path);
    Framework fw{args.fw};

    std::printf("ftdlc: %s -> %s on %s (fmax %s)\n", args.spec_path.c_str(),
                fw.config().to_string().c_str(), fw.device().name.c_str(),
                format_hz(fw.timing().clk_h_fmax_hz).c_str());

    if (args.timing) {
      timing::OverlayGeometry g;
      g.d1 = fw.config().d1;
      g.d2 = fw.config().d2;
      g.d3 = fw.config().d3;
      std::fputs(timing::render_timing_report(fw.device(), g,
                                              fw.config().clocks)
                     .c_str(),
                 stdout);
      std::printf("\n");
    }

    const NetworkReport report = fw.evaluate(net);

    if (!args.quiet) {
      AsciiTable table({"Layer", "Kind", "MACs", "Groups", "Cycles", "Eff.",
                        "E_WBUF"});
      for (const compiler::LayerProgram& lp : report.schedule.layers) {
        table.row({lp.layer.name, to_string(lp.layer.kind),
                   format_count(double(lp.layer.macs())),
                   std::to_string(lp.weight_groups),
                   std::to_string(lp.total_cycles()),
                   format_percent(lp.perf.hardware_efficiency),
                   strformat("%.2f", lp.perf.e_wbuf)});
      }
      table.print();
    }

    std::printf(
        "network %s: %zu overlay layers, %s MACs/frame\n"
        "  %.1f inferences/s | efficiency %s | %.1f W | %.1f GOPS/W\n",
        net.name().c_str(), report.schedule.layers.size(),
        format_count(double(report.schedule.overlay_macs)).c_str(),
        report.fps(),
        format_percent(report.schedule.hardware_efficiency).c_str(),
        report.power.total_w(), report.gops_per_w());

    if (!cache_dir.empty()) {
      const compiler::SessionStats cs =
          compiler::CompilerSession::global().stats();
      std::printf(
          "cache %s: disk_hits=%lld disk_misses=%lld disk_evictions=%lld "
          "disk_bytes=%lld\n",
          cache_dir.c_str(), static_cast<long long>(cs.disk_hits),
          static_cast<long long>(cs.disk_misses),
          static_cast<long long>(cs.disk_evictions),
          static_cast<long long>(cs.disk_bytes));
    }

    if (args.verify) {
      int verify_errors = 0, verify_warnings = 0;
      for (const compiler::LayerProgram& lp : report.schedule.layers) {
        const verify::VerifyResult vr =
            compiler::verify_program(lp, fw.config());
        verify_errors += vr.errors();
        verify_warnings += vr.warnings();
        if (!vr.diagnostics.empty()) {
          std::printf("verify %s:\n", lp.layer.name.c_str());
          std::fputs(verify::annotate(lp.row_stream, vr).c_str(), stdout);
        }
      }
      std::printf("verify: %zu streams, %d error(s), %d warning(s)\n",
                  report.schedule.layers.size(), verify_errors,
                  verify_warnings);
      if (verify_errors) return 1;
    }

    // Whole-network static analysis over the compiled schedule: memory plan
    // liveness/overlap, producer/consumer shape agreement, program coverage.
    const analyze::ScheduledNetwork scheduled =
        analyze::make_scheduled(net, report.schedule);
    const analyze::AnalysisResult analysis =
        analyze::analyze_network(scheduled);
    if (!analysis.diagnostics.empty()) {
      std::fputs(analysis.to_string().c_str(), stdout);
    }
    std::printf("analyze: %llu-word DRAM image, %d error(s), %d warning(s)\n",
                static_cast<unsigned long long>(scheduled.memory.image_words),
                analysis.errors(), analysis.warnings());
    if (!analysis.ok()) return 1;

    if (!args.bundle_path.empty()) {
      analyze::save_network(scheduled, args.bundle_path);
      std::printf("network bundle written to %s\n", args.bundle_path.c_str());
    }

    if (!args.rtl_dir.empty()) {
      const int n = rtlgen::write_rtl_bundle(
          rtlgen::generate_overlay_rtl(fw.config()), args.rtl_dir);
      std::printf("%d RTL files written to %s\n", n, args.rtl_dir.c_str());
    }

    if (!args.emit_path.empty()) {
      std::string dump;
      // One section per part program: the full-size parts, then any tail.
      const auto section = [&dump](const compiler::LayerProgram& lp,
                                   const std::string& label, int groups) {
        dump += strformat("# %s (x%d weight groups)\n", label.c_str(), groups);
        for (std::uint64_t word : lp.encoded_stream()) {
          dump += strformat("%016llx\n", static_cast<unsigned long long>(word));
        }
      };
      for (const compiler::LayerProgram& lp : report.schedule.layers) {
        section(lp, lp.layer.name, lp.full_size_parts());
        if (lp.tail) section(*lp.tail, lp.layer.name + " tail", 1);
      }
      write_file_atomic(args.emit_path, dump);
      std::printf("instruction streams written to %s\n",
                  args.emit_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdlc: error: %s\n", e.what());
    return 1;
  }
}
