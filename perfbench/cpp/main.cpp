// ftdl_perfbench — the repository's end-to-end benchmark.
//
//   ftdl_perfbench --workload table2-compile|infer-googlenet|serve-seqcnn
//                  --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--short] [--corrupt]
//
// --trace 0 runs one workload and prints its end-to-end metrics. --trace 1
// is the traced run: the workload untraced and traced at half length (the
// difference is the tracing overhead), every workload body traced, and the
// module probes; it prints the per-layer metrics and writes spans.jsonl,
// googlenet_layers.txt and summary.json to --out-dir. The last line of
// stdout is always the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/simd.h"
#include "common/str_util.h"
#include "trace.h"

namespace perfbench {
namespace {

using ftdl::strformat;
using Body = Outcome (*)(const Options&, Tracer*);

struct Workload {
  const char* name;
  Body body;
};

constexpr Workload kWorkloads[] = {
    {"table2-compile", run_table2_compile},
    {"infer-googlenet", run_infer_googlenet},
    {"serve-seqcnn", run_serve_seqcnn},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ftdl_perfbench: %s\nusage: ftdl_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--short] "
               "[--corrupt]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = static_cast<int>(std::clamp(hw, 1u, 4u));
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() != "0";
    else if (a == "--out-dir") opt.out_dir = value();
    else if (a == "--short") opt.short_mode = true;
    else if (a == "--corrupt") opt.corrupt = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

std::string json_str(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + '"';
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  return strformat("%.10g", v);
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint(const Options& opt) {
  const char* jobs = std::getenv("FTDL_JOBS");
  return strformat(
      "{\"nproc\": %u, \"threads\": %d, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"simd_isa\": %s, \"simd_lanes\": %d, "
      "\"FTDL_JOBS\": %s}",
      std::thread::hardware_concurrency(), opt.threads,
      json_str(cpu_model()).c_str(), json_str(PERFBENCH_CXX_COMPILER).c_str(),
      json_str(PERFBENCH_BUILD_TYPE).c_str(),
      json_str(ftdl::simd::isa_name()).c_str(), ftdl::simd::lanes(),
      jobs ? json_str(jobs).c_str() : "null");
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (const Metric& m : ms) {
    if (s.size() > 1) s += ", ";
    s += json_str(m.name) + ": {\"value\": " + json_num(m.value) +
         ", \"unit\": " + json_str(m.unit) + "}";
  }
  return s + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void merge(Outcome& into, Outcome&& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (Metric& m : from.layers) into.layers.push_back(std::move(m));
  for (Metric& m : from.report) into.report.push_back(std::move(m));
}

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) wl = &w;
  if (!wl) usage(("unknown workload '" + opt.workload + "'").c_str());

  const std::string fp = fingerprint(opt);
  std::printf("fingerprint: %s\n", fp.c_str());
  Outcome result;
  std::vector<Metric> printed;
  if (!opt.trace) {
    result = wl->body(opt, nullptr);
    printed = result.metrics;
    print_table(("end-to-end: " + opt.workload).c_str(), result.metrics);
  } else {
    Tracer tracer;
    Options half = opt;
    half.seconds = opt.seconds / 2.0;
    Outcome untraced = wl->body(half, nullptr);
    std::vector<Metric> traced_e2e;
    // The chosen workload's traced body runs first, straight after its
    // untraced one, so the overhead compares like with like (peak RSS is a
    // process-wide maximum).
    std::vector<const Workload*> order{wl};
    for (const Workload& w : kWorkloads)
      if (&w != wl) order.push_back(&w);
    for (const Workload* wp : order) {
      const Workload& w = *wp;
      Outcome o;
      {
        Scope span(&tracer, "workload", w.name);
        o = w.body(half, &tracer);
      }
      if (&w == wl) traced_e2e = o.metrics;
      merge(result, std::move(o));
      if (w.body == run_table2_compile) probe_compiler(half, tracer, result);
      if (w.body == run_infer_googlenet) probe_sim_runtime(half, tracer, result);
    }
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    printed = result.layers;
    print_table("per-layer (traced run)", result.layers);

    std::string overhead = "{";
    std::printf("tracing overhead on %s (untraced -> traced):\n",
                opt.workload.c_str());
    for (const Metric& u : untraced.metrics) {
      for (const Metric& t : traced_e2e) {
        if (t.name != u.name) continue;
        const double pct = u.value != 0.0 ? (t.value / u.value - 1.0) * 100.0 : 0.0;
        std::printf("  %-20s %14.6g -> %14.6g %s (%+.2f%%)\n", u.name.c_str(),
                    u.value, t.value, u.unit.c_str(), pct);
        if (overhead.size() > 1) overhead += ", ";
        overhead += json_str(u.name) + ": {\"untraced\": " + json_num(u.value) +
                    ", \"traced\": " + json_num(t.value) +
                    ", \"diff\": " + json_num(t.value - u.value) +
                    ", \"unit\": " + json_str(u.unit) + "}";
      }
    }
    overhead += "}";
    tracer.write_jsonl(opt.out_dir + "/spans.jsonl");
    std::ofstream(opt.out_dir + "/summary.json")
        << "{\"workload\": " << json_str(opt.workload)
        << ", \"seed\": " << opt.seed << ", \"fingerprint\": " << fp
        << ", \"per_layer\": " << metrics_json(result.layers)
        << ", \"tracing_overhead\": " << overhead << "}\n";
    std::printf("wrote %s/{spans.jsonl,googlenet_layers.txt,summary.json}\n",
                opt.out_dir.c_str());
  }
  print_table("report", result.report);
  const double error_rate =
      double(result.failed) / double(std::max<std::int64_t>(1, result.attempted));
  std::printf("  %-34s %16.6g %s\n", "error_rate", error_rate, "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(1, result.attempted)),
              static_cast<long long>(result.failed),
              metrics_json(printed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftdl_perfbench: %s\n", e.what());
    return 1;
  }
}
