// Shared pieces of the end-to-end benchmark binary: options, the result
// record every workload fills, timing and order statistics, seeded inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.h"
#include "nn/tensor.h"
#include "runtime/executor.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of one run
  bool trace = false;
  /// Smoke mode for the benchmark's own tests: the smallest amount of work
  /// that still produces every metric.
  bool short_mode = false;
  /// Test hook: flips one output element of the named workload before the
  /// correctness check, which must then count a failure.
  bool corrupt = false;
  std::string out_dir = ".";  ///< where the traced run writes its files
  int threads = 4;            ///< nproc, capped; every pool uses at most this
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload body reports: `metrics` are the end-to-end figures of
/// the result line, `layers` the per-layer figures of a traced run, and
/// `report` per-workload named figures (compile_s, serve_p99_ms, ...)
/// printed for humans.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> layers;
  std::vector<Metric> report;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< rejected + failed + wrong outputs

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
  /// Value of a metric or report figure by name (NaN when absent).
  double get(const std::string& name) const;
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Percentile `p` in [0, 100], linear interpolation between order
/// statistics (0 when empty).
double percentile(std::vector<double> v, double p);

/// Peak resident set size of this process in MB (ru_maxrss).
double peak_rss_mb();

/// Well-mixed seed of stream `salt` of the run seed `seed`: neighbouring
/// seeds and salts give unrelated Rng sequences (splitmix64 states that
/// differ by multiples of its increment would be shifted copies).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Seeded input tensor for the first layer of `net`.
ftdl::nn::Tensor16 make_input(const ftdl::nn::Network& net, std::uint64_t seed);

/// The scaled-down CycleSim overlay the serving CLI uses (d1=4, d2=2,
/// d3=3): the functional simulator executes every MACC, so the Table II
/// array would make a zoo network take minutes per inference.
ftdl::runtime::ExecOptions sim_exec_options(int sim_jobs);

/// Independent oracle: runs `net` with the scalar nn::*_reference kernels,
/// the same max-abs requantization and host glue as the executor, on
/// `threads` threads (conv layers split by output channel).
ftdl::nn::Tensor16 reference_forward(const ftdl::nn::Network& net,
                                     const ftdl::runtime::WeightStore& weights,
                                     const ftdl::nn::Tensor16& input,
                                     int target_bits, int threads);

// Workload bodies. `tracer` is null (or off) in untraced runs.
Outcome run_table2_compile(const Options& opt, Tracer* tracer);
Outcome run_infer_googlenet(const Options& opt, Tracer* tracer);
Outcome run_serve_seqcnn(const Options& opt, Tracer* tracer);

// Module probes of the traced run; each appends per-layer metrics.
void probe_compiler(const Options& opt, Tracer& tracer, Outcome& out);
void probe_sim_runtime(const Options& opt, Tracer& tracer, Outcome& out);

}  // namespace perfbench
