// Functional end-to-end network execution.
//
// Runs a whole feed-forward network on int16 data: CONV/MM layers execute
// as compiled instruction streams on the cycle-level overlay simulator (a
// layer split into weight groups is timed once per distinct part program
// and computed in one pass); pooling / concat / residual EWOP run as
// host-side kernels.
// Between layers, wide accumulators are requantized back to int16 with a
// per-layer shift chosen by a simple max-abs calibration — the host EWOP
// stage of Sec. V-A. The engine reports that max as it writes the
// accumulators, and the requantisation, pooling and residual add run as
// vector kernels on the same pool (runtime/host_kernels.h).
//
// Recurrent networks (seqLSTM) are not executable feed-forward and are
// rejected with ConfigError.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/overlay_config.h"
#include "common/arena.h"
#include "nn/network.h"
#include "nn/tensor.h"
#include "runtime/weight_store.h"

namespace ftdl::runtime {

/// Not a setting: every context runs the cycle-level simulator. The enum and
/// ExecOptions::path exist only for the one line in perfbench/cpp/common.cpp
/// that assigns `eo.path = OverlayPath::CycleSim`. Nothing reads them; the
/// next change to perfbench/ (ROADMAP's per-layer-record item) deletes both.
enum class OverlayPath { CycleSim };

struct ExecOptions {
  OverlayPath path = OverlayPath::CycleSim;  ///< unread; see OverlayPath
  /// Overlay the layers are compiled for and simulated on.
  arch::OverlayConfig config;
  std::int64_t search_budget_per_layer = 8'000;
  /// Headroom bits kept when calibrating the requantization shift: outputs
  /// are scaled into roughly +-2^(7) so the next layer's accumulators
  /// cannot overflow 48 bits.
  int target_magnitude_bits = 7;
  /// Worker parallelism of each simulator functional burst, the pool handed
  /// to sim::CachedLayerSim::run (0 = the shared CompilerSession pool,
  /// 1 = serial, N > 1 = a dedicated pool). Outputs are bit-identical at
  /// every value.
  int sim_jobs = 0;
  /// Record a LayerRun per layer into ExecResult::runs. The serving runtime
  /// turns this off: the per-layer name strings would be the last heap
  /// allocations on its steady-state path. total_sim_cycles and the output
  /// are unaffected.
  bool collect_runs = true;
};

struct LayerRun {
  std::string name;
  nn::LayerKind kind{};
  int requant_shift = 0;      ///< 0 for host layers
  std::int64_t sim_cycles = 0;  ///< 0 for host layers
  int weight_groups = 1;        ///< parts the overlay ran (tail included)
};

struct ExecResult {
  nn::Tensor16 output;          ///< final layer's tensor
  std::vector<LayerRun> runs;   ///< per-layer record, execution order
  std::int64_t total_sim_cycles = 0;
};

/// Requantization shift calibration (the host EWOP stage between layers):
/// the smallest right shift s >= 0 such that the maximum absolute
/// accumulator value, shifted by s, is <= 2^target_bits. Overflow-safe over
/// the full acc_t range, including the most-negative value (whose magnitude
/// 2^63 is not representable in acc_t). Exact boundary contract, pinned by
/// tests/test_runtime.cpp:
///   maxabs <= 2^target_bits      -> 0
///   maxabs == 2^target_bits + 1  -> 1
///   maxabs == 2^(target_bits+1)  -> 1
int calibrate_shift(const nn::AccTensor& acc, int target_bits);

/// calibrate_shift's shift for a tensor whose max |acc| is `maxabs` (a
/// magnitude: 2^63 for INT64_MIN) — what the executor calls with the
/// maximum CachedLayerSim::run reports, so the tensor is not scanned again.
int shift_for_max(std::uint64_t maxabs, int target_bits);

/// Reusable execution context for repeated inference over one network — the
/// steady-state engine behind run_network and serve::Server.
///
/// Construction is the warm-up: the graph is validated, the sink and
/// per-layer dataflow inputs are resolved, weights are looked up, and every
/// overlay layer is compiled into one program that carries all its
/// weight-group parts. Each program becomes one sim::CachedLayerSim: its
/// cycles are the sum of the parts', and each request runs the whole layer
/// as one engine call over the layer's own weight tensor — a weight group is
/// a contiguous channel range of it, so no per-group weights or outputs
/// exist. run() then re-executes the network with all tensor storage (the
/// simulator's padded input copies included) drawn from an owned
/// TensorArena, so a warm context performs zero heap allocations per request
/// with collect_runs off and observability disabled (pinned by the
/// allocation-counter test in tests/test_serve.cpp).
///
/// `net` and `weights` must outlive the context and its copies, unmutated.
/// A context is not thread-safe; give each thread its own copy. Copies share
/// the immutable compiled model, so a network warms up once.
class ExecContext {
 public:
  /// Warm-up. Throws the same ftdl::ConfigError / ftdl::Error diagnostics
  /// run_network would (empty network, ambiguous sinks, recurrent layers,
  /// missing weights, compile failures).
  ExecContext(const nn::Network& net, const WeightStore& weights,
              const ExecOptions& options);
  /// A context over `warm`'s compiled model, with its own empty arena and
  /// tensor map (and, at sim_jobs > 1, a pool its first run builds): no
  /// warm-up runs.
  ExecContext(const ExecContext& warm);
  ~ExecContext();
  ExecContext(ExecContext&&) noexcept;
  ExecContext& operator=(ExecContext&&) noexcept;

  /// Executes the network. Bit-identical to run_network with the same
  /// options on every call.
  ExecResult run(const nn::Tensor16& input);

  /// Counters of the owned tensor arena (serve publishes these as
  /// runtime/arena_* observability counters).
  ArenaStats arena_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Executes `net` on `input` (dims {C,H,W} for vision nets, {M,P} when the
/// first layer is MM). The network output is the graph's unique sink layer
/// (resolved from the dataflow edges, not declaration order); graphs with
/// several sinks (multi-output heads) are rejected with ftdl::ConfigError
/// naming the sinks. Throws ftdl::ConfigError on graph/shape problems.
/// One-shot convenience over ExecContext: constructs a context and runs it
/// once.
ExecResult run_network(const nn::Network& net, const nn::Tensor16& input,
                       const WeightStore& weights, const ExecOptions& options);

}  // namespace ftdl::runtime
