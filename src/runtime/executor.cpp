#include "runtime/executor.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "compiler/session.h"
#include "obs/obs.h"
#include "runtime/host_kernels.h"
#include "sim/ftdl_sim.h"

namespace ftdl::runtime {

namespace {

using nn::AccTensor;
using nn::Layer;
using nn::LayerKind;
using nn::Tensor16;

}  // namespace

int calibrate_shift(const AccTensor& acc, int target_bits) {
  // Magnitudes in uint64: std::abs on the most-negative acc_t is UB, and
  // its magnitude (2^63) does not fit in acc_t anyway.
  std::uint64_t maxabs = 0;
  for (std::int64_t i = 0; i < acc.size(); ++i) {
    const acc_t v = acc[i];
    const std::uint64_t mag = v < 0 ? 0ULL - static_cast<std::uint64_t>(v)
                                    : static_cast<std::uint64_t>(v);
    maxabs = std::max(maxabs, mag);
  }
  return shift_for_max(maxabs, target_bits);
}

int shift_for_max(std::uint64_t maxabs, int target_bits) {
  const std::uint64_t target = std::uint64_t{1} << target_bits;
  if (maxabs <= target) return 0;
  // Smallest shift with (maxabs >> shift) <= 2^target_bits: take the top
  // set bit down to position target_bits, then round the sub-bit remainder
  // up (bit_width - 1 alone leaves values up to 2^(target_bits+1) - 1 —
  // the historical off-by-one this function is pinned against).
  int shift = std::bit_width(maxabs) - 1 - target_bits;
  if ((maxabs >> shift) > target) ++shift;
  return shift;
}

namespace {

/// Reshapes {C,H,W} to the {M,P} matrix a MM layer consumes.
Tensor16 flatten_for_mm(const Tensor16& t, const Layer& layer) {
  if (t.size() != layer.mm_m * layer.mm_p)
    throw ConfigError(layer.name + ": input element count mismatches MM shape");
  Tensor16 flat({static_cast<int>(layer.mm_m), static_cast<int>(layer.mm_p)});
  std::copy(t.data(), t.data() + t.size(), flat.data());
  return flat;
}

/// Host-kernel layers (pool/concat/ewop): their wall time is covered by the
/// per-layer runtime span; these counters attribute the EWOP op volume.
void note_host_kernel(const Layer& layer) {
  if (!obs::enabled()) return;
  obs::count("host/ewop_kernel_invocations");
  obs::count("host/ewop_ops", layer.ewop_ops());
}

/// One layer of a compiled model. Its output goes to the slot after its
/// index; slot 0 is the network input.
struct CompiledLayer {
  const Layer* layer = nullptr;
  std::vector<std::size_t> inputs;       ///< resolved dataflow input slots
  /// The slots whose last use is this layer, freed right after it runs:
  /// each once, and never the network input or the sink.
  std::vector<std::size_t> release;
  const Tensor16* weights = nullptr;     ///< overlay layers only
  int weight_groups = 1;
  /// Overlay layers only: one runner over all weight groups, and the
  /// layer's weights bound for it.
  std::optional<sim::CachedLayerSim> sim;
  std::optional<sim::BoundWeights> bound;
};

/// What the warm-up resolves once: the sink slot, each layer's input slots,
/// release list, weights and runner. Immutable after construction, so the
/// copies of a context share it without locking (CachedLayerSim::run is
/// const).
struct CompiledModel {
  const ExecOptions opt;
  std::size_t sink = 0;
  std::vector<CompiledLayer> layers;

  CompiledModel(const nn::Network& net, const WeightStore& wstore,
                const ExecOptions& o)
      : opt(o) {
    net.validate_graph();
    if (net.layers().empty())
      throw ConfigError(net.name() + ": cannot execute an empty network");
    // Resolve the true output before running anything: the last-declared
    // layer is always *a* sink, but branching graphs can leave several
    // layers unconsumed (multi-output heads) and silently returning one of
    // them would drop the rest.
    const std::vector<std::string> sinks = net.sink_names();
    if (sinks.size() != 1)
      throw ConfigError(net.name() +
                        ": ambiguous network output — feed-forward execution "
                        "needs exactly one sink layer, found " +
                        std::to_string(sinks.size()) + " (" +
                        join(sinks, ", ") + ")");

    // The graph is validated: names are unique and every input names an
    // earlier layer, so one pass resolves each name to its slot.
    const std::vector<std::size_t> last_use = net.last_uses();
    std::unordered_map<std::string, std::size_t> slot_of{{nn::kNetworkInput, 0}};
    layers.resize(net.layers().size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const Layer& layer = net.layers()[i];
      if (layer.repeat != 1)
        throw ConfigError(layer.name +
                          ": recurrent (repeat>1) layers are not executable "
                          "feed-forward");
      CompiledLayer& lc = layers[i];
      lc.layer = &layer;
      for (const std::string& in : net.resolved_inputs(i))
        lc.inputs.push_back(slot_of.at(in));
      if (layer.on_overlay()) lc.weights = &wstore.get(layer);
      slot_of[layer.name] = i + 1;
      if (layer.name == sinks.front()) sink = i + 1;
      if (last_use[i + 1] < layers.size())
        layers[last_use[i + 1]].release.push_back(i + 1);
    }
    // Compile only once every layer is known to be executable.
    for (CompiledLayer& lc : layers) {
      if (lc.weights != nullptr) warm_overlay(lc);
    }
  }

  /// Warm-up for one overlay layer: compile the layer through the shared
  /// session (repeated shapes reuse one search), build its runner and bind
  /// its weights, so a run reads the weights only inside the engine. The
  /// program carries every part the overlay runs.
  void warm_overlay(CompiledLayer& lc) {
    const compiler::LayerProgram prog =
        compiler::CompilerSession::global().compile(
            *lc.layer, opt.config, compiler::Objective::Performance,
            opt.search_budget_per_layer);
    lc.weight_groups = prog.weight_groups;
    lc.sim.emplace(prog, opt.config);
    lc.bound.emplace(lc.sim->bind(*lc.weights));
  }
};

}  // namespace

/// A context's scratch over its shared compiled model: run() touches only
/// the arena, the slots and the pool.
struct ExecContext::Impl {
  const std::shared_ptr<const CompiledModel> model;
  const ExecOptions& opt;
  TensorArena arena;
  /// sim_jobs > 1: a dedicated pool, built by the first run.
  std::unique_ptr<ThreadPool> own_pool;
  /// Slot i + 1 holds layer i's output from its run to its last consumer's
  /// release list; the sink's moves into the result. Slot 0 stays empty: a
  /// run reads the caller's tensor through `input`. Sized once, here.
  std::vector<Tensor16> slots;
  const Tensor16* input = nullptr;

  explicit Impl(std::shared_ptr<const CompiledModel> m)
      : model(std::move(m)), opt(model->opt), slots(model->layers.size() + 1) {}

  ThreadPool* pool() {
    if (opt.sim_jobs == 1) return nullptr;
    if (opt.sim_jobs == 0) return &compiler::CompilerSession::global().pool();
    if (!own_pool) own_pool = std::make_unique<ThreadPool>(opt.sim_jobs);
    return own_pool.get();
  }

  const Tensor16& slot(std::size_t s) const {
    if (s == 0) return *input;
    if (slots[s].size() == 0)
      throw InternalError("dataflow slot " + std::to_string(s) +
                          " read while empty");
    return slots[s];
  }

  ExecResult run(const Tensor16& in) {
    // Every tensor built below draws from the pool for the rest of the call
    // (and frees back into it, even from tensors that escape in the result).
    TensorArena::Scope scope(arena);
    input = &in;

    ExecResult result;
    for (std::size_t i = 0; i < model->layers.size(); ++i) {
      const CompiledLayer& lc = model->layers[i];
      const Layer& layer = *lc.layer;
      LayerRun run;
      run.kind = layer.kind;
      if (opt.collect_runs) run.name = layer.name;
      if (obs::enabled()) {
        obs::ScopedSpan span("runtime", "execute_layer",
                             {{"layer", layer.name},
                              {"kind", nn::to_string(layer.kind)}});
        slots[i + 1] = execute_layer(lc, run);
        if (run.sim_cycles > 0)
          span.add_arg("cycles", std::to_string(run.sim_cycles));
        obs::count("runtime/layers_executed");
        if (run.sim_cycles > 0) obs::count("runtime/sim_cycles", run.sim_cycles);
      } else {
        slots[i + 1] = execute_layer(lc, run);
      }
      for (const std::size_t s : lc.release) slots[s] = Tensor16();
      result.total_sim_cycles += run.sim_cycles;
      if (opt.collect_runs) result.runs.push_back(std::move(run));
    }
    result.output = std::move(slots[model->sink]);
    return result;
  }

  Tensor16 execute_layer(const CompiledLayer& lc, LayerRun& run) {
    const Layer& layer = *lc.layer;
    if (!layer.on_overlay()) note_host_kernel(layer);
    switch (layer.kind) {
      case LayerKind::Conv:
      case LayerKind::Depthwise:
      case LayerKind::MatMul:
        return execute_overlay(lc, slot(lc.inputs.at(0)), run);
      case LayerKind::Pool:
        return pool_layer(layer, slot(lc.inputs.at(0)), pool());
      case LayerKind::Concat:
        return concat(lc);
      case LayerKind::Ewop:
        return ewop(lc);
    }
    throw InternalError("unhandled layer kind");
  }

  /// One engine call over the layer's full weight tensor on its warm
  /// runner (which rejects a wrongly shaped input with ConfigError), then
  /// the host requantisation, calibrated on the max |acc| the engine
  /// reported.
  Tensor16 execute_overlay(const CompiledLayer& lc, const Tensor16& input,
                           LayerRun& run) {
    const Layer& layer = *lc.layer;
    const Tensor16* act = &input;
    Tensor16 flat;
    if (layer.kind == LayerKind::MatMul && input.dims().size() != 2) {
      flat = flatten_for_mm(input, layer);
      act = &flat;
    }

    AccTensor acc;
    const std::uint64_t max_abs = lc.sim->run(*lc.bound, *act, acc, pool());
    run.weight_groups = lc.weight_groups;
    run.sim_cycles = lc.sim->stats().cycles;
    run.requant_shift = shift_for_max(max_abs, opt.target_magnitude_bits);
    return requantize_layer(layer, acc, max_abs, run.requant_shift, pool());
  }

  Tensor16 concat(const CompiledLayer& lc) const {
    const Layer& layer = *lc.layer;
    int channels = 0;
    const Tensor16& first = slot(lc.inputs.front());
    if (first.dims().size() != 3)
      throw ConfigError(layer.name + ": concat expects CHW inputs");
    const int h = first.dims()[1], w = first.dims()[2];
    for (std::size_t k = 0; k < lc.inputs.size(); ++k) {
      const Tensor16& t = slot(lc.inputs[k]);
      // Only an explicit input k >= 1 can mismatch: the first sets h and w.
      if (t.dims().size() != 3 || t.dims()[1] != h || t.dims()[2] != w)
        throw ConfigError(layer.name + ": concat input shape mismatch at " +
                          layer.input_names[k]);
      channels += t.dims()[0];
    }
    // A CHW tensor's channels are one contiguous block: one copy per input.
    Tensor16 out({channels, h, w});
    std::int16_t* dst = out.data();
    for (const std::size_t in : lc.inputs) {
      const Tensor16& t = slot(in);
      dst = std::copy(t.data(), t.data() + t.size(), dst);
    }
    return out;
  }

  Tensor16 ewop(const CompiledLayer& lc) {
    const std::size_t a = lc.inputs.at(0);
    switch (lc.layer->ewop_op) {
      case nn::EwopOp::Generic: {
        // Op-count-only stage: identity over its (single) input, which it
        // takes over when no later layer reads it.
        const Tensor16& x = slot(a);
        if (std::ranges::find(lc.release, a) != lc.release.end())
          return std::move(slots[a]);
        return x;
      }
      case nn::EwopOp::AddRelu:
        return add_relu_layer(*lc.layer, slot(a), slot(lc.inputs.at(1)),
                              pool());
    }
    throw InternalError("unhandled ewop op");
  }
};

ExecContext::ExecContext(const nn::Network& net, const WeightStore& weights,
                         const ExecOptions& options)
    : impl_(std::make_unique<Impl>(
          std::make_shared<const CompiledModel>(net, weights, options))) {}

ExecContext::ExecContext(const ExecContext& warm)
    : impl_(std::make_unique<Impl>(warm.impl_->model)) {}

ExecContext::~ExecContext() = default;
ExecContext::ExecContext(ExecContext&&) noexcept = default;
ExecContext& ExecContext::operator=(ExecContext&&) noexcept = default;

ExecResult ExecContext::run(const nn::Tensor16& input) {
  return impl_->run(input);
}

ArenaStats ExecContext::arena_stats() const { return impl_->arena.stats(); }

ExecResult run_network(const nn::Network& net, const Tensor16& input,
                       const WeightStore& weights, const ExecOptions& options) {
  ExecContext ctx(net, weights, options);
  return ctx.run(input);
}

}  // namespace ftdl::runtime
