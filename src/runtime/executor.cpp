#include "runtime/executor.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "compiler/session.h"
#include "nn/reference.h"
#include "obs/obs.h"
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

/// One layer of a compiled model.
struct CompiledLayer {
  const Layer* layer = nullptr;
  std::vector<std::string> inputs;       ///< resolved dataflow inputs
  const Tensor16* weights = nullptr;     ///< overlay layers only
  int weight_groups = 1;
  /// Overlay layers only: one runner over all weight groups.
  std::optional<sim::CachedLayerSim> sim;
};

/// What the warm-up resolves once: the sink, each layer's inputs, weights and
/// runner. Immutable after construction, so the copies of a context share it
/// without locking (CachedLayerSim::run is const).
struct CompiledModel {
  const ExecOptions opt;
  std::string sink;
  const std::string input_key{nn::kNetworkInput};
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
    if (sinks.size() != 1) {
      std::string names;
      for (const std::string& s : sinks) {
        if (!names.empty()) names += ", ";
        names += s;
      }
      throw ConfigError(net.name() +
                        ": ambiguous network output — feed-forward execution "
                        "needs exactly one sink layer, found " +
                        std::to_string(sinks.size()) + " (" + names + ")");
    }
    sink = sinks.front();

    layers.reserve(net.layers().size());
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
      const Layer& layer = net.layers()[i];
      if (layer.repeat != 1)
        throw ConfigError(layer.name +
                          ": recurrent (repeat>1) layers are not executable "
                          "feed-forward");
      CompiledLayer lc;
      lc.layer = &layer;
      lc.inputs = net.resolved_inputs(i);
      if (layer.on_overlay()) lc.weights = &wstore.get(layer);
      layers.push_back(std::move(lc));
    }
    // Compile only once every layer is known to be executable.
    for (CompiledLayer& lc : layers) {
      if (lc.weights != nullptr) warm_overlay(lc);
    }
  }

  /// Warm-up for one overlay layer: compile the layer through the shared
  /// session (repeated shapes reuse one search) and build its runner. The
  /// program carries every part the overlay runs.
  void warm_overlay(CompiledLayer& lc) {
    const compiler::LayerProgram prog =
        compiler::CompilerSession::global().compile(
            *lc.layer, opt.config, compiler::Objective::Performance,
            opt.search_budget_per_layer);
    lc.weight_groups = prog.weight_groups;
    lc.sim.emplace(prog, opt.config);
  }
};

}  // namespace

/// A context's scratch over its shared compiled model: run() touches only
/// the arena, the tensor map and the pool.
struct ExecContext::Impl {
  const std::shared_ptr<const CompiledModel> model;
  const ExecOptions& opt;
  TensorArena arena;
  /// sim_jobs > 1: a dedicated pool, built by the first run.
  std::unique_ptr<ThreadPool> own_pool;
  /// Persistent name -> tensor map: keys are inserted by the first run and
  /// overwritten (move-assigned) on later runs, so steady-state execution
  /// never allocates map nodes or key strings.
  std::unordered_map<std::string, Tensor16> tensors;

  explicit Impl(std::shared_ptr<const CompiledModel> m)
      : model(std::move(m)), opt(model->opt) {}

  ThreadPool* pool() {
    if (opt.sim_jobs == 1) return nullptr;
    if (opt.sim_jobs == 0) return &compiler::CompilerSession::global().pool();
    if (!own_pool) own_pool = std::make_unique<ThreadPool>(opt.sim_jobs);
    return own_pool.get();
  }

  const Tensor16& tensor(const std::string& name) const {
    auto it = tensors.find(name);
    if (it == tensors.end())
      throw ConfigError("no tensor produced for " + name);
    return it->second;
  }

  ExecResult run(const Tensor16& input) {
    // Every tensor built below draws from the pool for the rest of the call
    // (and frees back into it, even from tensors that escape in the result).
    TensorArena::Scope scope(arena);
    tensors[model->input_key] = input;

    ExecResult result;
    for (const CompiledLayer& lc : model->layers) {
      const Layer& layer = *lc.layer;
      LayerRun run;
      run.kind = layer.kind;
      if (opt.collect_runs) run.name = layer.name;
      Tensor16 out;
      if (obs::enabled()) {
        obs::ScopedSpan span("runtime", "execute_layer",
                             {{"layer", layer.name},
                              {"kind", nn::to_string(layer.kind)}});
        out = execute_layer(lc, run);
        if (run.sim_cycles > 0)
          span.add_arg("cycles", std::to_string(run.sim_cycles));
        obs::count("runtime/layers_executed");
        if (run.sim_cycles > 0) obs::count("runtime/sim_cycles", run.sim_cycles);
      } else {
        out = execute_layer(lc, run);
      }
      result.total_sim_cycles += run.sim_cycles;
      if (opt.collect_runs) result.runs.push_back(std::move(run));
      tensors[layer.name] = std::move(out);
    }
    result.output = tensors.at(model->sink);
    return result;
  }

  Tensor16 execute_layer(const CompiledLayer& lc, LayerRun& run) {
    const Layer& layer = *lc.layer;
    switch (layer.kind) {
      case LayerKind::Conv:
      case LayerKind::Depthwise:
      case LayerKind::MatMul:
        return execute_overlay(lc, tensor(lc.inputs.at(0)), run);
      case LayerKind::Pool: {
        note_host_kernel(layer);
        const Tensor16& in = tensor(lc.inputs.at(0));
        return layer.pool_op == nn::PoolOp::Max
                   ? nn::maxpool_reference(layer, in)
                   : nn::avgpool_reference(layer, in);
      }
      case LayerKind::Concat:
        note_host_kernel(layer);
        return concat(layer, lc.inputs);
      case LayerKind::Ewop:
        note_host_kernel(layer);
        return ewop(layer, lc.inputs);
    }
    throw InternalError("unhandled layer kind");
  }

  /// One engine call over the layer's full weight tensor on its warm
  /// runner (which rejects a wrongly shaped input with ConfigError), then
  /// the host requantisation.
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
    lc.sim->run(*lc.weights, *act, acc, pool());
    run.weight_groups = lc.weight_groups;
    run.sim_cycles = lc.sim->stats().cycles;
    run.requant_shift = calibrate_shift(acc, opt.target_magnitude_bits);
    return nn::requantize_output(layer, acc, run.requant_shift);
  }

  Tensor16 concat(const Layer& layer,
                  const std::vector<std::string>& inputs) const {
    int channels = 0;
    const Tensor16& first = tensor(inputs.front());
    if (first.dims().size() != 3)
      throw ConfigError(layer.name + ": concat expects CHW inputs");
    const int h = first.dims()[1], w = first.dims()[2];
    for (const std::string& in : inputs) {
      const Tensor16& t = tensor(in);
      if (t.dims().size() != 3 || t.dims()[1] != h || t.dims()[2] != w)
        throw ConfigError(layer.name + ": concat input shape mismatch at " + in);
      channels += t.dims()[0];
    }
    // A CHW tensor's channels are one contiguous block: one copy per input.
    Tensor16 out({channels, h, w});
    std::int16_t* dst = out.data();
    for (const std::string& in : inputs) {
      const Tensor16& t = tensor(in);
      dst = std::copy(t.data(), t.data() + t.size(), dst);
    }
    return out;
  }

  Tensor16 ewop(const Layer& layer,
                const std::vector<std::string>& inputs) const {
    switch (layer.ewop_op) {
      case nn::EwopOp::Generic:
        // Op-count-only stage: identity over its (single) input.
        return tensor(inputs.at(0));
      case nn::EwopOp::AddRelu: {
        const Tensor16& a = tensor(inputs.at(0));
        const Tensor16& b = tensor(inputs.at(1));
        if (a.dims() != b.dims())
          throw ConfigError(layer.name + ": residual input shape mismatch");
        Tensor16 out(a.dims());
        for (std::int64_t i = 0; i < a.size(); ++i) {
          const acc_t sum = acc_t{a[i]} + acc_t{b[i]};
          out[i] = relu(requantize(sum, 0));
        }
        return out;
      }
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
