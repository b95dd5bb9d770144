#include "sim/ftdl_sim.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "arch/isa.h"
#include "common/error.h"
#include "common/math_util.h"
#include "obs/obs.h"
#include "sim/sim_engine.h"

namespace ftdl::sim {

namespace {

using compiler::HwLevel;
using compiler::Mapping;
using compiler::Workload;
using compiler::WorkloadKind;

/// The tensor layouts a layer's functional run reads and writes.
struct Layouts {
  nn::Dims weights, input, output;
};

Layouts layouts_of(const nn::Layer& l) {
  switch (l.kind) {
    case nn::LayerKind::Depthwise:
      return {{l.in_c, l.kh, l.kw}, {l.in_c, l.in_h, l.in_w},
              {l.in_c, l.out_h(), l.out_w()}};
    case nn::LayerKind::Conv:
      return {{l.out_c, l.in_c, l.kh, l.kw}, {l.in_c, l.in_h, l.in_w},
              {l.out_c, l.out_h(), l.out_w()}};
    default: {
      const auto m = static_cast<int>(l.mm_m), n = static_cast<int>(l.mm_n),
                 p = static_cast<int>(l.mm_p);
      return {{n, m}, {m, p}, {n, p}};
    }
  }
}

/// DRAM transfer time in whole CLKh cycles, in exact integer arithmetic:
/// ceil(bytes / (bytes_per_sec / clk_hz)) == ceil(bytes * clk_hz /
/// bytes_per_sec). The rates are configured as whole numbers (26e9, 650e6),
/// so rounding them to integers is lossless and the gcd reduction keeps the
/// product far from overflow (paper config reduces to ceil_div(bytes, 40)).
std::int64_t dram_cycles(std::int64_t bytes, double bytes_per_sec,
                         double clk_hz) {
  std::int64_t bps = std::llround(bytes_per_sec);
  std::int64_t hz = std::llround(clk_hz);
  FTDL_ASSERT(bps > 0 && hz > 0);
  const std::int64_t g = std::gcd(bps, hz);
  bps /= g;
  hz /= g;
  return ceil_div(bytes * hz, bps);
}

/// Per-layer timing ingredients (shared with the analytical model so the
/// two agree on tile geometry; the *schedule* in run_timing is simulated,
/// not formulaic). Everything here is independent of the tensor data, which
/// is what makes the stats-only path exact: timing, trace and the obs span
/// are produced by the same code on every path.
struct Timing {
  std::int64_t t_trip = 0, l_trip = 0, x_trip = 0;
  std::int64_t burst_cycles = 0;
  std::int64_t refill_cycles = 0;
  std::int64_t drain_cycles = 0;
  std::int64_t act_bytes_per_refill = 0;
  std::int64_t psum_bytes_per_x = 0;
  std::int64_t dram_rd_per_refill = 0;
  std::int64_t dram_wr_per_x = 0;
  std::int64_t pipeline_latency = 0;
};

Timing make_timing(const compiler::LayerProgram& program,
                   const arch::OverlayConfig& config) {
  const Workload& w = program.workload;
  const Mapping& m = program.mapping;
  Timing tm;
  tm.t_trip = m.level_product(HwLevel::T);
  tm.l_trip = m.level_product(HwLevel::L);
  tm.x_trip = m.level_product(HwLevel::X);
  const bool reuse_ok =
      !config.double_pump || compiler::weight_reuse_at_t(w, m) >= 2;
  tm.burst_cycles = tm.t_trip * (reuse_ok ? 1 : 2);
  tm.refill_cycles = ceil_div(compiler::act_refill_words(w, m),
                              config.actbus_words_per_cycle);
  const std::int64_t psum_words = compiler::psum_tile_words(w, m);
  const std::int64_t passes = compiler::psum_passes(w, m);
  const std::int64_t psum_traffic = passes > 1 ? 2 * psum_words : psum_words;
  tm.drain_cycles =
      ceil_div(psum_traffic, config.psumbus_words_per_cycle) * config.d3;
  tm.act_bytes_per_refill = 2 * compiler::act_refill_words(w, m) * config.d3;
  tm.psum_bytes_per_x =
      std::int64_t{config.psum_bytes} * psum_words * config.d2 * config.d3;
  tm.dram_rd_per_refill = dram_cycles(
      tm.act_bytes_per_refill, config.dram_rd_bytes_per_sec, config.clocks.clk_h_hz);
  tm.dram_wr_per_x = dram_cycles(
      tm.psum_bytes_per_x, config.dram_wr_bytes_per_sec, config.clocks.clk_h_hz);
  tm.pipeline_latency = config.pipeline_latency();
  return tm;
}

/// Publishes one timing pass as a single span [0, cycles] on a track of its
/// own, timestamped in CLKh cycles (docs/observability.md). The schedule
/// repeats every LoopL / LoopX iteration identically (only the first LoopX
/// has no drain pending), so the pass totals and the per-iteration burst,
/// fetch and drain times carry what per-iteration spans would.
void publish_pass_span(const std::string& layer_name, const SimStats& st,
                       std::int64_t burst, std::int64_t fetch,
                       std::int64_t drain) {
  obs::Registry& reg = obs::Registry::global();
  // A fresh process per timing pass: re-simulating a layer (its tail part,
  // repeated runs, cached warm-up passes) must not append earlier-than-last
  // timestamps to an existing track. The disambiguator is a counter this
  // function owns.
  const std::int64_t inst = reg.counter("sim/timing_passes");
  obs::count("sim/timing_passes");
  std::string proc = "sim:" + layer_name;
  if (inst > 0) proc += " #" + std::to_string(inst);
  const std::uint32_t track = reg.track(proc, "timing");
  const auto arg = [](const char* key, std::int64_t v) {
    return std::make_pair(std::string(key), std::to_string(v));
  };
  reg.begin(track, "timing_pass", 0.0, "sim",
            {arg("compute_cycles", st.compute_cycles),
             arg("act_stall_cycles", st.act_stall_cycles),
             arg("psum_stall_cycles", st.psum_stall_cycles),
             arg("act_refills", st.act_refills),
             arg("psum_drains", st.psum_drains), arg("burst_cycles", burst),
             arg("fetch_cycles", fetch), arg("drain_cycles", drain)});
  reg.end(track, double(st.cycles));
}

/// Simulates the Listing-1 control schedule: LoopT bursts overlapping ActBUF
/// refills, LoopX overlapping PSumBUF drains, the slower side stalling —
/// Eqn. 12's max() as emergent per-iteration behaviour. Fills the cycle /
/// stall / refill / drain fields of `st`, the DRAM trace, and the pass's obs
/// span. CachedLayerSim and simulate_layer_stats both time a part here, so
/// their stats are bit-identical by construction.
void run_timing(const Timing& tm, const SimOptions& options,
                const std::string& layer_name, SimStats& st,
                dram::AccessTrace& trace) {
  // ActBUF refill (double-buffered) overlaps each burst; a PSumBUF drain
  // overlaps the next LoopX.
  const std::int64_t fetch = std::max(tm.refill_cycles, tm.dram_rd_per_refill);
  const std::int64_t step = std::max(tm.burst_cycles, fetch);
  const std::int64_t drain = std::max(tm.drain_cycles, tm.dram_wr_per_x);
  std::int64_t pending_drain = 0;  // previous LoopX's psum drain in flight
  for (std::int64_t x = 0; x < tm.x_trip; ++x) {
    std::int64_t x_compute = 0;
    for (std::int64_t l = 0; l < tm.l_trip; ++l) {
      st.act_stall_cycles += step - tm.burst_cycles;
      st.compute_cycles += tm.burst_cycles;
      x_compute += step;
      ++st.act_refills;
      if (options.collect_trace) {
        trace.add(static_cast<std::uint64_t>(st.cycles + x_compute),
                  dram::AccessKind::Read,
                  static_cast<std::uint64_t>(tm.act_bytes_per_refill));
      }
    }

    // Pipeline latency of the TPE chain per LoopX iteration (Eqn. 7).
    x_compute += tm.pipeline_latency;

    // The previous LoopX's psum drain must have finished before this one's
    // results need the other sub-buffer (double buffering, depth 1).
    const std::int64_t advance = std::max(x_compute, pending_drain);
    st.psum_stall_cycles += advance - x_compute;
    st.cycles += advance;
    pending_drain = drain;
    ++st.psum_drains;
    if (options.collect_trace) {
      trace.add(static_cast<std::uint64_t>(st.cycles),
                dram::AccessKind::Write,
                static_cast<std::uint64_t>(tm.psum_bytes_per_x));
    }
  }
  // The final drain is not hidden by any compute.
  st.cycles += pending_drain;
  trace.total_cycles = static_cast<std::uint64_t>(st.cycles);
  if (obs::enabled())
    publish_pass_span(layer_name, st, tm.burst_cycles, fetch, drain);
}

/// Publishes one simulated layer's stats as sim/* observability counters.
void count_stats(const SimStats& st) {
  if (!obs::enabled()) return;
  obs::count("sim/layers_simulated");
  obs::count("sim/cycles", st.cycles);
  obs::count("sim/compute_cycles", st.compute_cycles);
  obs::count("sim/act_stall_cycles", st.act_stall_cycles);
  obs::count("sim/psum_stall_cycles", st.psum_stall_cycles);
  obs::count("sim/valid_maccs", st.valid_maccs);
  obs::count("sim/padded_maccs", st.padded_maccs);
  obs::count("sim/act_refills", st.act_refills);
  obs::count("sim/psum_drains", st.psum_drains);
}

/// Refuses a program whose padded iteration space exceeds
/// options.max_padded_macs.
void check_padded_limit(const compiler::LayerProgram& program,
                        const SimOptions& options) {
  const std::int64_t padded = program.mapping.padded_macs();
  if (padded > options.max_padded_macs)
    throw Error(program.workload.name +
                ": padded iteration space too large to simulate (" +
                std::to_string(padded) + " padded MACCs > " +
                "max_padded_macs = " +
                std::to_string(options.max_padded_macs) + ")");
}

/// Consumes the controller's instruction stream the way the hardware would:
/// decodes the encoded InstBUS words and takes the temporal configuration
/// from the resulting controller state, cross-checking it against the
/// mapping the compiler claims to have lowered.
void check_stream(const compiler::LayerProgram& program) {
  const Mapping& m = program.mapping;
  const arch::ControllerState ctrl =
      arch::interpret_stream(arch::decode_stream(program.encoded_stream()));
  if (ctrl.x_trip != static_cast<std::uint64_t>(m.level_product(HwLevel::X)) ||
      ctrl.l_trip != static_cast<std::uint64_t>(m.level_product(HwLevel::L)) ||
      ctrl.t_trip != static_cast<std::uint64_t>(m.level_product(HwLevel::T)))
    throw Error(program.workload.name +
                ": instruction stream disagrees with the mapping");
}

/// The coverage cross-check of every functional run: the engine
/// executes the layer's true MACs, count_valid_maccs counts the valid
/// points of the mapping's padded space, and the two differ exactly when the
/// mapping leaves part of a loop uncovered.
void check_coverage(const std::string& layer_name, std::int64_t executed,
                    std::int64_t mapped) {
  if (executed != mapped)
    throw InternalError(layer_name + ": the mapping covers " +
                        std::to_string(mapped) + " of the layer's " +
                        std::to_string(executed) + " MACCs");
}

/// The checks and the timing pass of one part's program: refuses an
/// oversized or stream-inconsistent program, then times it. valid_maccs is
/// the mapping's coverage count.
SimStats time_part(const compiler::LayerProgram& part,
                   const arch::OverlayConfig& config,
                   const SimOptions& options, dram::AccessTrace& trace) {
  FTDL_ASSERT(part.mapping.k() == part.workload.k());
  check_padded_limit(part, options);
  check_stream(part);
  SimStats st;
  st.valid_maccs = detail::count_valid_maccs(detail::build_tables(part));
  st.padded_maccs = part.mapping.padded_macs();
  run_timing(make_timing(part, config), options, part.layer.name, st, trace);
  return st;
}

/// Adds `times` runs of `part` to `total`.
void accumulate(SimStats& total, const SimStats& part, std::int64_t times) {
  total.cycles += part.cycles * times;
  total.compute_cycles += part.compute_cycles * times;
  total.act_stall_cycles += part.act_stall_cycles * times;
  total.psum_stall_cycles += part.psum_stall_cycles * times;
  total.valid_maccs += part.valid_maccs * times;
  total.padded_maccs += part.padded_maccs * times;
  total.act_refills += part.act_refills * times;
  total.psum_drains += part.psum_drains * times;
}

}  // namespace

SimResult simulate_layer_stats(const compiler::LayerProgram& program,
                               const arch::OverlayConfig& config,
                               const SimOptions& options) {
  if (program.weight_groups != 1)
    throw ConfigError(program.layer.name + ": the program runs as " +
                      std::to_string(program.weight_groups) +
                      " weight groups; simulate_layer_stats times one part, "
                      "so run the layer through CachedLayerSim");
  SimResult result;
  result.stats = time_part(program, config, options, result.trace);
  count_stats(result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// CachedLayerSim
// ---------------------------------------------------------------------------

struct CachedLayerSim::Impl {
  detail::EngineTables tables;
  SimStats stats;
  std::string name;
  Layouts layouts;
};

CachedLayerSim::CachedLayerSim(const compiler::LayerProgram& program,
                               const arch::OverlayConfig& config,
                               const SimOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->name = program.layer.name;
  impl_->layouts = layouts_of(program.layer);
  impl_->tables = detail::build_tables(program.layer);
  // Every full-size part runs the same program, so one timing pass stands
  // for all of them. Timing runs without a trace.
  SimOptions topt = options;
  topt.collect_trace = false;
  dram::AccessTrace no_trace;
  accumulate(impl_->stats, time_part(program, config, topt, no_trace),
             program.full_size_parts());
  if (program.tail)
    accumulate(impl_->stats, time_part(*program.tail, config, topt, no_trace),
               1);
}

CachedLayerSim::~CachedLayerSim() = default;
CachedLayerSim::CachedLayerSim(CachedLayerSim&&) noexcept = default;
CachedLayerSim& CachedLayerSim::operator=(CachedLayerSim&&) noexcept = default;

const SimStats& CachedLayerSim::stats() const { return impl_->stats; }

BoundWeights CachedLayerSim::bind(const nn::Tensor16& weights) const {
  const Impl& im = *impl_;
  if (weights.dims() != im.layouts.weights)
    throw ConfigError(im.name + ": weight tensor layout mismatch");
  BoundWeights b;
  b.tables_ = im.tables;
  b.engine_ = detail::bind_weights(im.tables, weights.data());
  return b;
}

std::uint64_t CachedLayerSim::run(const nn::Tensor16& weights,
                                  const nn::Tensor16& input, nn::AccTensor& out,
                                  ThreadPool* pool) const {
  return run(bind(weights), input, out, pool);
}

std::uint64_t CachedLayerSim::run(const BoundWeights& weights,
                                  const nn::Tensor16& input, nn::AccTensor& out,
                                  ThreadPool* pool) const {
  const Impl& im = *impl_;
  // Allocation-free on success.
  if (input.dims() != im.layouts.input)
    throw ConfigError(im.name + ": input tensor layout mismatch");
  if (weights.tables_ != im.tables)
    throw ConfigError(im.name + ": weights bound for another layer shape");
  // The engine writes every element, so new storage skips the zero fill
  // (and is pooled under an installed arena).
  if (out.dims() != im.layouts.output)
    out = nn::AccTensor(im.layouts.output, no_init);

  const detail::EngineResult r = detail::run_functional(
      im.tables, weights.engine_, input.data(), out.data(), pool);
  check_coverage(im.name, r.maccs, im.stats.valid_maccs);

  count_stats(im.stats);
  return r.max_abs;
}

}  // namespace ftdl::sim
