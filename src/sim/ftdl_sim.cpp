#include "sim/ftdl_sim.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <unordered_set>

#include "arch/isa.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "compiler/session.h"
#include "obs/obs.h"
#include "sim/sim_engine.h"

namespace ftdl::sim {

namespace {

using compiler::HwLevel;
using compiler::Mapping;
using compiler::Workload;
using compiler::WorkloadKind;

/// Mixed-radix odometer over the per-loop tiles of one hardware level.
/// digits()[k] is the current sub-index of workload loop k at this level.
class Odometer {
 public:
  Odometer(const Mapping& m, HwLevel level)
      : radix_(m.level(level).begin(), m.level(level).end()),
        digits_(radix_.size(), 0) {}

  const std::vector<std::int64_t>& digits() const { return digits_; }

  /// Total number of states (the level product).
  std::int64_t states() const {
    std::int64_t p = 1;
    for (std::int64_t r : radix_) p *= r;
    return p;
  }

  /// Advances to the next state; returns false on wrap-around to zero.
  bool advance() {
    for (std::size_t k = digits_.size(); k-- > 0;) {
      if (++digits_[k] < radix_[k]) return true;
      digits_[k] = 0;
    }
    return false;
  }

  void reset() { std::fill(digits_.begin(), digits_.end(), 0); }

 private:
  std::vector<std::int64_t> radix_;
  std::vector<std::int64_t> digits_;
};

/// Per-TPE spatial digits, enumerated once (the hardware runs these in
/// parallel every cycle). Only the Reference interpreter walks these
/// vectors; the Fast engine walks the layer in workload-loop order instead
/// (sim_engine.h).
std::vector<std::vector<std::int64_t>> enumerate_spatial(const Mapping& m,
                                                         int k) {
  Odometer d3(m, HwLevel::D3), d2(m, HwLevel::D2), d1(m, HwLevel::D1);
  std::vector<std::vector<std::int64_t>> out;
  do {
    do {
      do {
        // Combined spatial digit per loop: ((d3 * TD2 + d2) * TD1 + d1),
        // matching the H-matrix nesting of Eqn. 5.
        std::vector<std::int64_t> digit(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          const auto iu = static_cast<std::size_t>(i);
          digit[iu] = (d3.digits()[iu] * m.tile(HwLevel::D2, i) +
                       d2.digits()[iu]) *
                          m.tile(HwLevel::D1, i) +
                      d1.digits()[iu];
        }
        out.push_back(std::move(digit));
      } while (d1.advance());
    } while (d2.advance());
  } while (d3.advance());
  return out;
}

struct Shape {
  // Conv fields.
  int in_c = 0, in_h = 0, in_w = 0, out_c = 0, kh = 0, kw = 0, stride = 1,
      pad = 0, oh = 0, ow = 0;
  // MM fields.
  int mm_m = 0, mm_n = 0, mm_p = 0;

  bool operator==(const Shape&) const = default;
};

Shape shape_from_layer(const nn::Layer& layer) {
  Shape s;
  if (layer.kind == nn::LayerKind::Depthwise) {
    s.in_c = layer.in_c;
    s.in_h = layer.in_h;
    s.in_w = layer.in_w;
    s.out_c = layer.in_c;
    s.kh = layer.kh;
    s.kw = layer.kw;
    s.stride = layer.stride;
    s.pad = layer.pad;
    s.oh = layer.out_h();
    s.ow = layer.out_w();
  } else if (layer.kind == nn::LayerKind::Conv) {
    s.in_c = layer.in_c;
    s.in_h = layer.in_h;
    s.in_w = layer.in_w;
    s.out_c = layer.out_c;
    s.kh = layer.kh;
    s.kw = layer.kw;
    s.stride = layer.stride;
    s.pad = layer.pad;
    s.oh = layer.out_h();
    s.ow = layer.out_w();
  } else {
    s.mm_m = static_cast<int>(layer.mm_m);
    s.mm_n = static_cast<int>(layer.mm_n);
    s.mm_p = static_cast<int>(layer.mm_p);
  }
  return s;
}

/// The tensor layouts a layer's functional run reads and writes.
struct Layouts {
  nn::Dims weights, input, output;
};

Layouts layouts_of(const nn::Layer& layer) {
  const Shape s = shape_from_layer(layer);
  switch (layer.kind) {
    case nn::LayerKind::Depthwise:
      return {{s.in_c, s.kh, s.kw}, {s.in_c, s.in_h, s.in_w},
              {s.out_c, s.oh, s.ow}};
    case nn::LayerKind::Conv:
      return {{s.out_c, s.in_c, s.kh, s.kw}, {s.in_c, s.in_h, s.in_w},
              {s.out_c, s.oh, s.ow}};
    default:
      return {{s.mm_n, s.mm_m}, {s.mm_m, s.mm_p}, {s.mm_n, s.mm_p}};
  }
}

/// Allocation-free on success.
void check_tensors(const std::string& name, const Layouts& layouts,
                   const nn::Tensor16& weights, const nn::Tensor16& input) {
  if (input.dims() != layouts.input)
    throw ConfigError(name + ": input tensor layout mismatch");
  if (weights.dims() != layouts.weights)
    throw ConfigError(name + ": weight tensor layout mismatch");
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
/// is what makes the stats-only path exact: timing, trace and obs spans are
/// produced by the same code on every path.
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

/// Simulates the Listing-1 control schedule: LoopT bursts overlapping ActBUF
/// refills, LoopX overlapping PSumBUF drains, the slower side stalling —
/// Eqn. 12's max() as emergent per-iteration behaviour. Fills the cycle /
/// stall / refill / drain fields of `st`, the DRAM trace, and the obs
/// timelines. Runs the same way on every engine / functional setting, so
/// stats and trace are bit-identical across them by construction.
void run_timing(const Timing& tm, const SimOptions& options,
                const std::string& layer_name, SimStats& st,
                dram::AccessTrace& trace) {
  // Observability: one virtual-clock timeline per hardware unit for this
  // layer, timestamped in CLKh cycles (docs/observability.md). Tracks are
  // only registered when collection is on; when it is off the cost is one
  // predicted branch per LoopL / LoopX iteration, far outside the MACC loop.
  const bool obs_on = obs::enabled();
  std::uint32_t tr_burst = 0, tr_refill = 0, tr_drain = 0, tr_stall = 0;
  if (obs_on) {
    obs::Registry& reg = obs::Registry::global();
    // A fresh process per simulation instance: re-simulating a layer (weight
    // groups, repeated runs, cached warm-up passes) must not append
    // earlier-than-last timestamps to an existing track. The disambiguator
    // is a dedicated counter this function owns — tying it to a caller-side
    // counter breaks as soon as a caller (CachedLayerSim warm-up) runs
    // several timing passes before any of its own counts.
    const std::int64_t inst = reg.counter("sim/timing_passes");
    obs::count("sim/timing_passes");
    std::string proc = "sim:" + layer_name;
    if (inst > 0) proc += " #" + std::to_string(inst);
    tr_burst = reg.track(proc, "LoopT bursts");
    tr_refill = reg.track(proc, "ActBUF refills");
    tr_drain = reg.track(proc, "PSumBUF drains");
    tr_stall = reg.track(proc, "stalls");
  }

  std::int64_t pending_drain = 0;  // previous LoopX's psum drain in flight
  for (std::int64_t x = 0; x < tm.x_trip; ++x) {
    std::int64_t x_compute = 0;
    for (std::int64_t l = 0; l < tm.l_trip; ++l) {
      // ActBUF refill (double-buffered): overlaps this burst.
      const std::int64_t fetch =
          std::max(tm.refill_cycles, tm.dram_rd_per_refill);
      const std::int64_t step = std::max(tm.burst_cycles, fetch);
      if (obs_on) {
        obs::Registry& reg = obs::Registry::global();
        const double t0 = double(st.cycles + x_compute);
        reg.begin(tr_burst, "burst", t0, "sim");
        reg.end(tr_burst, t0 + double(tm.burst_cycles));
        reg.begin(tr_refill, "act_refill", t0, "sim");
        reg.end(tr_refill, t0 + double(fetch));
        if (step > tm.burst_cycles) {
          reg.begin(tr_stall, "act_stall", t0 + double(tm.burst_cycles), "sim");
          reg.end(tr_stall, t0 + double(step));
        }
      }
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
    if (obs_on && advance > x_compute) {
      obs::Registry& reg = obs::Registry::global();
      reg.begin(tr_stall, "psum_stall",
                double(st.cycles - (advance - x_compute)), "sim");
      reg.end(tr_stall, double(st.cycles));
    }

    pending_drain = std::max(tm.drain_cycles, tm.dram_wr_per_x);
    if (obs_on) {
      obs::Registry& reg = obs::Registry::global();
      reg.begin(tr_drain, "psum_drain", double(st.cycles), "sim");
      reg.end(tr_drain, double(st.cycles + pending_drain));
    }
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
}

/// The original scalar interpreter, now functional-only: walks every padded
/// Eqn. 2 iteration with per-MACC odometer arithmetic and bounds-checked
/// tensor accessors. Kept as the executable specification the Fast engine is
/// pinned against, and as the only path that can measure true buffer
/// footprints (check_buffers).
void run_reference(const compiler::LayerProgram& program, const Shape& shape,
                   const nn::Tensor16& weights, const nn::Tensor16& input,
                   const SimOptions& options, SimStats& st,
                   nn::AccTensor& output) {
  const Workload& w = program.workload;
  const Mapping& m = program.mapping;

  // Loop indices within the workload vector.
  const bool conv_like = w.kind != WorkloadKind::MatMul;
  const bool is_dw = w.kind == WorkloadKind::DepthwiseConv;
  const int iM = (w.kind == WorkloadKind::MatMul ||
                  w.kind == WorkloadKind::Conv)
                     ? w.loop_index('M')
                     : -1;
  const int iN = conv_like || w.kind == WorkloadKind::MatMul
                     ? w.loop_index('N')
                     : -1;
  const int iE = conv_like ? w.loop_index('E') : -1;
  const int iF = conv_like ? w.loop_index('F') : -1;
  const int iR = conv_like ? w.loop_index('R') : -1;
  const int iS = conv_like ? w.loop_index('S') : -1;
  const int iNmm = (w.kind == WorkloadKind::MatMul) ? w.loop_index('N') : -1;
  const int iP = (w.kind == WorkloadKind::MatMul) ? w.loop_index('P') : -1;

  const auto spatial = enumerate_spatial(m, w.k());

  // Buffer-footprint tracking (check_buffers): one activation set per TPE
  // (reset per LoopL phase), one psum set per SuperBlock (reset per LoopX
  // phase), one weight set per TPE (whole layer).
  const std::size_t n_tpes = spatial.size();
  const std::int64_t d1_prod = m.level_product(HwLevel::D1);
  const std::size_t n_sbs = n_tpes / static_cast<std::size_t>(d1_prod);
  std::vector<std::unordered_set<std::int64_t>> act_sets, psum_sets, wbuf_sets;
  if (options.check_buffers) {
    act_sets.resize(n_tpes);
    psum_sets.resize(n_sbs);
    wbuf_sets.resize(n_tpes);
  }
  auto flush_act_sets = [&] {
    for (auto& set : act_sets) {
      st.max_act_words_per_tpe = std::max<std::int64_t>(
          st.max_act_words_per_tpe, static_cast<std::int64_t>(set.size()));
      set.clear();
    }
  };
  auto flush_psum_sets = [&] {
    for (auto& set : psum_sets) {
      st.max_psum_words_per_sb = std::max<std::int64_t>(
          st.max_psum_words_per_sb, static_cast<std::int64_t>(set.size()));
      set.clear();
    }
  };

  const std::int64_t t_trip = m.level_product(HwLevel::T);
  const std::int64_t l_trip = m.level_product(HwLevel::L);
  const std::int64_t x_trip = m.level_product(HwLevel::X);

  Odometer x_od(m, HwLevel::X), l_od(m, HwLevel::L), t_od(m, HwLevel::T);
  std::vector<std::int64_t> gidx(static_cast<std::size_t>(w.k()));

  for (std::int64_t x = 0; x < x_trip; ++x) {
    l_od.reset();
    for (std::int64_t l = 0; l < l_trip; ++l) {
      // ---- functional burst: every TPE, every LoopT state ----
      t_od.reset();
      for (std::int64_t t = 0; t < t_trip; ++t) {
        for (std::size_t sp_idx = 0; sp_idx < spatial.size(); ++sp_idx) {
          const auto& sp = spatial[sp_idx];
          bool valid = true;
          for (int k = 0; k < w.k(); ++k) {
            const auto ku = static_cast<std::size_t>(k);
            // Eqn. 2 nesting: ((spatial * TX + x) * TL + l) * TT + t.
            std::int64_t v = sp[ku];
            v = v * m.tile(HwLevel::X, k) + x_od.digits()[ku];
            v = v * m.tile(HwLevel::L, k) + l_od.digits()[ku];
            v = v * m.tile(HwLevel::T, k) + t_od.digits()[ku];
            if (v >= w.loops[ku].trip) {
              valid = false;
              break;
            }
            gidx[ku] = v;
          }
          ++st.padded_maccs;
          if (!valid) continue;

          if (conv_like) {
            const int y = static_cast<int>(gidx[static_cast<std::size_t>(iE)]) *
                              shape.stride +
                          static_cast<int>(gidx[static_cast<std::size_t>(iR)]) -
                          shape.pad;
            const int xc = static_cast<int>(gidx[static_cast<std::size_t>(iF)]) *
                               shape.stride +
                           static_cast<int>(gidx[static_cast<std::size_t>(iS)]) -
                           shape.pad;
            if (y < 0 || y >= shape.in_h || xc < 0 || xc >= shape.in_w) continue;
            const auto n = static_cast<int>(gidx[static_cast<std::size_t>(iN)]);
            const auto mo =
                is_dw ? n : static_cast<int>(gidx[static_cast<std::size_t>(iM)]);
            const auto e = static_cast<int>(gidx[static_cast<std::size_t>(iE)]);
            const auto f = static_cast<int>(gidx[static_cast<std::size_t>(iF)]);
            const auto r = static_cast<int>(gidx[static_cast<std::size_t>(iR)]);
            const auto sIdx = static_cast<int>(gidx[static_cast<std::size_t>(iS)]);
            const std::int16_t wv = is_dw ? weights.at(n, r, sIdx)
                                          : weights.at(mo, n, r, sIdx);
            output.at(mo, e, f) =
                macc(output.at(mo, e, f), wv, input.at(n, y, xc));
            if (options.check_buffers) {
              const std::int64_t act_id =
                  (std::int64_t{n} * shape.in_h + y) * shape.in_w + xc;
              act_sets[sp_idx].insert(act_id);
              const std::int64_t w_id =
                  ((std::int64_t{mo} * shape.in_c + n) * shape.kh + r) *
                      shape.kw + sIdx;
              wbuf_sets[sp_idx].insert(w_id);
              const std::int64_t out_id =
                  (std::int64_t{mo} * shape.oh + e) * shape.ow + f;
              psum_sets[sp_idx / static_cast<std::size_t>(d1_prod)].insert(
                  out_id);
            }
          } else {
            const auto mm = static_cast<int>(gidx[static_cast<std::size_t>(iM)]);
            const auto n = static_cast<int>(gidx[static_cast<std::size_t>(iNmm)]);
            const auto pp = static_cast<int>(gidx[static_cast<std::size_t>(iP)]);
            output.at(n, pp) =
                macc(output.at(n, pp), weights.at(n, mm), input.at(mm, pp));
            if (options.check_buffers) {
              act_sets[sp_idx].insert(std::int64_t{mm} * shape.mm_p + pp);
              wbuf_sets[sp_idx].insert(std::int64_t{n} * shape.mm_m + mm);
              psum_sets[sp_idx / static_cast<std::size_t>(d1_prod)].insert(
                  std::int64_t{n} * shape.mm_p + pp);
            }
          }
          ++st.valid_maccs;
        }
        t_od.advance();
      }
      if (options.check_buffers) flush_act_sets();
      l_od.advance();
    }
    if (options.check_buffers) flush_psum_sets();
    x_od.advance();
  }

  if (options.check_buffers) {
    for (const auto& set : wbuf_sets) {
      st.max_wbuf_words_per_tpe = std::max<std::int64_t>(
          st.max_wbuf_words_per_tpe, static_cast<std::int64_t>(set.size()));
    }
  }
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

/// A program split into weight groups maps only one group's slice, so a
/// functional run refuses it up front rather than computing part of the
/// layer.
void check_single_group(const compiler::LayerProgram& program) {
  if (program.weight_groups != 1)
    throw ConfigError(program.layer.name + ": the program runs as " +
                      std::to_string(program.weight_groups) +
                      " weight groups; build the layer-level CachedLayerSim "
                      "from the programs of compiler::weight_group_layers");
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

/// The coverage cross-check of every Fast functional run: the engine
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

/// Fast-engine functional pass, fanned across the resolved worker pool
/// (SimOptions::jobs).
void run_engine(const compiler::LayerProgram& program,
                const nn::Tensor16& weights, const nn::Tensor16& input,
                const SimOptions& options, SimStats& st,
                nn::AccTensor& output) {
  const detail::EngineTables tables = detail::build_tables(program);
  const std::int16_t* wp = weights.data();
  const std::int16_t* ip = input.data();
  acc_t* op = output.data();
  std::int64_t valid = 0;
  if (options.jobs == 1) {
    valid = detail::run_functional(tables, wp, ip, op, nullptr);
  } else if (options.jobs == 0) {
    valid = detail::run_functional(tables, wp, ip, op,
                                   &compiler::CompilerSession::global().pool());
  } else {
    ThreadPool pool(options.jobs);
    valid = detail::run_functional(tables, wp, ip, op, &pool);
  }
  check_coverage(program.layer.name, valid, detail::count_valid_maccs(tables));
  st.valid_maccs = valid;
  st.padded_maccs = program.mapping.padded_macs();
}

SimResult simulate_impl(const compiler::LayerProgram& program,
                        const arch::OverlayConfig& config,
                        const nn::Tensor16* weights, const nn::Tensor16* input,
                        const SimOptions& options) {
  const Workload& w = program.workload;
  const Mapping& m = program.mapping;
  FTDL_ASSERT(m.k() == w.k());

  if (!options.functional && options.check_buffers)
    throw ConfigError(w.name +
                      ": check_buffers needs a functional run "
                      "(functional = false skips the bursts the footprints "
                      "are measured on)");
  check_padded_limit(program, options);

  const Shape shape = shape_from_layer(program.layer);
  const Layouts layouts = layouts_of(program.layer);
  if (options.functional) {
    FTDL_ASSERT(weights != nullptr && input != nullptr);
    check_single_group(program);
    check_tensors(program.layer.name, layouts, *weights, *input);
  }

  check_stream(program);

  SimResult result;
  SimStats& st = result.stats;

  // ---- functional pass (or interval-arithmetic stand-in) ----
  if (options.functional) {
    result.output = nn::AccTensor(layouts.output);
    // check_buffers is tied to the reference walk: the footprint sets track
    // its serial LoopL/LoopX phases and the mode exists for verification,
    // not speed.
    if (options.engine == SimEngine::Reference || options.check_buffers)
      run_reference(program, shape, *weights, *input, options, st,
                    result.output);
    else
      run_engine(program, *weights, *input, options, st, result.output);
  } else {
    const detail::EngineTables tables = detail::build_tables(program);
    st.valid_maccs = detail::count_valid_maccs(tables);
    st.padded_maccs = m.padded_macs();
  }

  // ---- timing pass: identical on every path by construction ----
  run_timing(make_timing(program, config), options, program.layer.name, st,
             result.trace);

  // valid_maccs counts per-TPE operations; padded_maccs should equal the
  // mapping's padded space.
  FTDL_ASSERT(st.padded_maccs == m.padded_macs());

  count_stats(st);
  return result;
}

}  // namespace

SimResult simulate_layer(const compiler::LayerProgram& program,
                         const arch::OverlayConfig& config,
                         const nn::Tensor16& weights, const nn::Tensor16& input,
                         const SimOptions& options) {
  return simulate_impl(program, config, &weights, &input, options);
}

SimResult simulate_layer_stats(const compiler::LayerProgram& program,
                               const arch::OverlayConfig& config,
                               const SimOptions& options) {
  SimOptions opt = options;
  opt.functional = false;
  opt.check_buffers = false;
  return simulate_impl(program, config, nullptr, nullptr, opt);
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

namespace {

/// Zeroes the weight-only extent a weight group splits (conv output
/// channels, depthwise channels, MatMul output features) and returns it.
int take_group_extent(Shape& s, nn::LayerKind kind) {
  int& field = kind == nn::LayerKind::Conv        ? s.out_c
               : kind == nn::LayerKind::Depthwise ? s.in_c
                                                  : s.mm_n;
  const int extent = field;
  field = 0;
  if (kind == nn::LayerKind::Depthwise) s.out_c = 0;
  return extent;
}

/// Refuses a group list that does not tile `layer`: every group must equal
/// the layer but for the split extent, and the extents must sum to the
/// layer's.
void check_tiling(const nn::Layer& layer,
                  std::span<const compiler::LayerProgram> groups) {
  Shape whole = shape_from_layer(layer);
  const int extent = take_group_extent(whole, layer.kind);
  std::int64_t covered = 0;
  for (const compiler::LayerProgram& g : groups) {
    Shape part = shape_from_layer(g.layer);
    covered += take_group_extent(part, layer.kind);
    if (g.layer.kind != layer.kind || part != whole)
      throw ConfigError(layer.name + ": weight group " + g.layer.name +
                        " is not a slice of the layer");
  }
  if (groups.empty() || covered != extent)
    throw ConfigError(layer.name + ": " + std::to_string(groups.size()) +
                      " weight groups cover " + std::to_string(covered) +
                      " of the layer's " + std::to_string(extent) +
                      " channels");
}

}  // namespace

CachedLayerSim::CachedLayerSim(const compiler::LayerProgram& program,
                               const arch::OverlayConfig& config,
                               const SimOptions& options)
    : CachedLayerSim(program.layer, std::span(&program, 1), config, options) {}

CachedLayerSim::CachedLayerSim(const nn::Layer& layer,
                               std::span<const compiler::LayerProgram> groups,
                               const arch::OverlayConfig& config,
                               const SimOptions& options)
    : impl_(std::make_unique<Impl>()) {
  for (const compiler::LayerProgram& g : groups) check_single_group(g);
  check_tiling(layer, groups);

  impl_->name = layer.name;
  impl_->layouts = layouts_of(layer);
  impl_->tables = detail::build_tables(layer);

  // The overlay runs the groups back to back, and a group's SimStats do not
  // depend on the data: the layer's stats are the groups' sums, computed
  // once here. Timing runs without a trace.
  SimOptions topt = options;
  topt.collect_trace = false;
  SimStats& total = impl_->stats;
  for (const compiler::LayerProgram& g : groups) {
    const Mapping& m = g.mapping;
    FTDL_ASSERT(m.k() == g.workload.k());
    check_padded_limit(g, options);
    // Same controller-stream cross-check as simulate_layer: the cached
    // runner must refuse exactly the programs the one-shot path refuses.
    check_stream(g);
    SimStats st;
    st.valid_maccs = detail::count_valid_maccs(detail::build_tables(g));
    st.padded_maccs = m.padded_macs();
    dram::AccessTrace trace;
    run_timing(make_timing(g, config), topt, g.layer.name, st, trace);
    total.cycles += st.cycles;
    total.compute_cycles += st.compute_cycles;
    total.act_stall_cycles += st.act_stall_cycles;
    total.psum_stall_cycles += st.psum_stall_cycles;
    total.valid_maccs += st.valid_maccs;
    total.padded_maccs += st.padded_maccs;
    total.act_refills += st.act_refills;
    total.psum_drains += st.psum_drains;
  }
}

CachedLayerSim::~CachedLayerSim() = default;
CachedLayerSim::CachedLayerSim(CachedLayerSim&&) noexcept = default;
CachedLayerSim& CachedLayerSim::operator=(CachedLayerSim&&) noexcept = default;

const SimStats& CachedLayerSim::stats() const { return impl_->stats; }

void CachedLayerSim::run(const nn::Tensor16& weights, const nn::Tensor16& input,
                         nn::AccTensor& out, ThreadPool* pool) const {
  const Impl& im = *impl_;
  check_tensors(im.name, im.layouts, weights, input);
  if (out.dims() != im.layouts.output)
    out = nn::AccTensor(im.layouts.output);  // pooled under an installed arena
  else
    std::fill(out.data(), out.data() + out.size(), acc_t{0});

  check_coverage(im.name,
                 detail::run_functional(im.tables, weights.data(),
                                        input.data(), out.data(), pool),
                 im.stats.valid_maccs);

  count_stats(im.stats);
}

}  // namespace ftdl::sim
