// Analytical performance model (Sec. IV-B, Eqns. 7-9; objectives Eqns. 12-13).
//
// Given a workload, a mapping and an overlay configuration it produces the
// per-channel cycle counts (computation, ActBUS, PSumBUS, DRAM read/write),
// the buffer demands, the WBUF efficiency, and the Eqn. 12 execution time.
// All cycle counts are in CLKh cycles.
#pragma once

#include <cstdint>
#include <string>

#include "arch/overlay_config.h"
#include "compiler/mapping.h"
#include "compiler/workload.h"

namespace ftdl::compiler {

/// On-chip buffer demand implied by a mapping.
struct BufferUsage {
  std::int64_t wbuf_words_per_tpe = 0;      ///< whole-layer weight tile
  std::int64_t actbuf_words_per_tpe = 0;    ///< activation tile per LoopL refill
  std::int64_t psum_words_per_superblock = 0;  ///< live psum entries per LoopX

  bool fits(const arch::OverlayConfig& c) const {
    return wbuf_words_per_tpe <= c.wbuf_words &&
           actbuf_words_per_tpe <= c.actbuf_usable() &&
           psum_words_per_superblock <= c.psumbuf_usable();
  }
};

/// Full evaluation of one mapping.
struct Performance {
  // Temporal trip products (Eqn. 6).
  std::int64_t x = 0, l = 0, t = 0;

  // Cycle counts per channel.
  std::int64_t c_comp = 0;      ///< Eqn. 7 (incl. pipeline latency, Lat = D1+6)
  std::int64_t c_act_bus = 0;   ///< Eqn. 8
  std::int64_t c_psum_bus = 0;  ///< Eqn. 9
  std::int64_t c_dram_rd = 0;
  std::int64_t c_dram_wr = 0;
  std::int64_t c_exe = 0;       ///< Eqn. 12: max over all channels

  // Off-chip traffic volumes (roofline arithmetic intensity, DRAM energy).
  double dram_rd_bytes = 0.0;
  double dram_wr_bytes = 0.0;

  double e_wbuf = 0.0;          ///< WBUF efficiency (Sec. IV-B3)
  BufferUsage buffers;

  bool buffers_fit = false;
  /// Weight reuse >= 2 on the innermost axis — required for the double pump
  /// to feed the DSP every CLKh cycle; otherwise compute stretches 2x.
  bool weight_reuse_ok = true;
  /// A reduction loop is split across D3 rows (host EWOP folds the rows).
  bool host_reduction = false;

  /// A mapping is feasible when it is legal and its buffers fit.
  bool feasible = false;

  /// MAC-efficiency of the whole array: true MACs / (C_exe * #TPE).
  double hardware_efficiency = 0.0;

  /// Wall-clock seconds at the configured CLKh.
  double seconds(const arch::OverlayConfig& c) const {
    return double(c_exe) / c.clocks.clk_h_hz;
  }
};

/// Tile-geometry helpers shared with the cycle-level simulator. All are
/// pure functions of (workload, mapping).
/// Activation words one SuperBlock row receives per LoopL refill (f_act).
std::int64_t act_refill_words(const Workload& w, const Mapping& m);
/// Activation words a single TPE holds per refill (ActBUF demand).
std::int64_t act_tile_words_per_tpe(const Workload& w, const Mapping& m);
/// Live psum entries per SuperBlock during one LoopX iteration (f_psum).
std::int64_t psum_tile_words(const Workload& w, const Mapping& m);
/// Passes over the psum tile (reduction loops tiled at LoopX).
std::int64_t psum_passes(const Workload& w, const Mapping& m);
/// T-level reuse available to the double pump (>= 2 required).
std::int64_t weight_reuse_at_t(const Workload& w, const Mapping& m);

/// On-chip buffer demand of a mapping: the part of evaluate() that decides
/// feasibility, without the Eqn. 7-12 cycle model.
BufferUsage buffer_usage(const Workload& w, const Mapping& m);

/// Evaluates a mapping. evaluate() does not check legality: it assumes the
/// mapping satisfies the adjacency matrix and Eqns. 10-11. The search builds
/// its candidates legal by construction and checks only its refinement moves
/// (satisfies_adjacency / satisfies_logical_constraints); the program loader
/// checks Eqns. 10-11 on a stored mapping. evaluate() never throws on
/// infeasible mappings; it reports them via the flags.
Performance evaluate(const Workload& w, const Mapping& m,
                     const arch::OverlayConfig& config);

/// Theoretical minimum execution time for the workload on this overlay
/// (perfect efficiency): ceil(MACs / #TPE) CLKh cycles. Used to normalize
/// Objective 2 (Eqn. 13).
std::int64_t min_execution_cycles(const Workload& w,
                                  const arch::OverlayConfig& config);

/// Eqn. 13 balance score (with the normalization direction corrected:
/// Score = Cexe_min / Cexe + E_WBUF, so faster and less duplicated is
/// better; the paper's printed Cexe/Cexe_min would reward slow mappings).
double balance_score(const Performance& p, std::int64_t c_exe_min);

}  // namespace ftdl::compiler
