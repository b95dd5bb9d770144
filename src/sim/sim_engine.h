// Internal engine of the fast cycle-level simulator (ftdl_sim.cpp).
//
// The functional pass walks the layer in workload-loop order, not in the
// hardware-level order of Eqn. 2. That is exact: every loop's global index
// decomposes over the six levels on its own, gidx_k = ((sp_k*TX_k + x_k)
// *TL_k + l_k)*TT_k + t_k, a bijection from loop k's digits onto [0, P_k)
// with P_k = Mapping::loop_coverage(k), independent of every other loop.
// The padded iteration space is therefore exactly prod_k [0, P_k), its
// valid points are exactly the layer's MACs when P_k >= W_k for every loop,
// and int64 accumulation is exact, so any enumeration order produces
// bit-identical accumulators. The engine exploits that freedom:
//
//   * fan-out: the output channels (conv M, depthwise channel, MatMul N)
//     split into contiguous ranges across the ThreadPool — each output
//     accumulator has exactly one owner, so the result is the same at any
//     jobs count;
//   * int32 register tiles: a conv whose operands satisfy
//     K * max|w| * max|x| <= 2^31 - 1 (checked by scanning both tensors on
//     every call) runs as an implicit GEMM over one zero-padded copy of its
//     input, 4 output channels x 16 output positions per int32 tile
//     (simd::conv_tile_i16), widened to acc_t once per tile. A stride-s
//     conv first splits that copy by phase: plane (a, b) of a channel holds
//     the padded rows = a and columns = b (mod s), the phases become input
//     channels (those without taps dropped), and the kernel becomes the
//     ceil(kh/s) x ceil(kw/s) taps of one phase, the missing ones zero; K
//     is that phase shape's reduction length. Under the bound every int32
//     partial sum is exact, so the result is bit-identical to the acc_t
//     sweeps below, which run everything else: depthwise, MatMul, operands
//     past the bound, and builds or runs without the vector tile;
//   * inner sweep: the unit-stride output loop (conv F, MatMul P) runs over
//     its whole pad-clipped range in one simd::axpy_i16 call. When
//     ow == in_w (1x1 and same-padded convs, kh x 1 convs over a 1-wide
//     image) both tensors share one row pitch, so a kernel tap's whole
//     window is one sweep across rows; the few pad-clipped columns it passes
//     between rows are subtracted back out, which is exact in integer
//     arithmetic. MatMul with P = 1 is one simd::dot_i16 over M per output;
//     stride > 1 (depthwise, or a conv off the tiles) runs a strided scalar
//     row.
//
// The mapping is not consulted by the walk. It is consulted by
// count_valid_maccs, which counts the valid points of prod_k [0, P_k)
// without touching tensors (the stats-only path, simulate_layer_stats).
// Every functional run asserts the two counts agree: coverage is the one
// mapping property a functional run can observe, and a mapping that drops
// part of a loop is refused instead of silently computed.
//
// Pinned bit-identical to the nn:: reference kernels (conv2d, depthwise,
// matmul) by tests/test_sim_engine.cpp. Internal header: only ftdl_sim.cpp
// and the tests include it.
#pragma once

#include <cstdint>

#include "common/fixed_point.h"
#include "common/thread_pool.h"
#include "compiler/codegen.h"

namespace ftdl::sim::detail {

/// Layer geometry for the walk plus the mapping's per-loop coverage for the
/// valid-MACC count. Conv and depthwise use the conv fields; MatMul the mm_
/// fields.
struct EngineTables {
  compiler::WorkloadKind kind = compiler::WorkloadKind::MatMul;

  // Conv / depthwise: weights {out_c, in_c, kh, kw} (depthwise {in_c, kh,
  // kw}), input {in_c, in_h, in_w}, output {out_c, oh, ow}.
  std::int64_t out_c = 0, in_c = 0, in_h = 0, in_w = 0, oh = 0, ow = 0;
  std::int64_t kh = 0, kw = 0, stride = 1, pad = 0;
  // MatMul: weights {N, M}, input {M, P}, output {N, P}.
  std::int64_t mm_m = 0, mm_n = 0, mm_p = 0;

  /// min(P_k, W_k) per workload loop tag: the part of each loop the mapping
  /// covers. Conv tags M N E F R S; depthwise N E F R S (cov_m unused);
  /// MatMul M N P.
  std::int64_t cov_m = 0, cov_n = 0, cov_e = 0, cov_f = 0, cov_r = 0,
               cov_s = 0, cov_p = 0;

  bool operator==(const EngineTables&) const = default;
};

/// Reads the layer geometry alone; the coverage fields stay zero.
EngineTables build_tables(const nn::Layer& layer);

/// Reads the layer geometry and the mapping's loop coverage of one compiled
/// layer.
EngineTables build_tables(const compiler::LayerProgram& program);

/// True when run_functional computes these tensors on int32 register
/// tiles: a conv of any stride, a vector tile kernel available (simd::
/// has_conv_tile), and operands within the bound K * max|w| * max|x| <=
/// 2^31 - 1, K from the phase-split shape. Scans both tensors.
bool uses_int32_tiles(const EngineTables& tables, const std::int16_t* weights,
                      const std::int16_t* input);

/// Computes every MAC of the layer, fanned across `pool` by output-channel
/// range (nullptr or jobs()==1 runs serially on the caller). The only
/// allocations are the int32 tile path's padded, phase-split input copy and
/// rearranged weights, drawn from the calling thread's TensorArena.
/// Accumulates into `out` (the layer's AccTensor storage, zero-initialized
/// by the caller) and returns the number of MACCs executed — the layer's
/// true MAC count, which the callers cross-check against count_valid_maccs.
std::int64_t run_functional(const EngineTables& tables,
                            const std::int16_t* weights,
                            const std::int16_t* input, acc_t* out,
                            ThreadPool* pool);

/// Counts the valid points of the mapping's padded space prod_k [0, P_k)
/// without touching tensors. Equals run_functional's count exactly when the
/// mapping covers every loop.
std::int64_t count_valid_maccs(const EngineTables& tables);

}  // namespace ftdl::sim::detail
