// ftdl::simd — portable vectorized int16 MACC kernels with runtime dispatch.
//
// The fast simulation engine's sweeps reduce to two inner-loop shapes over
// contiguous int16 data:
//
//   dot:  acc      += sum_j w[j] * in[j]          (MatMul P = 1 reduction)
//   axpy: out[j]   += w * in[j]   for every j     (broadcast-weight row)
//
// Both are EXACT integer kernels for *every* input: every int16*int16
// product is formed as a full 32-bit value and accumulated in 64-bit
// (acc_t) lanes, so the SIMD paths are bit-identical to the scalar oracles,
// including the (-32768)^2 corner. Integer addition is associative, so
// lane-wise reassociation of the dot reduction cannot change the result.
//
// The third kernel, conv_tile_i16, trades that unconditional exactness for
// register blocking: a conv over a zero-padded copy of its input (for a
// strided conv, the copy's phase planes) accumulates a tile of output
// channels x output positions in int32 lanes and widens to acc_t once per
// tile. Each step multiplies a pair of int16 inputs by a pair of weights
// and adds both products to an int32 lane: on AVX2 a tile is 4 channels x 16
// positions and a step is _mm256_madd_epi16 + _mm256_add_epi32; on AVX-512
// VNNI it is 6 channels x 32 positions and a step is one
// _mm512_dpwssd_epi32 (vpdpwssd, which wraps like the add; the saturating
// vpdpwssds is not used). Both leave each lane equal to its K products'
// sum modulo 2^32, which is the exact sum while every partial sum fits in
// int32, so the caller must check the bound K * max|w| * max|x| <= 2^31 - 1
// (K = reduction length rounded up to pairs) before calling it —
// max_abs_i16 is the scan that bound needs. The (-32768)^2 corner breaks
// the bound and takes the acc_t path instead.
//
// Dispatch: the implementation is chosen once at first use —
//   * x86-64: AVX2 via per-function target attributes when the running CPU
//     reports it (__builtin_cpu_supports), so no special build flags are
//     needed and the same binary runs on non-AVX2 hosts; when the CPU also
//     reports avx512bw and avx512vnni, the conv tile is the AVX-512 VNNI
//     one ("avx512vnni"; every other kernel stays AVX2), unless
//     FTDL_SIMD=avx2 in the environment keeps the AVX2 tile;
//   * aarch64: NEON (baseline, compile-time) for dot/axpy; no conv tile;
//   * otherwise, or with -DFTDL_SIMD=OFF, or FTDL_SIMD=0 in the
//     environment: the scalar oracles, and no conv tile.
// set_enabled(false) forces the scalar oracles at runtime — the test hook
// behind the SIMD≡scalar sweeps in tests/test_sim_engine.cpp.
#pragma once

#include <cstdint>

#include "common/fixed_point.h"

namespace ftdl::simd {

namespace detail {
/// Out-of-line dispatch through the active implementation (simd.cpp).
acc_t dot_i16_dispatch(const std::int16_t* w, const std::int16_t* in,
                       std::int64_t n);
void axpy_i16_dispatch(acc_t* out, const std::int16_t* in, std::int16_t w,
                       std::int64_t n);
}  // namespace detail

/// Sweeps shorter than one vector's worth of work stay inline at the call
/// site: a function-pointer call costs more than a handful of scalar MACCs
/// (the 7-wide kernel columns of a 7x7 conv are the motivating case).
constexpr std::int64_t kInlineCutoff = 8;

/// Sum of w[j] * in[j] over j in [0, n). Exact in acc_t.
inline acc_t dot_i16(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n) {
  if (n < kInlineCutoff) {
    acc_t acc = 0;
    for (std::int64_t j = 0; j < n; ++j)
      acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
    return acc;
  }
  return detail::dot_i16_dispatch(w, in, n);
}

/// out[j] += w * in[j] for j in [0, n). Exact in acc_t.
inline void axpy_i16(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n) {
  if (n < kInlineCutoff) {
    const acc_t wv = w;
    for (std::int64_t j = 0; j < n; ++j)
      out[j] += wv * static_cast<acc_t>(in[j]);
    return;
  }
  detail::axpy_i16_dispatch(out, in, w, n);
}

/// max |x[j]| over j in [0, n) (32768 for -32768; 0 when n == 0).
std::int32_t max_abs_i16(const std::int16_t* x, std::int64_t n);

/// One conv over a zero-padded copy of its input (implicit GEMM), read at
/// unit stride: a strided conv's caller passes its phase planes as the
/// input channels and the matching per-phase kernel. Output grid position
/// q = e * pitch + f reads xp[n * plane + q + r * pitch + s] for tap
/// (r, s); grid columns f >= ow are computed and discarded, and the grid
/// ends at its last valid output, (oh - 1) * pitch + ow. The tail tile of
/// the grid and the last row's discarded columns read up to
/// kw + conv_tile_shape().positions elements past the last plane (kw + 16
/// on AVX2, kw + 32 on AVX-512 VNNI), so that plane needs that much slack.
/// A 1x1 kernel reads its last plane, channel in_c - 1, from `last` alone:
/// `xp` may then be the unpadded input itself, read in place, when each
/// plane holds at least one tile of positions (a tile over channel n
/// reads at most into channel n + 1), with `last` a slack-padded copy of
/// the last plane. Kernels with more taps read every plane from `xp`.
struct PaddedConv {
  const std::int16_t* xp = nullptr;  ///< in_c padded (or phase) planes
  /// Channel in_c - 1's plane and its slack: xp + (in_c - 1) * plane, or a
  /// copy of that plane.
  const std::int16_t* last = nullptr;
  const std::int16_t* w = nullptr;   ///< weights, [M, N, R, S], read in place
  acc_t* out = nullptr;              ///< output, [M, oh, ow]
  std::int64_t in_c = 0, kh = 0, kw = 0;
  std::int64_t plane = 0, pitch = 0;  ///< padded plane size and row pitch
  std::int64_t oh = 0, ow = 0;
};

/// True when the active implementation has conv_tile_i16 (x86-64 only).
bool has_conv_tile();

/// Output channels and grid positions of one int32 register tile.
struct ConvTileShape {
  int channels = 0;
  int positions = 0;
};

/// The active tile: {4, 16} on AVX2, {6, 32} on AVX-512 VNNI, {0, 0}
/// without conv_tile_i16.
ConvTileShape conv_tile_shape();

/// Writes output channels [m0, m1) of `conv` at grid positions [q0, q1)
/// into conv.out (every valid output there and nothing else, so the caller
/// need not zero them and may hand disjoint ranges to different threads),
/// one register tile of conv_tile_shape() from q0 on at a time, and returns
/// the largest |value| written. q1 may run past the grid. Exact only under
/// the bound in the header comment, which the caller checks; requires
/// has_conv_tile().
std::uint64_t conv_tile_i16(const PaddedConv& conv, std::int64_t m0,
                            std::int64_t m1, std::int64_t q0,
                            std::int64_t q1);

// ---- Host EWOP kernels of src/runtime: epilogue, pooling, residual add ----
//
// Exact for every input, so each vector path is bit-identical to its scalar
// version below; set_enabled(false) routes all of them to the scalar ones.

/// max |x[j]| over j in [0, n) as a magnitude (2^63 for INT64_MIN; 0 when
/// n == 0).
std::uint64_t max_abs_acc(const acc_t* x, std::int64_t n);

/// out[j] = clamp_int16(acc[j] >> shift) (arithmetic shift, floor), then
/// max(out[j], 0) when `relu`. Requires |acc[j]| < 2^31 for every j: there
/// saturate48 is the identity and each accumulator is its low 32 bits, so
/// this equals nn::requantize_output's per-element formula.
void requantize_i32(const acc_t* acc, std::int16_t* out, std::int64_t n,
                    int shift, bool relu);

/// acc[j] = max(acc[j], row[j]) for j in [0, n): a vertical max step.
void max_into_i16(std::int16_t* acc, const std::int16_t* row, std::int64_t n);

/// acc[j] += row[j] for j in [0, n): a vertical sum step. Exact while the
/// caller keeps each sum within int32 (at most 2^16 rows).
void add_into_i32(std::int32_t* acc, const std::int16_t* row, std::int64_t n);

/// out[x] = max of in[x * stride + s] over s in [0, k), for x in [0, n): a
/// horizontal max pass. Reads in[0, (n - 1) * stride + k).
void window_max_i16(std::int16_t* out, const std::int16_t* in, std::int64_t n,
                    int k, int stride);

/// max of x[0, n) (-32768 when n == 0).
std::int16_t max_i16(const std::int16_t* x, std::int64_t n);

/// out[j] = relu(requantize(a[j] + b[j], 0)) for j in [0, n): the residual
/// add, a saturating int16 add then max with 0.
void add_relu_i16(const std::int16_t* a, const std::int16_t* b,
                  std::int16_t* out, std::int64_t n);

/// The scalar oracles the vector paths are pinned against.
acc_t dot_i16_scalar(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n);
void axpy_i16_scalar(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n);

/// Name of the active implementation: "avx512vnni" (AVX2 kernels with the
/// AVX-512 VNNI conv tile), "avx2", "neon" or "scalar".
const char* isa_name();

/// int16 lanes of the active dot/axpy kernels (16 on x86-64, 8 NEON, 1
/// scalar).
int lanes();

/// True when a vector implementation (not the scalar oracle) is active.
bool active();

/// Runtime kill switch: set_enabled(false) routes every kernel above through
/// its scalar version, and turns has_conv_tile() off, until re-enabled.
/// Enabling is a no-op when no vector implementation is compiled in or
/// supported by the CPU. Not thread-safe
/// against concurrent kernel calls; intended for test setup and tools.
void set_enabled(bool on);

}  // namespace ftdl::simd
