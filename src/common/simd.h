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
// strided conv, the copy's phase planes) accumulates 4 output channels x 16
// output positions in int32 lanes through _mm256_madd_epi16 pairs and widens
// to acc_t once per tile. madd and int32 sums are exact only while every
// partial sum fits in int32, so the caller must check the bound
// K * max|w| * max|x| <= 2^31 - 1 (K = reduction length rounded up to
// pairs) before calling it — max_abs_i16 is the scan that bound needs. The
// (-32768)^2 corner breaks the bound and takes the acc_t path instead.
//
// Dispatch: the implementation is chosen once at first use —
//   * x86-64: AVX2 via per-function target attributes when the running CPU
//     reports it (__builtin_cpu_supports), so no special build flags are
//     needed and the same binary runs on non-AVX2 hosts;
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
/// (r, s); grid columns f >= ow are computed and discarded. The buffer must
/// extend at least kw + 16 elements past the last plane: grid tail tiles
/// and the last row's discarded columns read there.
struct PaddedConv {
  const std::int16_t* xp = nullptr;  ///< in_c padded (or phase) planes
  const std::int16_t* w = nullptr;   ///< weights, [M, N, R, S], read in place
  acc_t* out = nullptr;              ///< output, [M, oh, ow]
  std::int64_t in_c = 0, kh = 0, kw = 0;
  std::int64_t plane = 0, pitch = 0;  ///< padded plane size and row pitch
  std::int64_t oh = 0, ow = 0;
};

/// True when the active implementation has conv_tile_i16 (AVX2 only).
bool has_conv_tile();

/// Adds output channels [m0, m1) of `conv` into conv.out, one int32
/// register tile of 4 channels x 16 grid positions at a time. Exact only
/// under the bound in the header comment, which the caller checks; requires
/// has_conv_tile().
void conv_tile_i16(const PaddedConv& conv, std::int64_t m0, std::int64_t m1);

/// The scalar oracles the vector paths are pinned against.
acc_t dot_i16_scalar(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n);
void axpy_i16_scalar(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n);

/// Name of the active implementation: "avx2", "neon" or "scalar".
const char* isa_name();

/// int16 lanes of the active implementation (16 AVX2, 8 NEON, 1 scalar).
int lanes();

/// True when a vector implementation (not the scalar oracle) is active.
bool active();

/// Runtime kill switch: set_enabled(false) routes dot_i16/axpy_i16 through
/// the scalar oracles, and turns has_conv_tile() off, until re-enabled.
/// Enabling is a no-op when no vector implementation is compiled in or
/// supported by the CPU. Not thread-safe
/// against concurrent kernel calls; intended for test setup and tools.
void set_enabled(bool on);

}  // namespace ftdl::simd
