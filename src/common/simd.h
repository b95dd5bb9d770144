// ftdl::simd — portable vectorized int16 MACC kernels with runtime dispatch.
//
// The fast simulation engine's sweeps reduce to two inner-loop shapes over
// contiguous int16 data:
//
//   dot:  acc      += sum_j w[j] * in[j]          (MatMul P = 1 reduction)
//   axpy: out[j]   += w * in[j]   for every j     (broadcast-weight row)
//
// Both are EXACT integer kernels: every int16*int16 product is formed as a
// full 32-bit value and accumulated in 64-bit (acc_t) lanes, so the SIMD
// paths are bit-identical to the scalar oracles for *every* input —
// including the (-32768)^2 corner that overflows pairwise-multiply-add
// instructions like _mm256_madd_epi16 (which is why that instruction is
// deliberately not used). Integer addition is associative, so lane-wise
// reassociation of the dot reduction cannot change the result.
//
// Dispatch: the implementation is chosen once at first use —
//   * x86-64: AVX2 via per-function target attributes when the running CPU
//     reports it (__builtin_cpu_supports), so no special build flags are
//     needed and the same binary runs on non-AVX2 hosts;
//   * aarch64: NEON (baseline, compile-time);
//   * otherwise, or with -DFTDL_SIMD=OFF, or FTDL_SIMD=0 in the
//     environment: the scalar oracles.
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
/// the scalar oracles until re-enabled. Enabling is a no-op when no vector
/// implementation is compiled in or supported by the CPU. Not thread-safe
/// against concurrent kernel calls; intended for test setup and tools.
void set_enabled(bool on);

}  // namespace ftdl::simd
