#include "common/simd.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(FTDL_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTDL_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if defined(FTDL_SIMD_ENABLED) && defined(__aarch64__)
#define FTDL_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ftdl::simd {

acc_t dot_i16_scalar(const std::int16_t* w, const std::int16_t* in,
                     std::int64_t n) {
  acc_t acc = 0;
  for (std::int64_t j = 0; j < n; ++j)
    acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
  return acc;
}

void axpy_i16_scalar(acc_t* out, const std::int16_t* in, std::int16_t w,
                     std::int64_t n) {
  const acc_t wv = w;
  for (std::int64_t j = 0; j < n; ++j) out[j] += wv * static_cast<acc_t>(in[j]);
}

namespace {

std::int32_t max_abs_i16_scalar(const std::int16_t* x, std::int64_t n) {
  std::int32_t m = 0;
  for (std::int64_t j = 0; j < n; ++j)
    m = std::max(m, std::abs(static_cast<std::int32_t>(x[j])));
  return m;
}

#if defined(FTDL_SIMD_AVX2)

// Exact 32-bit products of two int16 vectors via mullo/mulhi + unpack.
// unpack*_epi16 interleaves within each 128-bit lane, so the int32 products
// land as: plo = p[0..3] | p[8..11], phi = p[4..7] | p[12..15]. The dot
// reduction is order-free; the axpy store indexes the four quarters back to
// their positions explicitly.

__attribute__((target("avx2"))) acc_t dot_i16_avx2(const std::int16_t* w,
                                                   const std::int16_t* in,
                                                   std::int64_t n) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j));
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j));
    const __m256i lo = _mm256_mullo_epi16(vw, vi);
    const __m256i hi = _mm256_mulhi_epi16(vw, vi);
    const __m256i plo = _mm256_unpacklo_epi16(lo, hi);
    const __m256i phi = _mm256_unpackhi_epi16(lo, hi);
    acc0 = _mm256_add_epi64(
        acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(plo)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(plo, 1)));
    acc0 = _mm256_add_epi64(
        acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(phi)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(phi, 1)));
  }
  if (j + 8 <= n) {
    // Half-width step for the [8, 16) tail: same exact-product recipe on
    // one 128-bit lane.
    const __m128i vw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + j));
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j));
    const __m128i lo = _mm_mullo_epi16(vw, vi);
    const __m128i hi = _mm_mulhi_epi16(vw, vi);
    acc0 = _mm256_add_epi64(acc0,
                            _mm256_cvtepi32_epi64(_mm_unpacklo_epi16(lo, hi)));
    acc1 = _mm256_add_epi64(acc1,
                            _mm256_cvtepi32_epi64(_mm_unpackhi_epi16(lo, hi)));
    j += 8;
  }
  acc0 = _mm256_add_epi64(acc0, acc1);
  alignas(32) std::int64_t lane[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), acc0);
  acc_t acc = lane[0] + lane[1] + lane[2] + lane[3];
  for (; j < n; ++j)
    acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
  return acc;
}

__attribute__((target("avx2"))) void axpy_i16_avx2(acc_t* out,
                                                   const std::int16_t* in,
                                                   std::int16_t w,
                                                   std::int64_t n) {
  const __m256i vw = _mm256_set1_epi16(w);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + j));
    const __m256i lo = _mm256_mullo_epi16(vi, vw);
    const __m256i hi = _mm256_mulhi_epi16(vi, vw);
    const __m256i plo = _mm256_unpacklo_epi16(lo, hi);
    const __m256i phi = _mm256_unpackhi_epi16(lo, hi);
    __m256i o0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    o0 = _mm256_add_epi64(o0,
                          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(plo)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), o0);
    __m256i o1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 4));
    o1 = _mm256_add_epi64(o1,
                          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(phi)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 4), o1);
    __m256i o2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 8));
    o2 = _mm256_add_epi64(
        o2, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(plo, 1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 8), o2);
    __m256i o3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 12));
    o3 = _mm256_add_epi64(
        o3, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(phi, 1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 12), o3);
  }
  if (j + 8 <= n) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j));
    const __m128i vw8 = _mm256_castsi256_si128(vw);
    const __m128i lo = _mm_mullo_epi16(vi, vw8);
    const __m128i hi = _mm_mulhi_epi16(vi, vw8);
    __m256i o0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j));
    o0 = _mm256_add_epi64(o0,
                          _mm256_cvtepi32_epi64(_mm_unpacklo_epi16(lo, hi)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), o0);
    __m256i o1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + j + 4));
    o1 = _mm256_add_epi64(o1,
                          _mm256_cvtepi32_epi64(_mm_unpackhi_epi16(lo, hi)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j + 4), o1);
    j += 8;
  }
  const acc_t wv = w;
  for (; j < n; ++j) out[j] += wv * static_cast<acc_t>(in[j]);
}


// |x| in unsigned 16-bit lanes: abs_epi16 maps -32768 to 0x8000, which is
// 32768 read as unsigned, so max_epu16 orders every magnitude correctly.
__attribute__((target("avx2"))) std::int32_t max_abs_i16_avx2(
    const std::int16_t* x, std::int64_t n) {
  __m256i mx = _mm256_setzero_si256();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
    mx = _mm256_max_epu16(mx, _mm256_abs_epi16(v));
  }
  alignas(32) std::uint16_t lane[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), mx);
  std::int32_t m = *std::max_element(lane, lane + 16);
  return std::max(m, max_abs_i16_scalar(x + j, n - j));
}

/// The int32 register tile: 4 output channels x 16 grid positions in eight
/// accumulators, acc[2i] holding positions 0-3 | 8-11 of channel i and
/// acc[2i + 1] positions 4-7 | 12-15 (the lane order unpack{lo,hi}_epi16
/// leaves). Each step interleaves two input rows a, b and multiplies them by
/// a (w_a, w_b) weight pair per channel with madd_epi16.
struct Tile {
  __m256i acc[8];
};

__attribute__((target("avx2"), always_inline)) inline __m256i load_row(
    const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"), always_inline)) inline void tile_step(
    Tile& t, __m256i a, __m256i b, const __m256i (&wp)[4]) {
  const __m256i lo = _mm256_unpacklo_epi16(a, b);
  const __m256i hi = _mm256_unpackhi_epi16(a, b);
  for (int i = 0; i < 4; ++i) {
    t.acc[2 * i] =
        _mm256_add_epi32(t.acc[2 * i], _mm256_madd_epi16(lo, wp[i]));
    t.acc[2 * i + 1] =
        _mm256_add_epi32(t.acc[2 * i + 1], _mm256_madd_epi16(hi, wp[i]));
  }
}

/// A weight pair (w[0], w[1]) read in place as one 32-bit word, broadcast.
__attribute__((target("avx2"), always_inline)) inline __m256i pair_at(
    const std::int16_t* w) {
  std::int32_t v = 0;
  std::memcpy(&v, w, sizeof v);
  return _mm256_set1_epi32(v);
}

/// The pair (w[0], 0): an odd leftover tap or channel.
__attribute__((target("avx2"), always_inline)) inline __m256i pair_zero(
    const std::int16_t* w) {
  return _mm256_set1_epi32(static_cast<std::uint16_t>(*w));
}

__attribute__((target("avx2"))) void conv_tile_avx2(const PaddedConv& c,
                                                    std::int64_t m0,
                                                    std::int64_t m1) {
  const std::int64_t taps = c.kh * c.kw, pitch = c.pitch;
  const std::int64_t w_stride = c.in_c * taps;  // one output channel
  const std::int64_t out_plane = c.oh * c.ow;
  // Grid positions up to the last valid output; the tail tile reads past.
  const std::int64_t grid = (c.oh - 1) * pitch + c.ow;
  const __m256i zero = _mm256_setzero_si256();
  for (std::int64_t m = m0; m < m1; m += 4) {
    // A partial channel tile repeats its last channel; the copies are
    // computed and not stored.
    const int live = static_cast<int>(std::min<std::int64_t>(4, m1 - m));
    const std::int16_t* wm[4];
    for (int i = 0; i < 4; ++i)
      wm[i] = c.w + (m + std::min(i, live - 1)) * w_stride;
    std::int64_t e = 0, f = 0;  // grid coordinates of q
    for (std::int64_t q = 0; q < grid; q += 16) {
      Tile t;
      for (__m256i& a : t.acc) a = zero;
      const std::int16_t* x0 = c.xp + q;
      __m256i wp[4];
      if (taps == 1) {
        // 1x1: pair two adjacent input channels.
        std::int64_t n = 0;
        for (; n + 2 <= c.in_c; n += 2) {
          const std::int16_t* x = x0 + n * c.plane;
          for (int i = 0; i < 4; ++i) wp[i] = pair_at(wm[i] + n);
          tile_step(t, load_row(x), load_row(x + c.plane), wp);
        }
        if (n < c.in_c) {
          for (int i = 0; i < 4; ++i) wp[i] = pair_zero(wm[i] + n);
          tile_step(t, load_row(x0 + n * c.plane), zero, wp);
        }
      } else {
        // Pair two adjacent taps (r, s) of one input channel; the tap offset
        // walk is shared by every channel.
        std::int64_t r = 0, s = 0;
        auto next_offset = [&] {
          const std::int64_t off = r * pitch + s;
          if (++s == c.kw) {
            s = 0;
            ++r;
          }
          return off;
        };
        std::int64_t tap = 0;
        for (; tap + 2 <= taps; tap += 2) {
          const std::int64_t oa = next_offset();
          const std::int64_t ob = next_offset();
          for (std::int64_t n = 0; n < c.in_c; ++n) {
            const std::int16_t* x = x0 + n * c.plane;
            for (int i = 0; i < 4; ++i) wp[i] = pair_at(wm[i] + n * taps + tap);
            tile_step(t, load_row(x + oa), load_row(x + ob), wp);
          }
        }
        if (tap < taps) {
          const std::int64_t oa = next_offset();
          for (std::int64_t n = 0; n < c.in_c; ++n) {
            for (int i = 0; i < 4; ++i)
              wp[i] = pair_zero(wm[i] + n * taps + tap);
            tile_step(t, load_row(x0 + n * c.plane + oa), zero, wp);
          }
        }
      }
      // Widen once per tile: un-permute the 128-bit lanes to positions
      // 0-7 and 8-15, then add only the valid columns, walking (e, f) along
      // the grid rows.
      for (int i = 0; i < live; ++i) {
        alignas(32) std::int32_t v[16];
        _mm256_store_si256(reinterpret_cast<__m256i*>(v),
                           _mm256_permute2x128_si256(t.acc[2 * i],
                                                     t.acc[2 * i + 1], 0x20));
        _mm256_store_si256(reinterpret_cast<__m256i*>(v + 8),
                           _mm256_permute2x128_si256(t.acc[2 * i],
                                                     t.acc[2 * i + 1], 0x31));
        acc_t* o = c.out + (m + i) * out_plane;
        std::int64_t j = 0, ee = e, ff = f;
        while (j < 16 && ee < c.oh) {
          const std::int64_t run = std::min(16 - j, pitch - ff);
          const std::int64_t valid = std::min(run, c.ow - ff);
          acc_t* row = o + ee * c.ow + ff;
          for (std::int64_t k = 0; k < valid; ++k) row[k] += v[j + k];
          j += run;
          ff += run;
          if (ff == pitch) {
            ff = 0;
            ++ee;
          }
        }
      }
      for (f += 16; f >= pitch; f -= pitch) ++e;
    }
  }
}

#endif  // FTDL_SIMD_AVX2

#if defined(FTDL_SIMD_NEON)

acc_t dot_i16_neon(const std::int16_t* w, const std::int16_t* in,
                   std::int64_t n) {
  int64x2_t acc2 = vdupq_n_s64(0);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const int16x8_t vw = vld1q_s16(w + j);
    const int16x8_t vi = vld1q_s16(in + j);
    const int32x4_t p0 = vmull_s16(vget_low_s16(vw), vget_low_s16(vi));
    const int32x4_t p1 = vmull_s16(vget_high_s16(vw), vget_high_s16(vi));
    acc2 = vaddq_s64(acc2, vpaddlq_s32(p0));
    acc2 = vaddq_s64(acc2, vpaddlq_s32(p1));
  }
  acc_t acc = vgetq_lane_s64(acc2, 0) + vgetq_lane_s64(acc2, 1);
  for (; j < n; ++j)
    acc += static_cast<acc_t>(w[j]) * static_cast<acc_t>(in[j]);
  return acc;
}

void axpy_i16_neon(acc_t* out, const std::int16_t* in, std::int16_t w,
                   std::int64_t n) {
  const int16x4_t vw = vdup_n_s16(w);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const int16x8_t vi = vld1q_s16(in + j);
    const int32x4_t p0 = vmull_s16(vget_low_s16(vi), vw);
    const int32x4_t p1 = vmull_s16(vget_high_s16(vi), vw);
    int64x2_t o0 = vld1q_s64(out + j);
    o0 = vaddw_s32(o0, vget_low_s32(p0));
    vst1q_s64(out + j, o0);
    int64x2_t o1 = vld1q_s64(out + j + 2);
    o1 = vaddw_s32(o1, vget_high_s32(p0));
    vst1q_s64(out + j + 2, o1);
    int64x2_t o2 = vld1q_s64(out + j + 4);
    o2 = vaddw_s32(o2, vget_low_s32(p1));
    vst1q_s64(out + j + 4, o2);
    int64x2_t o3 = vld1q_s64(out + j + 6);
    o3 = vaddw_s32(o3, vget_high_s32(p1));
    vst1q_s64(out + j + 6, o3);
  }
  const acc_t wv = w;
  for (; j < n; ++j) out[j] += wv * static_cast<acc_t>(in[j]);
}

#endif  // FTDL_SIMD_NEON

using DotFn = acc_t (*)(const std::int16_t*, const std::int16_t*,
                        std::int64_t);
using AxpyFn = void (*)(acc_t*, const std::int16_t*, std::int16_t,
                        std::int64_t);
using MaxAbsFn = std::int32_t (*)(const std::int16_t*, std::int64_t);
using ConvTileFn = void (*)(const PaddedConv&, std::int64_t, std::int64_t);

struct Impl {
  DotFn dot = dot_i16_scalar;
  AxpyFn axpy = axpy_i16_scalar;
  const char* name = "scalar";
  int lanes = 1;
  MaxAbsFn max_abs = max_abs_i16_scalar;
  ConvTileFn conv_tile = nullptr;  ///< no scalar tile: callers use acc_t
};

constexpr Impl kScalar{};

/// Best vector implementation compiled in AND supported by this machine
/// (scalar when neither applies, or when the FTDL_SIMD environment variable
/// is "0"/"off"/"scalar").
const Impl& vector_impl() {
  static const Impl impl = [] {
    Impl v = kScalar;
    const char* env = std::getenv("FTDL_SIMD");
    if (env != nullptr && (std::strcmp(env, "0") == 0 ||
                           std::strcmp(env, "off") == 0 ||
                           std::strcmp(env, "scalar") == 0)) {
      return v;
    }
#if defined(FTDL_SIMD_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v = Impl{dot_i16_avx2,     axpy_i16_avx2,  "avx2", 16,
               max_abs_i16_avx2, conv_tile_avx2};
    }
#elif defined(FTDL_SIMD_NEON)
    v = Impl{dot_i16_neon, axpy_i16_neon, "neon", 8, max_abs_i16_scalar,
             nullptr};
#endif
    return v;
  }();
  return impl;
}

/// Active implementation; flipped between vector_impl() and kScalar by
/// set_enabled(). Plain pointer: readers race-free because set_enabled is
/// documented as setup-time only.
const Impl* g_active = nullptr;

const Impl& active_impl() {
  if (g_active == nullptr) g_active = &vector_impl();
  return *g_active;
}

}  // namespace

namespace detail {

acc_t dot_i16_dispatch(const std::int16_t* w, const std::int16_t* in,
                       std::int64_t n) {
  return active_impl().dot(w, in, n);
}

void axpy_i16_dispatch(acc_t* out, const std::int16_t* in, std::int16_t w,
                       std::int64_t n) {
  active_impl().axpy(out, in, w, n);
}

}  // namespace detail

std::int32_t max_abs_i16(const std::int16_t* x, std::int64_t n) {
  return active_impl().max_abs(x, n);
}

bool has_conv_tile() { return active_impl().conv_tile != nullptr; }

void conv_tile_i16(const PaddedConv& conv, std::int64_t m0, std::int64_t m1) {
  active_impl().conv_tile(conv, m0, m1);
}

const char* isa_name() { return active_impl().name; }

int lanes() { return active_impl().lanes; }

bool active() { return active_impl().lanes > 1; }

void set_enabled(bool on) { g_active = on ? &vector_impl() : &kScalar; }

}  // namespace ftdl::simd
