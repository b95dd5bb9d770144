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

/// |v| in uint64: std::abs on the most-negative acc_t is UB, and its
/// magnitude 2^63 does not fit in acc_t.
std::uint64_t magnitude(acc_t v) {
  return v < 0 ? 0ULL - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

std::uint64_t max_abs_acc_scalar(const acc_t* x, std::int64_t n) {
  std::uint64_t m = 0;
  for (std::int64_t j = 0; j < n; ++j) m = std::max(m, magnitude(x[j]));
  return m;
}

void requantize_i32_scalar(const acc_t* acc, std::int16_t* out,
                           std::int64_t n, int shift, bool apply_relu) {
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int16_t v = requantize(acc[j], shift);
    out[j] = apply_relu ? relu(v) : v;
  }
}

void max_into_i16_scalar(std::int16_t* acc, const std::int16_t* row,
                         std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) acc[j] = std::max(acc[j], row[j]);
}

void add_into_i32_scalar(std::int32_t* acc, const std::int16_t* row,
                         std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) acc[j] += row[j];
}

void window_max_i16_scalar(std::int16_t* out, const std::int16_t* in,
                           std::int64_t n, int k, int stride) {
  for (std::int64_t x = 0; x < n; ++x) {
    const std::int16_t* w = in + x * stride;
    std::int16_t m = w[0];
    for (int s = 1; s < k; ++s) m = std::max(m, w[s]);
    out[x] = m;
  }
}

std::int16_t max_i16_scalar(const std::int16_t* x, std::int64_t n) {
  std::int16_t m = -32768;
  for (std::int64_t j = 0; j < n; ++j) m = std::max(m, x[j]);
  return m;
}

void add_relu_i16_scalar(const std::int16_t* a, const std::int16_t* b,
                         std::int16_t* out, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j)
    out[j] = relu(requantize(acc_t{a[j]} + acc_t{b[j]}, 0));
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

__attribute__((target("avx2"))) std::uint64_t max_abs_acc_avx2(
    const acc_t* x, std::int64_t n) {
  if (n < 4) return max_abs_acc_scalar(x, n);
  // Signed max and min per lane; the magnitudes are taken once, at the end.
  __m256i mx = _mm256_set1_epi64x(x[0]);
  __m256i mn = mx;
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j));
    mx = _mm256_blendv_epi8(mx, v, _mm256_cmpgt_epi64(v, mx));
    mn = _mm256_blendv_epi8(mn, v, _mm256_cmpgt_epi64(mn, v));
  }
  alignas(32) acc_t hi[4], lo[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(hi), mx);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lo), mn);
  const std::uint64_t m =
      std::max(magnitude(*std::max_element(hi, hi + 4)),
               magnitude(*std::min_element(lo, lo + 4)));
  return std::max(m, max_abs_acc_scalar(x + j, n - j));
}

/// The low 32 bits of acc[0..4) in the low 128-bit lane, in order.
__attribute__((target("avx2"), always_inline)) inline __m256i low_dwords(
    const acc_t* acc) {
  return _mm256_permutevar8x32_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc)),
      _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
}

// Sixteen accumulators at a time: each lane's low 32 bits (its value under
// the |acc| < 2^31 precondition) gathered in order, shifted, packed to int16
// with saturation, then ReLU.
__attribute__((target("avx2"))) void requantize_i32_avx2(
    const acc_t* acc, std::int16_t* out, std::int64_t n, int shift,
    bool apply_relu) {
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m256i zero = _mm256_setzero_si256();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const acc_t* a = acc + j;
    __m256i v01 =
        _mm256_permute2x128_si256(low_dwords(a), low_dwords(a + 4), 0x20);
    __m256i v23 =
        _mm256_permute2x128_si256(low_dwords(a + 8), low_dwords(a + 12), 0x20);
    v01 = _mm256_sra_epi32(v01, count);  // counts past 31 fill with the sign
    v23 = _mm256_sra_epi32(v23, count);
    // packs works per 128-bit lane; 0xD8 puts the four quarters in order.
    __m256i p = _mm256_permute4x64_epi64(_mm256_packs_epi32(v01, v23), 0xD8);
    if (apply_relu) p = _mm256_max_epi16(p, zero);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j), p);
  }
  requantize_i32_scalar(acc + j, out + j, n - j, shift, apply_relu);
}

__attribute__((target("avx2"))) void max_into_i16_avx2(std::int16_t* acc,
                                                       const std::int16_t* row,
                                                       std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    auto* a = reinterpret_cast<__m256i*>(acc + j);
    _mm256_storeu_si256(
        a, _mm256_max_epi16(
               _mm256_loadu_si256(a),
               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j))));
  }
  max_into_i16_scalar(acc + j, row + j, n - j);
}

__attribute__((target("avx2"))) void add_relu_i16_avx2(
    const std::int16_t* a, const std::int16_t* b, std::int16_t* out,
    std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i sum = _mm256_adds_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm256_max_epi16(sum, _mm256_setzero_si256()));
  }
  add_relu_i16_scalar(a + j, b + j, out + j, n - j);
}

__attribute__((target("avx2"))) void add_into_i32_avx2(std::int32_t* acc,
                                                       const std::int16_t* row,
                                                       std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    auto* a = reinterpret_cast<__m256i*>(acc + j);
    const __m256i r = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j)));
    _mm256_storeu_si256(a, _mm256_add_epi32(_mm256_loadu_si256(a), r));
  }
  add_into_i32_scalar(acc + j, row + j, n - j);
}

// Stride 1 takes one shifted unaligned load per tap. Stride 2 loads 32
// inputs per tap pair and splits them into even and odd columns (sign-
// extended 32-bit halves packed back to int16); both halves leave the same
// per-128-bit-lane order, so one permute before the store fixes it.
__attribute__((target("avx2"))) void window_max_i16_avx2(
    std::int16_t* out, const std::int16_t* in, std::int64_t n, int k,
    int stride) {
  std::int64_t x = 0;
  if (stride == 1) {
    for (; x + 16 <= n; x += 16) {
      __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + x));
      for (int s = 1; s < k; ++s)
        m = _mm256_max_epi16(m, _mm256_loadu_si256(
                                    reinterpret_cast<const __m256i*>(in + x + s)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + x), m);
    }
  } else if (stride == 2) {
    // An odd k's last tap uses only the even half of its load, whose odd
    // half reads one column past the windows: ending the block one output
    // early keeps that column inside the input.
    const std::int64_t end = n - (k & 1);
    for (; x + 16 <= end; x += 16) {
      const std::int16_t* p = in + 2 * x;
      __m256i m = _mm256_set1_epi16(-32768);
      for (int s = 0; s < k; s += 2) {
        const __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s));
        const __m256i b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + s + 16));
        m = _mm256_max_epi16(
            m, _mm256_packs_epi32(
                   _mm256_srai_epi32(_mm256_slli_epi32(a, 16), 16),
                   _mm256_srai_epi32(_mm256_slli_epi32(b, 16), 16)));
        if (s + 1 < k)
          m = _mm256_max_epi16(m,
                               _mm256_packs_epi32(_mm256_srai_epi32(a, 16),
                                                  _mm256_srai_epi32(b, 16)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + x),
                          _mm256_permute4x64_epi64(m, 0xD8));
    }
  }
  window_max_i16_scalar(out + x, in + x * stride, n - x, k, stride);
}

__attribute__((target("avx2"))) std::int16_t max_i16_avx2(
    const std::int16_t* x, std::int64_t n) {
  __m256i m = _mm256_set1_epi16(-32768);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16)
    m = _mm256_max_epi16(
        m, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + j)));
  alignas(32) std::int16_t lane[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), m);
  return std::max(*std::max_element(lane, lane + 16),
                  max_i16_scalar(x + j, n - j));
}

// The int32 conv register tile: one body (simd_conv_tile.inc) over a
// vector-width trait, compiled once per width in that width's namespace.
// Both traits multiply two interleaved input rows by a (w_a, w_b) weight
// pair per channel and keep 32-bit sums; their members are inlined into the
// body of their own width.
#define FTDL_TILE_OP \
  __attribute__((target(FTDL_TILE_TARGET), always_inline)) static

#define FTDL_TILE_TARGET "avx2"
namespace avx2_tile {

/// 4 output channels x 16 grid positions in eight accumulators, each step
/// a madd_epi16 + add_epi32 per accumulator. unpack{lo,hi}_epi16 leave
/// positions 0-3 | 8-11 and 4-7 | 12-15 in a channel's two accumulators.
struct Tile {
  using Vec = __m256i;
  static constexpr int kPositions = 16, kChannels = 4;
  FTDL_TILE_OP Vec zero() { return _mm256_setzero_si256(); }
  FTDL_TILE_OP Vec load(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  FTDL_TILE_OP Vec splat(std::int32_t v) { return _mm256_set1_epi32(v); }
  FTDL_TILE_OP Vec unpacklo(Vec a, Vec b) {
    return _mm256_unpacklo_epi16(a, b);
  }
  FTDL_TILE_OP Vec unpackhi(Vec a, Vec b) {
    return _mm256_unpackhi_epi16(a, b);
  }
  FTDL_TILE_OP Vec dot_add(Vec acc, Vec x, Vec w) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(x, w));
  }
  FTDL_TILE_OP void store_in_order(Vec lo, Vec hi, std::int32_t* v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(v),
                       _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_store_si256(reinterpret_cast<__m256i*>(v + 8),
                       _mm256_permute2x128_si256(lo, hi, 0x31));
  }
};

#include "common/simd_conv_tile.inc"

}  // namespace avx2_tile
#undef FTDL_TILE_TARGET

#define FTDL_TILE_TARGET "avx512bw,avx512vnni"
namespace avx512_tile {

/// 6 output channels x 32 grid positions in twelve accumulators, each step
/// one vpdpwssd per accumulator (the two products of a 32-bit lane added to
/// it, wrapping like add_epi32). The unpacks leave positions
/// 0-3 | 8-11 | 16-19 | 24-27 and 4-7 | 12-15 | 20-23 | 28-31.
struct Tile {
  using Vec = __m512i;
  static constexpr int kPositions = 32, kChannels = 6;
  FTDL_TILE_OP Vec zero() { return _mm512_setzero_si512(); }
  FTDL_TILE_OP Vec load(const std::int16_t* p) { return _mm512_loadu_si512(p); }
  FTDL_TILE_OP Vec splat(std::int32_t v) { return _mm512_set1_epi32(v); }
  FTDL_TILE_OP Vec unpacklo(Vec a, Vec b) {
    return _mm512_unpacklo_epi16(a, b);
  }
  FTDL_TILE_OP Vec unpackhi(Vec a, Vec b) {
    return _mm512_unpackhi_epi16(a, b);
  }
  FTDL_TILE_OP Vec dot_add(Vec acc, Vec x, Vec w) {
    return _mm512_dpwssd_epi32(acc, x, w);
  }
  FTDL_TILE_OP void store_in_order(Vec lo, Vec hi, std::int32_t* v) {
    // 64-bit indices: 0-7 pick from lo, 8-15 from hi.
    const Vec first = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const Vec second = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    _mm512_store_si512(v, _mm512_permutex2var_epi64(lo, first, hi));
    _mm512_store_si512(v + 16, _mm512_permutex2var_epi64(lo, second, hi));
  }
};

#include "common/simd_conv_tile.inc"

}  // namespace avx512_tile
#undef FTDL_TILE_TARGET
#undef FTDL_TILE_OP

template <class T>
constexpr ConvTileShape shape_of() {
  return {T::kChannels, T::kPositions};
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
using ConvTileFn = std::uint64_t (*)(const PaddedConv&, std::int64_t,
                                     std::int64_t, std::int64_t,
                                     std::int64_t);
using MaxAbsAccFn = std::uint64_t (*)(const acc_t*, std::int64_t);
using RequantFn = void (*)(const acc_t*, std::int16_t*, std::int64_t, int,
                           bool);
using MaxIntoFn = void (*)(std::int16_t*, const std::int16_t*, std::int64_t);
using AddIntoFn = void (*)(std::int32_t*, const std::int16_t*, std::int64_t);
using WindowMaxFn = void (*)(std::int16_t*, const std::int16_t*, std::int64_t,
                             int, int);
using MaxFn = std::int16_t (*)(const std::int16_t*, std::int64_t);
using AddReluFn = void (*)(const std::int16_t*, const std::int16_t*,
                           std::int16_t*, std::int64_t);

struct Impl {
  DotFn dot = dot_i16_scalar;
  AxpyFn axpy = axpy_i16_scalar;
  const char* name = "scalar";
  int lanes = 1;
  MaxAbsFn max_abs = max_abs_i16_scalar;
  ConvTileFn conv_tile = nullptr;  ///< no scalar tile: callers use acc_t
  ConvTileShape tile{};
  MaxAbsAccFn max_abs_acc = max_abs_acc_scalar;
  RequantFn requantize = requantize_i32_scalar;
  MaxIntoFn max_into = max_into_i16_scalar;
  AddIntoFn add_into = add_into_i32_scalar;
  WindowMaxFn window_max = window_max_i16_scalar;
  MaxFn max = max_i16_scalar;
  AddReluFn add_relu = add_relu_i16_scalar;
};

constexpr Impl kScalar{};

/// Best vector implementation compiled in AND supported by this machine
/// (scalar when neither applies, or when the FTDL_SIMD environment variable
/// is "0"/"off"/"scalar"; "avx2" keeps the AVX2 conv tile on an AVX-512
/// host).
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
      v = Impl{dot_i16_avx2,
               axpy_i16_avx2,
               "avx2",
               16,
               max_abs_i16_avx2,
               avx2_tile::conv_tile<avx2_tile::Tile>,
               shape_of<avx2_tile::Tile>(),
               max_abs_acc_avx2,
               requantize_i32_avx2,
               max_into_i16_avx2,
               add_into_i32_avx2,
               window_max_i16_avx2,
               max_i16_avx2,
               add_relu_i16_avx2};
      const bool avx2_only = env != nullptr && std::strcmp(env, "avx2") == 0;
      if (!avx2_only && __builtin_cpu_supports("avx512bw") &&
          __builtin_cpu_supports("avx512vnni")) {
        v.name = "avx512vnni";
        v.conv_tile = avx512_tile::conv_tile<avx512_tile::Tile>;
        v.tile = shape_of<avx512_tile::Tile>();
      }
    }
#elif defined(FTDL_SIMD_NEON)
    v.dot = dot_i16_neon;
    v.axpy = axpy_i16_neon;
    v.name = "neon";
    v.lanes = 8;
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

ConvTileShape conv_tile_shape() { return active_impl().tile; }

std::uint64_t conv_tile_i16(const PaddedConv& conv, std::int64_t m0,
                            std::int64_t m1, std::int64_t q0,
                            std::int64_t q1) {
  return active_impl().conv_tile(conv, m0, m1, q0, q1);
}

std::uint64_t max_abs_acc(const acc_t* x, std::int64_t n) {
  return active_impl().max_abs_acc(x, n);
}

void requantize_i32(const acc_t* acc, std::int16_t* out, std::int64_t n,
                    int shift, bool relu) {
  active_impl().requantize(acc, out, n, shift, relu);
}

void max_into_i16(std::int16_t* acc, const std::int16_t* row, std::int64_t n) {
  active_impl().max_into(acc, row, n);
}

void add_into_i32(std::int32_t* acc, const std::int16_t* row, std::int64_t n) {
  active_impl().add_into(acc, row, n);
}

void window_max_i16(std::int16_t* out, const std::int16_t* in, std::int64_t n,
                    int k, int stride) {
  active_impl().window_max(out, in, n, k, stride);
}

std::int16_t max_i16(const std::int16_t* x, std::int64_t n) {
  return active_impl().max(x, n);
}

void add_relu_i16(const std::int16_t* a, const std::int16_t* b,
                  std::int16_t* out, std::int64_t n) {
  active_impl().add_relu(a, b, out, n);
}

const char* isa_name() { return active_impl().name; }

int lanes() { return active_impl().lanes; }

bool active() { return active_impl().lanes > 1; }

void set_enabled(bool on) { g_active = on ? &vector_impl() : &kScalar; }

}  // namespace ftdl::simd
