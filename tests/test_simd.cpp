// SIMD kernel unit tests: the vector dot/axpy paths must be bit-identical
// to the scalar oracles for every width and every int16 value — including
// the (-32768)*(-32768) corner that overflows pairwise multiply-add
// instructions. Widths sweep 0..2*lanes+3 so every tail length of the
// widest implementation (16 int16 lanes on AVX2) is hit on both sides of
// the kInlineCutoff inline/dispatch boundary.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"

namespace ftdl::simd {
namespace {

std::vector<std::int16_t> random_i16(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-32768, 32767);
  std::vector<std::int16_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int16_t>(dist(rng));
  return v;
}

TEST(Simd, IsaReportIsConsistent) {
  const std::string isa = isa_name();
  EXPECT_TRUE(isa == "avx512vnni" || isa == "avx2" || isa == "neon" ||
              isa == "scalar")
      << isa;
  if (active()) {
    EXPECT_NE(isa, "scalar");
    EXPECT_GT(lanes(), 1);
  } else {
    EXPECT_EQ(isa, "scalar");
    EXPECT_EQ(lanes(), 1);
  }
  // The name says which conv tile runs.
  const ConvTileShape tile = conv_tile_shape();
  EXPECT_EQ(has_conv_tile(), tile.channels > 0) << isa;
  if (isa == "avx512vnni") {
    EXPECT_EQ(tile.channels, 6);
    EXPECT_EQ(tile.positions, 32);
  } else if (isa == "avx2") {
    EXPECT_EQ(tile.channels, 4);
    EXPECT_EQ(tile.positions, 16);
  } else {
    EXPECT_FALSE(has_conv_tile()) << isa;
  }
}

TEST(Simd, DotMatchesScalarAcrossWidths) {
  const std::int64_t max_n = 2 * std::int64_t{16} + 3;  // past any tail
  for (std::int64_t n = 0; n <= max_n; ++n) {
    const auto w = random_i16(n, 11 + static_cast<std::uint64_t>(n));
    const auto in = random_i16(n, 97 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(dot_i16(w.data(), in.data(), n),
              dot_i16_scalar(w.data(), in.data(), n))
        << "width " << n;
  }
}

TEST(Simd, AxpyMatchesScalarAcrossWidths) {
  const std::int64_t max_n = 2 * std::int64_t{16} + 3;
  for (std::int64_t n = 0; n <= max_n; ++n) {
    const auto in = random_i16(n, 3 + static_cast<std::uint64_t>(n));
    for (std::int16_t w : {std::int16_t{-32768}, std::int16_t{-1},
                           std::int16_t{0}, std::int16_t{7},
                           std::int16_t{32767}}) {
      std::vector<acc_t> fast(static_cast<std::size_t>(n), 5);
      std::vector<acc_t> ref(static_cast<std::size_t>(n), 5);
      axpy_i16(fast.data(), in.data(), w, n);
      axpy_i16_scalar(ref.data(), in.data(), w, n);
      EXPECT_EQ(fast, ref) << "width " << n << " w " << w;
    }
  }
}

TEST(Simd, ExtremeValuesAreExact) {
  // All-(-32768) vectors: each product is 2^30; a 33-wide dot needs more
  // than 35 bits, and pairwise-madd-style instructions would saturate.
  const std::int64_t n = 33;
  std::vector<std::int16_t> lo(static_cast<std::size_t>(n), -32768);
  std::vector<std::int16_t> hi(static_cast<std::size_t>(n), 32767);
  EXPECT_EQ(dot_i16(lo.data(), lo.data(), n),
            n * (acc_t{1} << 30));
  EXPECT_EQ(dot_i16(lo.data(), hi.data(), n),
            n * (acc_t{-32768} * acc_t{32767}));
  EXPECT_EQ(dot_i16(hi.data(), hi.data(), n),
            n * (acc_t{32767} * acc_t{32767}));

  std::vector<acc_t> fast(static_cast<std::size_t>(n), 0);
  std::vector<acc_t> ref(static_cast<std::size_t>(n), 0);
  axpy_i16(fast.data(), lo.data(), std::int16_t{-32768}, n);
  axpy_i16_scalar(ref.data(), lo.data(), std::int16_t{-32768}, n);
  EXPECT_EQ(fast, ref);
  EXPECT_EQ(fast[0], acc_t{1} << 30);
}

TEST(Simd, SetEnabledForcesScalarAndRestores) {
  const bool was_active = active();
  set_enabled(false);
  EXPECT_FALSE(active());
  EXPECT_STREQ(isa_name(), "scalar");
  EXPECT_EQ(lanes(), 1);

  // Disabled dispatch still computes the oracle result.
  const auto w = random_i16(40, 123);
  const auto in = random_i16(40, 321);
  EXPECT_EQ(dot_i16(w.data(), in.data(), 40),
            dot_i16_scalar(w.data(), in.data(), 40));

  set_enabled(true);
  // Re-enabling restores the vector path only where one exists.
  EXPECT_EQ(active(), was_active);
  EXPECT_EQ(dot_i16(w.data(), in.data(), 40),
            dot_i16_scalar(w.data(), in.data(), 40));
}

TEST(Simd, LongRandomSweepsMatch) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::int64_t n = 64 + static_cast<std::int64_t>(seed) * 37;
    const auto w = random_i16(n, seed * 2 + 1);
    const auto in = random_i16(n, seed * 2 + 2);
    EXPECT_EQ(dot_i16(w.data(), in.data(), n),
              dot_i16_scalar(w.data(), in.data(), n))
        << "seed " << seed;

    std::vector<acc_t> fast(static_cast<std::size_t>(n), -7);
    std::vector<acc_t> ref(static_cast<std::size_t>(n), -7);
    axpy_i16(fast.data(), in.data(), w[0], n);
    axpy_i16_scalar(ref.data(), in.data(), w[0], n);
    EXPECT_EQ(fast, ref) << "seed " << seed;
  }
}

// ---- epilogue and pooling primitives --------------------------------------
//
// Each runs with the vector dispatch and with set_enabled(false), and both
// must equal a plain loop. Buffers are sized exactly, so the sanitizer
// builds catch any read past what a primitive documents.

/// Runs body() with SIMD on, then off; restores it.
template <typename Body>
void on_and_off(const Body& body) {
  for (const bool vector : {true, false}) {
    set_enabled(vector);
    SCOPED_TRACE(vector ? "simd on" : "simd off");
    body();
  }
  set_enabled(true);
}

std::uint64_t magnitude(acc_t v) {
  return v < 0 ? 0ULL - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

TEST(Simd, MaxAbsAccIsExactAcrossWidths) {
  std::mt19937_64 rng(5);
  const acc_t extremes[] = {std::numeric_limits<acc_t>::min(),
                            std::numeric_limits<acc_t>::max(),
                            -(acc_t{1} << 31), acc_t{1} << 47, -1, 0};
  for (std::int64_t n = 0; n <= 35; ++n)
    for (const acc_t pin : extremes) {
      std::vector<acc_t> x(static_cast<std::size_t>(n));
      for (acc_t& v : x) v = static_cast<acc_t>(rng() >> 20) - (acc_t{1} << 43);
      if (n > 0) x[static_cast<std::size_t>(rng() % n)] = pin;
      std::uint64_t want = 0;
      for (const acc_t v : x) want = std::max(want, magnitude(v));
      on_and_off([&] { EXPECT_EQ(max_abs_acc(x.data(), n), want) << n; });
    }
}

TEST(Simd, RequantizeI32MatchesTheFormula) {
  std::mt19937_64 rng(6);
  std::uniform_int_distribution<acc_t> dist(-((acc_t{1} << 31) - 1),
                                            (acc_t{1} << 31) - 1);
  for (std::int64_t n = 0; n <= 35; ++n) {
    std::vector<acc_t> acc(static_cast<std::size_t>(n));
    for (acc_t& v : acc) v = dist(rng);
    if (n > 1) {
      acc[0] = (acc_t{1} << 31) - 1;
      acc[1] = -((acc_t{1} << 31) - 1);
    }
    for (const int shift : {0, 1, 9, 16, 31, 32, 63})
      for (const bool apply_relu : {false, true}) {
        std::vector<std::int16_t> want(static_cast<std::size_t>(n));
        for (std::size_t j = 0; j < acc.size(); ++j) {
          const std::int16_t v = requantize(acc[j], shift);
          want[j] = apply_relu ? relu(v) : v;
        }
        on_and_off([&] {
          std::vector<std::int16_t> got(static_cast<std::size_t>(n));
          requantize_i32(acc.data(), got.data(), n, shift, apply_relu);
          EXPECT_EQ(got, want) << "n " << n << " shift " << shift;
        });
      }
  }
}

TEST(Simd, VerticalPoolingStepsMatchLoops) {
  for (std::int64_t n = 0; n <= 35; ++n) {
    const auto a = random_i16(n, 40 + static_cast<std::uint64_t>(n));
    const auto row = random_i16(n, 80 + static_cast<std::uint64_t>(n));
    std::vector<std::int16_t> want_max = a;
    std::vector<std::int32_t> want_sum(a.begin(), a.end());
    for (std::size_t j = 0; j < row.size(); ++j) {
      want_max[j] = std::max(want_max[j], row[j]);
      want_sum[j] += row[j];
    }
    on_and_off([&] {
      std::vector<std::int16_t> got_max = a;
      max_into_i16(got_max.data(), row.data(), n);
      EXPECT_EQ(got_max, want_max) << n;
      std::vector<std::int32_t> got_sum(a.begin(), a.end());
      add_into_i32(got_sum.data(), row.data(), n);
      EXPECT_EQ(got_sum, want_sum) << n;
      std::int16_t want_run = -32768;
      for (const std::int16_t v : row) want_run = std::max(want_run, v);
      EXPECT_EQ(max_i16(row.data(), n), want_run) << n;
    });
  }
}

TEST(Simd, WindowMaxMatchesLoopAtStridesOneToThree) {
  for (std::int64_t n = 1; n <= 40; ++n)
    for (int k = 1; k <= 5; ++k)
      for (int stride = 1; stride <= 3; ++stride) {
        const std::int64_t len = (n - 1) * stride + k;  // exactly what it reads
        const auto in = random_i16(len, static_cast<std::uint64_t>(
                                            n * 100 + k * 10 + stride));
        std::vector<std::int16_t> want(static_cast<std::size_t>(n));
        for (std::int64_t x = 0; x < n; ++x) {
          std::int16_t m = -32768;
          for (int s = 0; s < k; ++s)
            m = std::max(m, in[static_cast<std::size_t>(x * stride + s)]);
          want[static_cast<std::size_t>(x)] = m;
        }
        on_and_off([&] {
          std::vector<std::int16_t> got(static_cast<std::size_t>(n));
          window_max_i16(got.data(), in.data(), n, k, stride);
          EXPECT_EQ(got, want) << "n " << n << " k " << k << " s " << stride;
        });
      }
}

TEST(Simd, AddReluI16MatchesLoop) {
  // Every tail length of the widest vector path, on random values and on
  // the saturation corners: sums past +-32767, -32768 + -32768, and the
  // ones that ReLU zeroes.
  const std::int16_t corners[] = {-32768, -32767, -1, 0, 1, 32767};
  const std::int64_t widest = 2 * lanes() + 1;
  for (std::int64_t n = 0; n <= widest; ++n) {
    std::vector<std::int16_t> ca(static_cast<std::size_t>(n));
    std::vector<std::int16_t> cb(static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j) {  // all 36 pairs, shifted by n
      ca[static_cast<std::size_t>(j)] = corners[(j + n) % 6];
      cb[static_cast<std::size_t>(j)] = corners[((j + n) / 6) % 6];
    }
    const std::pair<std::vector<std::int16_t>, std::vector<std::int16_t>>
        inputs[] = {
            {random_i16(n, 120 + static_cast<std::uint64_t>(n)),
             random_i16(n, 160 + static_cast<std::uint64_t>(n))},
            {ca, cb}};
    for (const auto& [a, b] : inputs) {
      std::vector<std::int16_t> want(static_cast<std::size_t>(n));
      for (std::size_t j = 0; j < want.size(); ++j)
        want[j] = static_cast<std::int16_t>(
            std::clamp(int{a[j]} + int{b[j]}, 0, 32767));
      on_and_off([&] {
        std::vector<std::int16_t> got(static_cast<std::size_t>(n));
        add_relu_i16(a.data(), b.data(), got.data(), n);
        EXPECT_EQ(got, want) << n;
      });
    }
  }
}

}  // namespace
}  // namespace ftdl::simd
