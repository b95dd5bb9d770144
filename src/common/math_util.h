// Small integer-math helpers shared across the framework.
#pragma once

#include <cstdint>
#include <vector>

namespace ftdl {

/// ceil(a / b) for positive integers.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Smallest multiple of `b` that is >= `a`.
constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

/// True iff `x` is a power of two (x > 0).
constexpr bool is_pow2(std::int64_t x) { return x > 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x >= 1).
std::int64_t next_pow2(std::int64_t x);

/// floor(log2(x)) for x >= 1.
int ilog2(std::int64_t x);

/// All positive divisors of n, ascending. n >= 1.
std::vector<std::int64_t> divisors(std::int64_t n);

/// Candidate tile sizes for a loop of trip count `n`: all divisors of `n`
/// plus all divisors of the next few padded sizes, deduplicated and capped to
/// values <= n. Padding candidates let the scheduler trade a few invalid
/// (padded) iterations for a much better fit, per Eqn. 11 of the paper.
/// Returns a reference into a thread-local memo: it stays valid, unchanged,
/// for the life of the calling thread.
const std::vector<std::int64_t>& tile_candidates(std::int64_t n);

/// Product of a vector of trip counts (empty product = 1).
std::int64_t product(const std::vector<std::int64_t>& v);

/// Greatest common divisor.
std::int64_t gcd64(std::int64_t a, std::int64_t b);

}  // namespace ftdl
