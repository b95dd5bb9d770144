#include "common/math_util.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.h"

namespace ftdl {

std::int64_t next_pow2(std::int64_t x) {
  FTDL_ASSERT(x >= 1);
  std::int64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

int ilog2(std::int64_t x) {
  FTDL_ASSERT(x >= 1);
  int r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

std::vector<std::int64_t> divisors(std::int64_t n) {
  FTDL_ASSERT(n >= 1);
  std::vector<std::int64_t> lo, hi;
  for (std::int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      lo.push_back(d);
      if (d != n / d) hi.push_back(n / d);
    }
  }
  lo.insert(lo.end(), hi.rbegin(), hi.rend());
  return lo;
}

const std::vector<std::int64_t>& tile_candidates(std::int64_t n) {
  FTDL_ASSERT(n >= 1);
  // Memoized: a network's many mapping searches share a few distinct trip
  // counts. Each search keeps its own table of thinned candidate lists, so
  // it asks here only on that table's misses (a few hundred per search) and
  // in its greedy fills. thread_local keeps this lock-free now that
  // compile_layer runs on CompilerSession pool threads; the few distinct
  // trip counts per network keep the per-thread copies tiny. Entries are
  // never erased and unordered_map nodes never move, so returned references
  // stay valid.
  thread_local std::unordered_map<std::int64_t, std::vector<std::int64_t>> cache;
  if (auto it = cache.find(n); it != cache.end()) return it->second;

  std::vector<std::int64_t> out = divisors(n);
  // Padded variants: rounding the trip count up to the next multiples of
  // small integers exposes near-divisors (e.g. trip 7 -> tile 4 with one
  // padded iteration). Padding is bounded to +25% wasted work.
  for (std::int64_t pad = n + 1; pad <= n + std::max<std::int64_t>(1, n / 4); ++pad) {
    for (std::int64_t d : divisors(pad)) {
      if (d <= n) out.push_back(d);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return cache.emplace(n, std::move(out)).first->second;
}

std::int64_t product(const std::vector<std::int64_t>& v) {
  std::int64_t p = 1;
  for (std::int64_t x : v) p *= x;
  return p;
}

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

}  // namespace ftdl
