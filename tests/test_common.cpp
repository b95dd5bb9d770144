// Unit tests for the common support library.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <atomic>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/fixed_point.h"
#include "common/hash.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace ftdl {
namespace {

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(5, 1), 5);
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(12, 4), 12);
  EXPECT_EQ(round_up(1, 7), 7);
}

TEST(MathUtil, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(63));
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(5), 8);
  EXPECT_EQ(next_pow2(64), 64);
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(1024), 10);
  EXPECT_EQ(ilog2(1023), 9);
}

TEST(MathUtil, Divisors) {
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(7), (std::vector<std::int64_t>{1, 7}));
  EXPECT_EQ(divisors(36).size(), 9u);  // perfect square: no duplicate sqrt
}

TEST(MathUtil, TileCandidatesIncludePaddedDivisors) {
  // Trip count 7 is prime, but tile 4 (pad to 8) and 2 must be offered.
  const auto c = tile_candidates(7);
  EXPECT_NE(std::find(c.begin(), c.end(), 2), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), 4), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), 7), c.end());
  // Sorted and unique, all <= n.
  EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
  EXPECT_EQ(std::adjacent_find(c.begin(), c.end()), c.end());
  for (auto v : c) EXPECT_LE(v, 7);
}

TEST(MathUtil, ProductAndGcd) {
  EXPECT_EQ(product({}), 1);
  EXPECT_EQ(product({2, 3, 4}), 24);
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(7, 13), 1);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01Bounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(FixedPoint, MaccMatchesWideArithmetic) {
  EXPECT_EQ(macc(0, 100, 200), 20000);
  EXPECT_EQ(macc(-5, -3, 7), -26);
  EXPECT_EQ(macc(kAcc48Max, 0, 0), kAcc48Max);
}

TEST(FixedPoint, Saturate48) {
  EXPECT_EQ(saturate48(kAcc48Max + 10), kAcc48Max);
  EXPECT_EQ(saturate48(kAcc48Min - 10), kAcc48Min);
  EXPECT_EQ(saturate48(12345), 12345);
}

TEST(FixedPoint, Requantize) {
  EXPECT_EQ(requantize(1 << 10, 10), 1);
  EXPECT_EQ(requantize((acc_t{40000}) << 8, 8), 32767);   // saturates high
  EXPECT_EQ(requantize((acc_t{-40000}) << 8, 8), -32768); // saturates low
  EXPECT_EQ(relu(-5), 0);
  EXPECT_EQ(relu(5), 5);
}

TEST(StrUtil, Formatters) {
  EXPECT_EQ(format_hz(650e6), "650.0 MHz");
  EXPECT_EQ(format_hz(1.23e9), "1.23 GHz");
  EXPECT_EQ(format_bytes(13.7 * 1024 * 1024), "13.7 MB");
  EXPECT_EQ(format_percent(0.811), "81.1%");
  EXPECT_EQ(join_x({12, 5, 20}), "12 x 5 x 20");
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
}

// The strict CLI-flag parsers: everything std::atoi silently turns into 0
// must be a parse failure here (the tools hoisted onto these in PR 10).
TEST(StrUtil, ParseIntStrict) {
  std::int64_t v = -1;
  EXPECT_TRUE(parse_int_strict("8", 1, 100, &v));
  EXPECT_EQ(v, 8);
  EXPECT_TRUE(parse_int_strict("100", 1, 100, &v));
  EXPECT_EQ(v, 100);
  EXPECT_TRUE(parse_int_strict("-3", -10, 10, &v));
  EXPECT_EQ(v, -3);

  v = 42;
  EXPECT_FALSE(parse_int_strict("x8", 1, 100, &v));    // garbage prefix
  EXPECT_FALSE(parse_int_strict("8x", 1, 100, &v));    // trailing text
  EXPECT_FALSE(parse_int_strict("8 ", 1, 100, &v));    // trailing space
  EXPECT_FALSE(parse_int_strict("", 1, 100, &v));      // empty
  EXPECT_FALSE(parse_int_strict(nullptr, 1, 100, &v)); // absent
  EXPECT_FALSE(parse_int_strict("0", 1, 100, &v));     // below min
  EXPECT_FALSE(parse_int_strict("101", 1, 100, &v));   // above max
  EXPECT_FALSE(parse_int_strict("3.5", 1, 100, &v));   // not an integer
  EXPECT_FALSE(parse_int_strict("99999999999999999999", 1,
                                std::numeric_limits<std::int64_t>::max(),
                                &v));  // overflow
  EXPECT_EQ(v, 42) << "out must be untouched on failure";
}

TEST(StrUtil, ParseDoubleStrict) {
  double v = -1.0;
  EXPECT_TRUE(parse_double_strict("650", &v));
  EXPECT_EQ(v, 650.0);
  EXPECT_TRUE(parse_double_strict("0.5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_double_strict("-2e3", &v));
  EXPECT_EQ(v, -2000.0);

  v = 42.0;
  EXPECT_FALSE(parse_double_strict("fast", &v));
  EXPECT_FALSE(parse_double_strict("1.5x", &v));
  EXPECT_FALSE(parse_double_strict("", &v));
  EXPECT_FALSE(parse_double_strict(nullptr, &v));
  EXPECT_FALSE(parse_double_strict("inf", &v));  // finite only
  EXPECT_FALSE(parse_double_strict("nan", &v));
  EXPECT_EQ(v, 42.0) << "out must be untouched on failure";
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = "test_common_csv_tmp.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "has,comma"});
    w.row_numeric({2.5, 3.0});
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,\"has,comma\"");
  EXPECT_EQ(l3, "2.5,3");
  std::filesystem::remove(path);
}

TEST(Csv, ArityMismatchThrows) {
  const std::string path = "test_common_csv_tmp2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), InternalError);
  std::filesystem::remove(path);
}

TEST(AsciiTable, RendersAligned) {
  AsciiTable t({"name", "val"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name   | val |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22  |"), std::string::npos);
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW(FTDL_ASSERT(1 == 2), InternalError);
  EXPECT_NO_THROW(FTDL_ASSERT(1 == 1));
}

TEST(Hash64, KnownFnv1aVectors) {
  // FNV-1a reference values: empty input is the offset basis, "a" is the
  // published test vector.
  EXPECT_EQ(Hash64().digest(), 0xcbf29ce484222325ull);
  EXPECT_EQ(Hash64().bytes("a", 1).digest(), 0xaf63dc4c8601ec8cull);
}

TEST(Hash64, IntegersAreCanonicalizedLittleEndian) {
  EXPECT_EQ(Hash64().u64(0x0102030405060708ull).digest(),
            Hash64()
                .bytes("\x08\x07\x06\x05\x04\x03\x02\x01", 8)
                .digest());
  // i32 widens through i64, so the two feeders agree on common values.
  EXPECT_EQ(Hash64().i32(-7).digest(), Hash64().i64(-7).digest());
}

TEST(Hash64, StringsAreLengthPrefixed) {
  const auto h = [](const std::string& a, const std::string& b) {
    return Hash64().str(a).str(b).digest();
  };
  EXPECT_NE(h("ab", "c"), h("a", "bc"));
  EXPECT_EQ(h("ab", "c"), h("ab", "c"));
}

TEST(Hash64, DoublesHashByBitPattern) {
  EXPECT_NE(Hash64().f64(0.0).digest(), Hash64().f64(-0.0).digest());
  EXPECT_EQ(Hash64().f64(26e9).digest(), Hash64().f64(26e9).digest());
  EXPECT_NE(Hash64().f64(1.0).digest(), Hash64().i64(1).digest());
}

TEST(ThreadPool, RejectsNonPositiveJobs) {
  EXPECT_THROW(ThreadPool(0), ConfigError);
  EXPECT_THROW(ThreadPool(-3), ConfigError);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(pool.jobs(), jobs);
    std::vector<std::atomic<int>> ran(257);
    for (auto& r : ran) r = 0;
    pool.parallel_for(ran.size(), [&](std::size_t i) { ran[i]++; });
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  }
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, FirstExceptionIsRethrownOnTheCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i % 7 == 3) throw ConfigError("task failed");
                        }),
      ConfigError);
  // The pool survives a throwing batch and runs subsequent work.
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPool, WorkerIndexIdentifiesPoolThreads) {
  EXPECT_EQ(ThreadPool::worker_index(), -1);
  ThreadPool pool(3);
  pool.parallel_for(64, [&](std::size_t) {
    const int wi = ThreadPool::worker_index();
    // Tasks run on the caller (-1) or on one of the jobs - 1 workers (0, 1).
    ASSERT_GE(wi, -1);
    ASSERT_LT(wi, 2);
  });
  EXPECT_EQ(ThreadPool::worker_index(), -1);  // caller never becomes a worker
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<std::int64_t> values(1000);
  std::iota(values.begin(), values.end(), 1);
  const std::int64_t expect =
      std::accumulate(values.begin(), values.end(), std::int64_t{0});
  ThreadPool pool(8);
  std::vector<std::int64_t> out(values.size());
  pool.parallel_for(values.size(),
                    [&](std::size_t i) { out[i] = values[i]; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::int64_t{0}), expect);
}

TEST(ThreadPool, DefaultJobsHonorsFtdlJobsEnv) {
  EXPECT_GE(default_jobs(), 1);
  ::setenv("FTDL_JOBS", "5", 1);
  EXPECT_EQ(default_jobs(), 5);
  ::setenv("FTDL_JOBS", "not-a-number", 1);
  EXPECT_GE(default_jobs(), 1);  // unparseable values fall back
  ::unsetenv("FTDL_JOBS");
  EXPECT_GE(default_jobs(), 1);
}

// ---- TensorArena ----------------------------------------------------------

TEST(TensorArena, OutsideScopeFallsBackToHeap) {
  // With no arena installed, ArenaVec is a plain heap vector: its blocks
  // carry no owner and no arena counters move.
  TensorArena arena;
  {
    ArenaVec<std::int64_t> v(32);
    EXPECT_EQ(v.size(), 32);
    for (std::int64_t i = 0; i < 32; ++i) EXPECT_EQ(v[i], 0);
  }
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.fallback_allocs, 0);
  EXPECT_EQ(s.reuses, 0);
  EXPECT_EQ(s.bytes_allocated, 0);
}

// An unscoped block is exactly its request, so a sanitizer bounds every
// access to an unscoped ArenaVec or tensor; a scoped one is its size class.
TEST(TensorArena, UnscopedCapacityEqualsRequest) {
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{100},
                                  std::size_t{4097}, std::size_t{12345}}) {
    arena_detail::Buffer b = arena_detail::acquire(bytes);
    EXPECT_EQ(b.cap, bytes);
    EXPECT_EQ(b.owner, nullptr);
    arena_detail::release(b);
  }
  TensorArena arena;
  TensorArena::Scope scope(arena);
  arena_detail::Buffer b = arena_detail::acquire(100);
  EXPECT_EQ(b.cap, 128U);
  arena_detail::release(b);
}

TEST(TensorArena, BlocksRecycleWithinScope) {
  TensorArena arena;
  TensorArena::Scope scope(arena);
  { ArenaVec<std::int64_t> warm(100); }  // first acquire: heap fallback
  const ArenaStats after_warm = arena.stats();
  EXPECT_EQ(after_warm.fallback_allocs, 1);
  EXPECT_EQ(after_warm.bytes_in_use, 0);  // released back to the pool

  for (int round = 0; round < 5; ++round) {
    ArenaVec<std::int64_t> v(100);  // same size class: pooled reuse
    EXPECT_EQ(v[99], 0) << "pooled blocks must be re-zeroed";
    v[99] = 7;
  }
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.fallback_allocs, 1) << "steady-state rounds must not allocate";
  EXPECT_EQ(s.reuses, 5);
  EXPECT_EQ(s.bytes_allocated, after_warm.bytes_allocated);
  EXPECT_EQ(s.bytes_in_use, 0);
  EXPECT_GT(s.high_water_bytes, 0);
}

TEST(TensorArena, CopyAssignReusesCapacity) {
  TensorArena arena;
  TensorArena::Scope scope(arena);
  ArenaVec<std::int64_t> dst(64);
  const ArenaStats before = arena.stats();
  ArenaVec<std::int64_t> src(48);
  for (std::int64_t i = 0; i < 48; ++i) src[i] = i;
  dst = src;  // 48 <= capacity(64): block reused in place
  EXPECT_EQ(dst.size(), 48);
  EXPECT_EQ(dst[47], 47);
  EXPECT_EQ(arena.stats().fallback_allocs - before.fallback_allocs, 1)
      << "only src's own block may allocate";
}

TEST(TensorArena, BlocksEscapeScopeAndReturnFromOtherThreads) {
  TensorArena arena;
  ArenaVec<std::int64_t> escaped;
  {
    TensorArena::Scope scope(arena);
    escaped = ArenaVec<std::int64_t>(200);
  }
  // The scope is gone but the block still belongs to the arena.
  EXPECT_EQ(arena.stats().bytes_in_use, arena.stats().bytes_allocated);

  std::thread([v = std::move(escaped)]() mutable {
    v = ArenaVec<std::int64_t>();  // release on a foreign thread
  }).join();
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.bytes_in_use, 0) << "cross-thread release must reach the pool";

  // And the returned block is reusable from a fresh scope.
  TensorArena::Scope scope(arena);
  ArenaVec<std::int64_t> again(200);
  EXPECT_EQ(arena.stats().reuses, 1);
}

TEST(TensorArena, ScopesNestAndRestore) {
  TensorArena outer, inner;
  TensorArena::Scope outer_scope(outer);
  {
    TensorArena::Scope inner_scope(inner);
    ArenaVec<std::int64_t> v(16);
  }
  EXPECT_EQ(inner.stats().fallback_allocs, 1);
  EXPECT_EQ(outer.stats().fallback_allocs, 0);
  ArenaVec<std::int64_t> v(16);  // back on the outer arena
  EXPECT_EQ(outer.stats().fallback_allocs, 1);
  EXPECT_EQ(inner.stats().fallback_allocs, 1);
}

}  // namespace
}  // namespace ftdl
