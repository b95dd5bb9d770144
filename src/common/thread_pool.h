// Shared worker pool for the compiler session (ftdl::ThreadPool).
//
// The framework's parallelism model is deliberately narrow: every parallel
// region is a `parallel_for` over independent tasks whose results are
// merged deterministically by the caller afterwards. The pool provides
// exactly that — no futures, no detached tasks — which keeps the
// determinism argument local to each call site.
//
// Design points:
//   * A pool of `jobs` means the calling thread plus `jobs - 1` workers;
//     `jobs == 1` degenerates to a plain serial loop (no threads are ever
//     created), so single-threaded builds and TSan-free tests pay nothing.
//   * The caller of parallel_for PARTICIPATES: it claims indices from the
//     same batch as the workers and only blocks once the batch has no
//     unclaimed work left. Nested parallel_for from inside a task is
//     therefore deadlock-free — the nested caller drains its own batch even
//     when every worker is busy elsewhere.
//   * The first exception a task throws is captured and rethrown on the
//     calling thread after the batch drains; remaining unclaimed indices
//     are skipped (tasks must not rely on siblings having run).
//   * worker_index() identifies pool threads (0-based) so instrumentation
//     can give each worker its own trace track; the calling thread reports
//     -1 and keeps using its own track.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace ftdl {

class ThreadPool {
 public:
  /// Creates a pool of parallelism `jobs` (>= 1); throws ftdl::ConfigError
  /// for jobs < 1. `jobs - 1` worker threads are started immediately.
  explicit ThreadPool(int jobs);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (worker threads + the calling thread).
  int jobs() const;

  /// Runs fn(0) ... fn(count - 1), each exactly once unless a sibling threw
  /// first, with no ordering guarantee across indices. Blocks until every
  /// claimed index has finished; rethrows the first captured exception.
  /// Safe to call from inside a task (nested batches drain independently).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Batches queued but not yet fully claimed (sampled; for observability).
  std::size_t queue_depth() const;

  /// 0-based index of the current pool worker thread, or -1 when called
  /// from any thread the pool does not own (including parallel_for's
  /// caller).
  static int worker_index();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Ranges for_each_range hands each job, at most.
constexpr std::int64_t kRangesPerJob = 4;

/// Runs body(lo, hi) over [0, units) split into contiguous ranges across
/// `pool`. A few ranges per worker (kRangesPerJob), so a worker held up
/// elsewhere does not leave the batch waiting on one large range. With no
/// pool, a one-job pool or a single unit, body(0, units) runs on the caller
/// and nothing touches the heap: the serving steady state relies on that.
template <typename Body>
void for_each_range(ThreadPool* pool, std::int64_t units, const Body& body) {
  const int jobs = pool != nullptr ? pool->jobs() : 1;
  const std::int64_t parts =
      jobs > 1 ? std::min<std::int64_t>(units, kRangesPerJob * jobs) : 1;
  if (parts <= 1) {
    body(std::int64_t{0}, units);
    return;
  }
  pool->parallel_for(static_cast<std::size_t>(parts), [&](std::size_t i) {
    const auto part = static_cast<std::int64_t>(i);
    body(part * units / parts, (part + 1) * units / parts);
  });
}

/// Default parallelism: the FTDL_JOBS environment variable when it parses
/// to a positive integer, otherwise std::thread::hardware_concurrency()
/// (at least 1).
int default_jobs();

}  // namespace ftdl
