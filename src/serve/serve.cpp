#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "analyze/analyze.h"
#include "common/alloc_stats.h"
#include "common/arena.h"
#include "common/error.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/obs.h"
#include "runtime/executor.h"

namespace ftdl::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Lower bucket edges: quarter-octave geometric series from 1 µs.
const std::array<double, LatencyHistogram::kBuckets>& bucket_lo_table() {
  static const std::array<double, LatencyHistogram::kBuckets> table = [] {
    std::array<double, LatencyHistogram::kBuckets> t{};
    constexpr double kRatio = 1.189207115002721;  // 2^(1/4)
    double v = 1.0;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      t[static_cast<std::size_t>(i)] = v;
      v *= kRatio;
    }
    return t;
  }();
  return table;
}

double bucket_hi(int b) {
  const auto& t = bucket_lo_table();
  if (b + 1 < LatencyHistogram::kBuckets)
    return t[static_cast<std::size_t>(b + 1)];
  return t[static_cast<std::size_t>(b)] * 1.189207115002721;
}

}  // namespace

void LatencyHistogram::record(double us) {
  us = std::max(us, 0.0);
  const auto& t = bucket_lo_table();
  auto it = std::upper_bound(t.begin(), t.end(), us);
  const int b = std::clamp(static_cast<int>(it - t.begin()) - 1, 0,
                           kBuckets - 1);
  ++counts_[static_cast<std::size_t>(b)];
  if (count_ == 0) {
    min_ = max_ = us;
  } else {
    min_ = std::min(min_, us);
    max_ = std::max(max_, us);
  }
  ++count_;
  sum_ += us;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Fractional 0-based rank (numpy-style linear interpolation), located in
  // its bucket and interpolated across the bucket's width. Clamping to the
  // exact [min, max] envelope keeps constant samples exact and every
  // estimate inside the observed range.
  const double rank = p / 100.0 * double(count_ - 1);
  const auto& t = bucket_lo_table();
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t n = counts_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (rank <= double(seen + n - 1)) {
      const double lo = t[static_cast<std::size_t>(b)];
      const double hi = bucket_hi(b);
      const double frac =
          std::clamp((rank - double(seen) + 0.5) / double(n), 0.0, 1.0);
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
    seen += n;
  }
  return max_;
}

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::Stopped: return "stopped";
    case RejectReason::BadRequest: return "bad_request";
  }
  return "unknown";
}

namespace {

struct Request {
  std::uint64_t id = 0;
  nn::Tensor16 input;
  std::promise<InferenceResult> promise;
  Clock::time_point enqueue_time;
};

}  // namespace

struct Server::Impl {
  nn::Network net;
  runtime::WeightStore weights;
  ServerOptions opt;

  mutable Mutex mu;
  CondVar cv;  ///< queue / pause / stop transitions
  std::deque<Request> queue FTDL_GUARDED_BY(mu);
  bool accepting FTDL_GUARDED_BY(mu) = true;
  bool paused FTDL_GUARDED_BY(mu) = false;
  std::uint64_t next_id FTDL_GUARDED_BY(mu) = 1;
  ServerStats stats FTDL_GUARDED_BY(mu);

  Mutex stop_mu;  ///< serializes stop() (idempotent join)
  bool stopped FTDL_GUARDED_BY(stop_mu) = false;
  /// The one warm-up; each worker copies it, sharing its compiled model.
  std::optional<runtime::ExecContext> warm;
  std::vector<std::thread> workers;

  Impl(nn::Network n, runtime::WeightStore w, ServerOptions o)
      : net(std::move(n)), weights(std::move(w)), opt(o) {}

  /// Cheap admission-time shape check against the first layer. Layers the
  /// check cannot constrain (concat/ewop heads) admit anything; execution
  /// still validates and surfaces errors through the future.
  bool shape_ok(const nn::Tensor16& t) const {
    const nn::Layer& first = net.layers().front();
    switch (first.kind) {
      case nn::LayerKind::Conv:
      case nn::LayerKind::Depthwise:
      case nn::LayerKind::Pool:
        return t.dims() == nn::Dims{first.in_c, first.in_h, first.in_w};
      case nn::LayerKind::MatMul:
        return t.size() == first.mm_m * first.mm_p;
      default:
        return true;
    }
  }

  void worker_loop(int w) {
    obs::set_thread_track_name("serve-" + std::to_string(w));
    // Own arena and tensor map over the shared compiled model. The span puts
    // every worker on the trace, even when the others drain the whole queue.
    runtime::ExecContext exec = [this] {
      const obs::ScopedSpan warmup("serve", "warmup");
      return runtime::ExecContext(*warm);
    }();
    ArenaStats last_arena;  // previous snapshot, for per-request count deltas
    for (;;) {
      MutexLock lock(mu);
      while (!((!paused && !queue.empty()) || (!accepting && queue.empty()))) {
        cv.wait(mu);
      }
      if (queue.empty()) return;  // stopped and drained
      Request req = std::move(queue.front());
      queue.pop_front();
      if (obs::enabled()) obs::gauge("serve/queue_depth", double(queue.size()));
      lock.unlock();
      execute(w, req, exec, last_arena);
    }
  }

  void execute(int w, Request& req, runtime::ExecContext& exec,
               ArenaStats& last_arena) {
    const Clock::time_point dispatch = Clock::now();
    InferenceResult res;
    res.request_id = req.id;
    res.worker = w;
    res.queue_us = us_between(req.enqueue_time, dispatch);
    std::exception_ptr error;
    {
      std::optional<obs::ScopedSpan> span;
      if (obs::enabled()) {
        span.emplace("serve", "execute",
                     obs::SpanArgs{{"request", std::to_string(req.id)}});
      }
      try {
        // Count heap allocations while the request executes: the zero-alloc
        // steady-state contract of tests/test_serve.cpp. Two thread-local
        // increments when no counting allocator is linked in.
        alloc_stats::ArmScope arm;
        runtime::ExecResult er = exec.run(req.input);
        res.output = std::move(er.output);
        res.total_sim_cycles = er.total_sim_cycles;
      } catch (...) {
        error = std::current_exception();
      }
    }
    // Stamp and count the request before its future resolves.
    const Clock::time_point done = Clock::now();
    res.execute_us = us_between(dispatch, done);
    res.latency_us = us_between(req.enqueue_time, done);
    obs::count(error ? "serve/requests_failed" : "serve/requests_completed");
    {
      MutexLock lock(mu);
      ++(error ? stats.failed : stats.completed);
      if (!error) stats.latency.record(res.latency_us);
    }
    if (error) {
      req.promise.set_exception(error);
    } else {
      req.promise.set_value(std::move(res));
    }
    // Arena activity of this request, as counter deltas against the previous
    // snapshot (counts are monotonic; the pool itself reports totals), plus
    // the pool's high-water mark.
    if (obs::enabled()) {
      const ArenaStats a = exec.arena_stats();
      obs::count("runtime/arena_bytes", a.bytes_allocated - last_arena.bytes_allocated);
      obs::count("runtime/arena_reuses", a.reuses - last_arena.reuses);
      obs::count("runtime/arena_fallback_allocs",
                 a.fallback_allocs - last_arena.fallback_allocs);
      obs::gauge("runtime/arena_high_water_bytes", double(a.high_water_bytes));
      last_arena = a;
    }
  }
};

Server::Server(nn::Network net, runtime::WeightStore weights,
               ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(net), std::move(weights),
                                   options)) {
  const ServerOptions& opt = impl_->opt;
  if (opt.workers < 1) throw ConfigError("serve: workers must be >= 1");
  if (opt.queue_depth < 1) throw ConfigError("serve: queue_depth must be >= 1");
  // Full graph-family static analysis (shape agreement, dead layers,
  // cycles) before any worker starts; a long-lived server must not accept
  // traffic for a network that cannot execute end to end.
  const analyze::AnalysisResult ar =
      analyze::analyze_graph(impl_->net, analyze::GraphStrictness::Serving);
  if (!ar.ok()) {
    throw ConfigError(impl_->net.name() + ": static analysis rejected: " +
                      ar.first_error()->to_string());
  }
  // The one warm-up (graph checks, weights, compiles): a network it rejects
  // throws here, before any request is admitted. Serving skips the LayerRun
  // records; it consumes only outputs and cycle totals.
  runtime::ExecOptions eopt = opt.exec;
  eopt.collect_runs = false;
  impl_->warm.emplace(impl_->net, impl_->weights, eopt);
  impl_->workers.reserve(static_cast<std::size_t>(opt.workers));
  for (int w = 0; w < opt.workers; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

Server::~Server() { stop(); }

Submission Server::submit(nn::Tensor16 input) {
  Impl& im = *impl_;
  Submission s;
  if (!im.shape_ok(input)) {
    s.reject_reason = RejectReason::BadRequest;
    MutexLock lock(im.mu);
    ++im.stats.rejected_bad_request;
    if (obs::enabled()) {
      obs::count("serve/requests_rejected");
      obs::count("serve/rejected_bad_request");
    }
    return s;
  }
  obs::ScopedSpan span("serve", "enqueue");
  MutexLock lock(im.mu);
  if (!im.accepting) {
    s.reject_reason = RejectReason::Stopped;
    ++im.stats.rejected_stopped;
    if (obs::enabled()) {
      obs::count("serve/requests_rejected");
      obs::count("serve/rejected_stopped");
    }
    span.add_arg("rejected", "stopped");
    return s;
  }
  if (im.queue.size() >= im.opt.queue_depth) {
    s.reject_reason = RejectReason::QueueFull;
    ++im.stats.rejected_queue_full;
    if (obs::enabled()) {
      obs::count("serve/requests_rejected");
      obs::count("serve/rejected_queue_full");
    }
    span.add_arg("rejected", "queue_full");
    return s;
  }
  Request req;
  req.id = im.next_id++;
  req.input = std::move(input);
  req.enqueue_time = Clock::now();
  s.accepted = true;
  s.request_id = req.id;
  span.add_arg("request", std::to_string(req.id));
  s.result = req.promise.get_future();
  im.queue.push_back(std::move(req));
  ++im.stats.accepted;
  im.stats.peak_queue_depth =
      std::max(im.stats.peak_queue_depth,
               static_cast<std::int64_t>(im.queue.size()));
  if (obs::enabled()) {
    obs::count("serve/requests_accepted");
    obs::gauge("serve/queue_depth", double(im.queue.size()));
  }
  lock.unlock();
  im.cv.notify_one();  // each request needs exactly one worker
  return s;
}

void Server::stop() {
  Impl& im = *impl_;
  MutexLock stop_lock(im.stop_mu);
  if (im.stopped) return;
  {
    MutexLock lock(im.mu);
    im.accepting = false;
    im.paused = false;  // draining must always complete
  }
  im.cv.notify_all();
  for (std::thread& t : im.workers) t.join();
  im.stopped = true;
  if (obs::enabled()) {
    MutexLock lock(im.mu);
    const LatencyHistogram& h = im.stats.latency;
    obs::gauge("serve/latency_p50_us", h.percentile(50.0));
    obs::gauge("serve/latency_p95_us", h.percentile(95.0));
    obs::gauge("serve/latency_p99_us", h.percentile(99.0));
    obs::gauge("serve/latency_mean_us", h.mean_us());
    obs::gauge("serve/latency_max_us", h.max_us());
    obs::gauge("serve/queue_depth", 0.0);
  }
}

void Server::pause() {
  MutexLock lock(impl_->mu);
  impl_->paused = true;
}

void Server::resume() {
  {
    MutexLock lock(impl_->mu);
    impl_->paused = false;
  }
  impl_->cv.notify_all();
}

std::size_t Server::queue_depth() const {
  MutexLock lock(impl_->mu);
  return impl_->queue.size();
}

ServerStats Server::stats() const {
  MutexLock lock(impl_->mu);
  return impl_->stats;
}

const ServerOptions& Server::options() const { return impl_->opt; }

const nn::Network& Server::network() const { return impl_->net; }

}  // namespace ftdl::serve
