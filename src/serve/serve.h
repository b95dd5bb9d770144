// ftdl::serve — a batched, concurrent inference serving runtime.
//
// The ROADMAP north star is serving heavy traffic, and the substrates for
// it already exist: a thread-safe content-addressed CompilerSession
// (src/compiler/session.h) and a deterministic functional runtime
// (src/runtime/executor.h) that runs compiled programs on the fast engine.
// This module is the component that accepts a *stream of requests* and
// drives those substrates at saturation:
//
//   * a bounded MPMC request queue with admission control — a submit
//     against a full queue (or a stopped/shape-mismatched request) is
//     rejected immediately with a reason, never silently dropped or
//     unboundedly buffered (backpressure is the caller's signal to slow
//     down);
//   * a dynamic batcher — an idle worker coalesces up to `max_batch`
//     pending requests, waiting at most `batch_timeout_us` from the oldest
//     request's enqueue before dispatching what it has (timeout 0 =
//     dispatch immediately, no coalescing wait);
//   * a pool of `workers` threads, each running its batches through its own
//     copy of one runtime::ExecContext that the constructor warms up once.
//
// Determinism contract (extends docs/simulator.md): every request's output
// is a deterministic pure function of (network, weights, input, ExecOptions)
// — run_network holds that, the shared compiled model is immutable, and
// workers share no mutable state beyond the CompilerSession cache
// (content-addressed, bit-identical programs) and the obs registry.
// Per-request results are therefore BIT-IDENTICAL to a serial
// one-at-a-time run at any worker count, batch size, queue depth or
// arrival order (pinned by tests/test_serve.cpp).
//
// Observability (all under obs::set_enabled, catalog in docs/serving.md):
// per-request wall-clock spans `enqueue` (submitter's track) and
// `execute` nested in a per-batch `batch` span on per-worker `serve-<w>`
// tracks; counters for accepted/rejected(by reason)/completed/failed
// requests and batches; a `serve/queue_depth` gauge; and a log-scale
// latency histogram whose p50/p95/p99 land in the metrics JSON as gauges
// when the server stops.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "nn/network.h"
#include "nn/tensor.h"
#include "runtime/executor.h"
#include "runtime/weight_store.h"

namespace ftdl::serve {

/// Fixed-memory log-scale latency histogram (microsecond domain). Buckets
/// are quarter-octaves (width 2^(1/4), ~19 % relative resolution) spanning
/// 1 µs to ~2^40 µs; exact min/max/sum are kept alongside, so percentiles
/// of a constant sample are exact and every percentile lies in [min, max].
class LatencyHistogram {
 public:
  static constexpr int kSubPerOctave = 4;
  static constexpr int kOctaves = 40;
  static constexpr int kBuckets = kOctaves * kSubPerOctave;

  void record(double us);

  std::int64_t count() const { return count_; }
  double sum_us() const { return sum_; }
  double min_us() const { return count_ ? min_ : 0.0; }
  double max_us() const { return count_ ? max_ : 0.0; }
  double mean_us() const { return count_ ? sum_ / double(count_) : 0.0; }

  /// Percentile `p` in [0, 100], linearly interpolated inside the owning
  /// bucket and clamped to the exact [min, max] envelope. 0 when empty.
  double percentile(double p) const;

 private:
  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Why a submission was not admitted.
enum class RejectReason {
  QueueFull,   ///< pending queue at ServerOptions::queue_depth (backpressure)
  Stopped,     ///< server stopped accepting (stop() was called)
  BadRequest,  ///< input tensor shape incompatible with the network input
};

const char* to_string(RejectReason r);

struct ServerOptions {
  /// Worker threads executing batches (>= 1). Results are bit-identical at
  /// any value; this sets only throughput.
  int workers = 2;
  /// Largest batch one worker dispatches at once (>= 1).
  int max_batch = 8;
  /// Longest a pending request may wait for batch-mates, measured from the
  /// *oldest* queued request's enqueue. 0 dispatches immediately.
  std::int64_t batch_timeout_us = 2'000;
  /// Admission bound on pending (queued, not yet dispatched) requests.
  std::size_t queue_depth = 64;
  /// Per-request execution options (path, overlay config, sim_jobs, ...).
  runtime::ExecOptions exec;
};

/// One completed inference.
struct InferenceResult {
  std::uint64_t request_id = 0;
  nn::Tensor16 output;                 ///< the network's sink-layer tensor
  std::int64_t total_sim_cycles = 0;   ///< summed over overlay layers
  double queue_us = 0.0;               ///< enqueue -> dispatch
  double execute_us = 0.0;             ///< dispatch -> complete
  double latency_us = 0.0;             ///< enqueue -> complete
  int worker = -1;                     ///< executing worker index
  std::uint64_t batch_id = 0;
  int batch_size = 0;                  ///< size of the dispatched batch
};

/// Outcome of Server::submit. Exactly one of {accepted with a valid
/// future, rejected with a reason} holds.
struct Submission {
  bool accepted = false;
  RejectReason reject_reason = RejectReason::QueueFull;  ///< if !accepted
  std::uint64_t request_id = 0;                          ///< if accepted
  /// Resolves to the result, or rethrows the execution error (e.g.
  /// ConfigError for an input layout the network rejects).
  std::future<InferenceResult> result;
};

/// Monotonic accounting; every accepted request ends up completed or
/// failed exactly once, and accepted + rejected() == submitted.
struct ServerStats {
  std::int64_t accepted = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_stopped = 0;
  std::int64_t rejected_bad_request = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;             ///< future carries the exception
  std::int64_t batches = 0;            ///< dispatches
  std::int64_t batched_requests = 0;   ///< sum of dispatched batch sizes
  std::int64_t peak_queue_depth = 0;
  std::int64_t max_batch_observed = 0;
  LatencyHistogram latency;            ///< enqueue -> complete, µs

  std::int64_t rejected() const {
    return rejected_queue_full + rejected_stopped + rejected_bad_request;
  }
  double mean_batch_size() const {
    return batches ? double(batched_requests) / double(batches) : 0.0;
  }
};

/// A serving runtime that owns one compiled model (weights + options) and
/// executes submitted inputs on a worker pool. Construction analyses the
/// graph, warms the model up once on the calling thread and starts the
/// workers, each with its own arena over the shared compiled layers; stop()
/// — or destruction — stops admission, drains every pending request and
/// joins.
class Server {
 public:
  /// Throws ftdl::ConfigError on invalid options, a graph static analysis
  /// rejects, or a network the warm-up rejects (empty, ambiguous sinks,
  /// recurrent layers, missing weights, compile failures): before any
  /// request is admitted.
  Server(nn::Network net, runtime::WeightStore weights, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission-controlled, non-blocking enqueue. Thread-safe (MPMC).
  Submission submit(nn::Tensor16 input);

  /// Stops admission, drains pending requests, joins the workers and
  /// publishes the latency-percentile gauges. Idempotent.
  void stop();

  /// Suspends / resumes dispatch (pending requests stay queued; admission
  /// is unaffected). Deterministic-backpressure hook: pause, fill the
  /// queue, observe exact rejection accounting, resume. stop() resumes
  /// implicitly so draining always completes.
  void pause();
  void resume();

  /// Pending (queued, not yet dispatched) requests right now.
  std::size_t queue_depth() const;

  ServerStats stats() const;
  const ServerOptions& options() const;
  const nn::Network& network() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftdl::serve
