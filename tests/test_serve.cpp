// Tests for ftdl::serve — the concurrent inference serving runtime:
// bit-identical results at any worker count (the determinism contract of
// docs/serving.md), exact admission/rejection accounting, in-order
// one-request dispatch, stop under load, latency-histogram boundaries, and
// balanced + monotonic obs instrumentation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_stats.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "runtime/executor.h"
#include "serve/serve.h"

namespace ftdl::serve {
namespace {

/// Small conv -> pool -> fc network: a request costs tens of microseconds
/// on the simulator, so serving tests finish instantly.
nn::Network tiny_net() {
  nn::Network net("tiny-serve");
  net.add(nn::make_conv("c1", 3, 12, 12, 8, 3, 1, 1));
  net.add(nn::make_pool("pool", 8, 12, 12, 2, 2));
  net.add(nn::make_matmul("fc", 8 * 6 * 6, 5, 1));
  net.validate_graph();
  return net;
}

nn::Tensor16 seeded_input(std::uint64_t seed,
                          const nn::Dims& shape = {3, 12, 12}) {
  Rng rng(seed);
  nn::Tensor16 t(shape);
  t.fill_random(rng);
  return t;
}

/// Runs `n` distinctly-seeded requests through a server and returns the
/// outputs keyed by seed. Submission is closed-loop per client thread.
std::map<std::uint64_t, nn::Tensor16> serve_all(
    Server& server, int n, int clients, const nn::Dims& shape = {3, 12, 12}) {
  std::map<std::uint64_t, nn::Tensor16> out;
  std::mutex out_mu;
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      obs::set_thread_track_name("client-" + std::to_string(c));
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= n) return;
        const auto seed = static_cast<std::uint64_t>(i);
        Submission s = server.submit(seeded_input(seed, shape));
        ASSERT_TRUE(s.accepted) << to_string(s.reject_reason);
        InferenceResult r = s.result.get();
        std::lock_guard<std::mutex> lock(out_mu);
        out.emplace(seed, std::move(r.output));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

class ServeObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset();
    obs::set_enabled(false);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
};

/// Chrome trace-event invariants: per-track monotonic timestamps and
/// balanced, nesting B/E pairs (same walk as tests/test_obs.cpp).
void expect_balanced_monotonic(const std::vector<obs::TraceEvent>& events) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> depth;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> last_ts;
  for (const obs::TraceEvent& e : events) {
    const auto key = std::make_pair(e.pid, e.tid);
    if (last_ts.count(key)) {
      EXPECT_GE(e.ts, last_ts[key])
          << "non-monotonic timestamp on track " << e.pid << "/" << e.tid;
    }
    last_ts[key] = e.ts;
    if (e.ph == 'B') {
      ++depth[key];
    } else {
      ASSERT_EQ(e.ph, 'E');
      ASSERT_GT(depth[key], 0) << "E without matching B";
      --depth[key];
    }
  }
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on track " << key.first << "/"
                    << key.second;
  }
}

// ---- latency histogram ----------------------------------------------------

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.mean_us(), 0.0);
  EXPECT_EQ(h.min_us(), 0.0);
  EXPECT_EQ(h.max_us(), 0.0);
}

TEST(LatencyHistogram, ConstantSamplesAreExact) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(250.0);
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean_us(), 250.0);
  // The [min, max] clamp makes every percentile of a constant sample exact
  // despite the ~19 % bucket width.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 250.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 250.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 250.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 250.0);
}

TEST(LatencyHistogram, PercentilesAreMonotonicAndBounded) {
  LatencyHistogram h;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    h.record(1.0 + double(rng.next_u64() % 1'000'000));
  }
  double prev = 0.0;
  for (double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_GE(v, h.min_us());
    EXPECT_LE(v, h.max_us());
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100.0), h.max_us());
}

TEST(LatencyHistogram, TwoPointSpread) {
  LatencyHistogram h;
  for (int i = 0; i < 50; ++i) h.record(100.0);
  for (int i = 0; i < 50; ++i) h.record(10'000.0);
  // Bucketed estimates stay within one quarter-octave (~19 %) of the exact
  // sample at the extremes.
  EXPECT_NEAR(h.percentile(1.0), 100.0, 20.0);
  EXPECT_NEAR(h.percentile(99.0), 10'000.0, 2'000.0);
  EXPECT_DOUBLE_EQ(h.mean_us(), 5'050.0);
}

TEST(LatencyHistogram, OutOfRangeValuesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.record(-5.0);  // clamped to 0 before bucketing
  h.record(0.25);
  h.record(1e30);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min_us(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_us(), 1e30);
  EXPECT_GE(h.percentile(50.0), 0.0);
}

// ---- server construction --------------------------------------------------

TEST(Server, RejectsInvalidOptions) {
  ServerOptions bad;
  bad.workers = 0;
  EXPECT_THROW(
      Server(tiny_net(), runtime::WeightStore::random_for(tiny_net(), 1), bad),
      ConfigError);
  bad = ServerOptions{};
  bad.queue_depth = 0;
  EXPECT_THROW(
      Server(tiny_net(), runtime::WeightStore::random_for(tiny_net(), 1), bad),
      ConfigError);
}

TEST(Server, RejectsAmbiguousAndEmptyGraphs) {
  // Two unconsumed heads: no unique sink to serve.
  nn::Network multi("two-heads");
  multi.add(nn::make_conv("stem", 3, 8, 8, 4, 3, 1, 1));
  multi.add(nn::with_inputs(nn::make_conv("h1", 4, 8, 8, 2, 1, 1, 0), {"stem"}));
  multi.add(nn::with_inputs(nn::make_conv("h2", 4, 8, 8, 2, 1, 1, 0), {"stem"}));
  EXPECT_THROW(
      Server(multi, runtime::WeightStore::random_for(multi, 1), ServerOptions{}),
      ConfigError);

  nn::Network empty("empty");
  EXPECT_THROW(Server(empty, runtime::WeightStore{}, ServerOptions{}),
               ConfigError);
}

// ---- determinism ----------------------------------------------------------

TEST(Server, EightWorkersBitIdenticalToOneWorkerAndSerialRun) {
  // tiny_net at the default overlay, served by 1 worker and by 8 workers;
  // and a lone conv on the 4x2x3 overlay, served by 4 workers.
  struct Case {
    nn::Network net;
    nn::Dims input;
    std::uint64_t weight_seed;
    int requests;
    runtime::ExecOptions exec;
    std::vector<int> workers;
  };
  nn::Network conv("serve-sim");
  conv.add(nn::make_conv("c", 6, 8, 8, 8, 3, 1, 1));
  conv.validate_graph();
  runtime::ExecOptions small;
  small.config.d1 = 4;
  small.config.d2 = 2;
  small.config.d3 = 3;
  const std::vector<Case> cases = {
      {tiny_net(), {3, 12, 12}, 7, 24, {}, {1, 8}},
      {conv, {6, 8, 8}, 21, 6, small, {4}},
  };

  for (const Case& c : cases) {
    const runtime::WeightStore ws =
        runtime::WeightStore::random_for(c.net, c.weight_seed);
    // Ground truth: serial one-at-a-time run_network.
    std::map<std::uint64_t, nn::Tensor16> serial;
    for (int i = 0; i < c.requests; ++i) {
      const auto seed = static_cast<std::uint64_t>(i);
      serial.emplace(seed, runtime::run_network(
                               c.net, seeded_input(seed, c.input), ws, c.exec)
                               .output);
    }
    for (const int workers : c.workers) {
      ServerOptions opt;
      opt.workers = workers;
      opt.exec = c.exec;
      Server server(c.net, ws, opt);
      const auto out = serve_all(server, c.requests, workers, c.input);
      server.stop();

      ASSERT_EQ(out.size(), serial.size());
      for (const auto& [seed, expect] : serial) {
        EXPECT_EQ(out.at(seed), expect)
            << c.net.name() << " workers=" << workers << ", seed "
            << seed;
      }
    }
  }
}

TEST(Server, ZooOutputMatchesReferenceDigest) {
  // serve == serial at zoo scale: GoogLeNet on the 4x2x3 overlay, whose
  // classifier runs as weight groups with a shorter last part, served by 2
  // workers. Every request carries the input of
  // Executor.ZooOutputsMatchReferenceDigests (weight seed 5, input seed 23,
  // magnitude 3), so every future must return that test's committed
  // nn-reference digest.
  const nn::Network net = nn::googlenet();
  ServerOptions opt;
  opt.workers = 2;
  opt.exec.config.d1 = 4;
  opt.exec.config.d2 = 2;
  opt.exec.config.d3 = 3;
  opt.exec.search_budget_per_layer = 1'000;
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 input({first.in_c, first.in_h, first.in_w});
  Rng rng(23);
  input.fill_random(rng, 3);
  Server server(net, runtime::WeightStore::random_for(net, 5, /*magnitude=*/3),
                opt);
  std::vector<Submission> subs;
  for (int i = 0; i < 4; ++i) subs.push_back(server.submit(input));
  for (Submission& s : subs) {
    ASSERT_TRUE(s.accepted) << to_string(s.reject_reason);
    const nn::Tensor16 out = s.result.get().output;
    Hash64 h;  // the digest of Executor.ZooOutputsMatchReferenceDigests
    for (const int d : out.dims()) h.i32(d);
    for (std::int64_t i = 0; i < out.size(); ++i) h.i32(out[i]);
    EXPECT_EQ(h.digest(), 0x69e28f2b6fb38cf1ull);
  }
  server.stop();
}

// ---- admission control / rejection accounting -----------------------------

TEST(Server, RejectionAccountingIsExact) {
  const nn::Network net = tiny_net();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 3);
  ServerOptions opt;
  opt.workers = 2;
  opt.queue_depth = 4;
  Server server(net, ws, opt);

  // Dispatch suspended: admission outcomes are exact, not racy.
  server.pause();
  std::vector<std::future<InferenceResult>> accepted;
  for (int i = 0; i < 4; ++i) {
    Submission s = server.submit(seeded_input(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(s.accepted);
    accepted.push_back(std::move(s.result));
  }
  EXPECT_EQ(server.queue_depth(), 4u);
  for (int i = 0; i < 3; ++i) {
    Submission s = server.submit(seeded_input(99));
    ASSERT_FALSE(s.accepted);
    EXPECT_EQ(s.reject_reason, RejectReason::QueueFull);
    EXPECT_STREQ(to_string(s.reject_reason), "queue_full");
  }
  // Shape mismatch is rejected before touching the queue.
  Submission bad = server.submit(nn::Tensor16({1, 2, 3}));
  ASSERT_FALSE(bad.accepted);
  EXPECT_EQ(bad.reject_reason, RejectReason::BadRequest);

  server.resume();
  for (auto& f : accepted) f.get();
  server.stop();

  Submission late = server.submit(seeded_input(0));
  ASSERT_FALSE(late.accepted);
  EXPECT_EQ(late.reject_reason, RejectReason::Stopped);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted, 4);
  EXPECT_EQ(st.completed, 4);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.rejected_queue_full, 3);
  EXPECT_EQ(st.rejected_bad_request, 1);
  EXPECT_EQ(st.rejected_stopped, 1);
  EXPECT_EQ(st.rejected(), 5);
  EXPECT_EQ(st.peak_queue_depth, 4);
  EXPECT_EQ(st.latency.count(), st.completed);
}

TEST(Server, WarmUpFailureThrowsFromConstructor) {
  // seqLSTM passes static analysis, but the warm-up rejects its recurrent
  // layers: Server() throws before any request is admitted.
  const nn::Network net = nn::sentimental_seqlstm();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 1);
  EXPECT_THROW(Server(net, ws, ServerOptions{}), ConfigError);
}

TEST(Server, ExecutionFailureSurfacesThroughFuture) {
  // A MatMul-first network admits any input of the right element count, so
  // a transposed {1, M} input passes admission and fails in the layer
  // simulator's layout check: the error must come back via the future and
  // be counted as failed, and the worker must keep serving.
  nn::Network net("serve-mm");
  net.add(nn::make_matmul("fc", 16, 4, 1));
  net.validate_graph();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 1);
  ServerOptions opt;
  opt.workers = 1;
  opt.exec.config.d1 = 4;
  opt.exec.config.d2 = 2;
  opt.exec.config.d3 = 3;
  Server server(net, ws, opt);
  Submission bad = server.submit(nn::Tensor16({1, 16}));
  ASSERT_TRUE(bad.accepted);
  EXPECT_THROW(bad.result.get(), ConfigError);
  Submission good = server.submit(nn::Tensor16({16, 1}));
  ASSERT_TRUE(good.accepted);
  EXPECT_EQ(good.result.get().output.dims(), (nn::Dims{4, 1}));
  server.stop();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted, 2);
  EXPECT_EQ(st.failed, 1);
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.latency.count(), 1);
}

// ---- zero-alloc steady state ----------------------------------------------

TEST(Server, SteadyStateServesWithoutHeapAllocations) {
  // The memory-discipline contract of docs/serving.md: once a worker's
  // ExecContext and arena are warm, a request executes with ZERO heap
  // allocations. alloc_hook.cpp (linked into this binary) counts operator
  // new calls inside the worker's per-request ArmScope window.
  if (!alloc_stats::hook_installed())
    GTEST_SKIP() << "counting allocator not linked (sanitizer build)";

  // Two convs and the residual add of the two, so the add kernel's output
  // is inside the window too.
  nn::Network net("serve-zero-alloc");
  net.add(nn::make_conv("c", 6, 8, 8, 8, 3, 1, 1));
  net.add(nn::make_conv("c2", 8, 8, 8, 8, 3, 1, 1, /*relu=*/false));
  net.add(nn::make_add_relu("add", 8 * 8 * 8, {"c2", "c"}));
  net.validate_graph();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 7);

  ServerOptions opt;
  opt.workers = 1;
  opt.exec.config.d1 = 4;
  opt.exec.config.d2 = 2;
  opt.exec.config.d3 = 3;
  opt.exec.sim_jobs = 1;  // serial bursts: no pool scheduling in the window
  Server server(net, ws, opt);

  auto infer = [&](std::uint64_t seed) {
    Rng rng(seed);
    nn::Tensor16 in({6, 8, 8});
    in.fill_random(rng);
    Submission s = server.submit(std::move(in));
    EXPECT_TRUE(s.accepted);
    return s.result.get();
  };

  // Warm-up: populate the compile caches, the tensor map and the arena
  // pools (a couple of rounds lets every free list reach steady capacity).
  for (std::uint64_t seed = 0; seed < 3; ++seed) infer(seed);

  // References computed up front so the measured loop does nothing but
  // serve. Each result is compared and DROPPED before the next submit:
  // a steady-state client returns its buffers, which is what lets the
  // arena free lists cycle instead of draining (retaining every output
  // would force a fresh pool block per request by design).
  std::vector<nn::Tensor16> refs;
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    Rng rng(seed);
    nn::Tensor16 in({6, 8, 8});
    in.fill_random(rng);
    refs.push_back(
        runtime::run_network(net, in, ws, runtime::ExecOptions{}).output);
  }

  const std::int64_t before = alloc_stats::armed();
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    const InferenceResult res = infer(seed);
    EXPECT_EQ(res.output, refs[static_cast<std::size_t>(seed - 3)])
        << "request seed " << seed;
  }
  EXPECT_EQ(alloc_stats::armed() - before, 0)
      << "steady-state requests allocated on the worker thread";
  server.stop();
}

// ---- dispatch order and stop under load ----------------------------------

TEST(Server, PausedBacklogDrainsInSubmissionOrder) {
  const nn::Network net = tiny_net();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 9);
  ServerOptions opt;
  opt.workers = 1;
  opt.queue_depth = 8;
  Server server(net, ws, opt);
  server.pause();
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 8; ++i) {
    Submission s = server.submit(seeded_input(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(s.accepted);
    futs.push_back(std::move(s.result));
  }
  EXPECT_EQ(server.stats().mean_batch_size(), 0.0);
  server.resume();
  // One worker runs the backlog oldest first: each request is dispatched
  // only after every earlier one finished, so its queue wait covers their
  // execute times.
  double earlier_execute_us = 0.0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const InferenceResult r = futs[i].get();
    EXPECT_EQ(r.request_id, i + 1);
    EXPECT_EQ(r.worker, 0);
    EXPECT_GE(r.queue_us, earlier_execute_us) << "request " << r.request_id;
    EXPECT_GE(r.latency_us, r.execute_us);
    EXPECT_GE(r.latency_us, r.queue_us);
    earlier_execute_us += r.execute_us;
  }
  server.stop();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 8);
  EXPECT_EQ(st.peak_queue_depth, 8);
  EXPECT_EQ(st.mean_batch_size(), 1.0);
}

TEST(Server, StopUnderLoadResolvesEveryAcceptedRequest) {
  // Four clients submit in a loop while the main thread stops the server:
  // stop() must drain every accepted request, and every submit that starts
  // after stop() returned must be rejected as Stopped.
  const nn::Network net = tiny_net();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 19);
  ServerOptions opt;
  opt.workers = 2;
  opt.queue_depth = 16;
  constexpr int kInputs = 8;
  std::vector<nn::Tensor16> inputs;
  std::vector<nn::Tensor16> expected;
  {
    runtime::ExecContext serial(net, ws, opt.exec);
    for (int i = 0; i < kInputs; ++i) {
      inputs.push_back(seeded_input(static_cast<std::uint64_t>(i)));
      expected.push_back(serial.run(inputs.back()).output);
    }
  }

  Server server(net, ws, opt);
  struct Client {
    std::vector<std::pair<int, std::future<InferenceResult>>> accepted;
    std::int64_t submitted = 0;
    std::int64_t late_submits = 0;
    std::int64_t late_not_stopped = 0;  ///< late submits not rejected Stopped
  };
  std::vector<Client> clients(4);
  std::atomic<bool> stop_returned{false};
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&] {
      for (int i = 0;; ++i) {
        const bool late = stop_returned.load();
        const int input = i % kInputs;
        Submission s = server.submit(inputs[static_cast<std::size_t>(input)]);
        ++c.submitted;
        if (s.accepted) c.accepted.emplace_back(input, std::move(s.result));
        if (!late) continue;
        ++c.late_submits;
        if (s.accepted || s.reject_reason != RejectReason::Stopped)
          ++c.late_not_stopped;
        if (c.late_submits == 3) return;
      }
    });
  }
  while (server.stats().accepted < 32) std::this_thread::yield();
  // Hold dispatch until the clients fill the queue, so stop() always has a
  // full backlog to drain (it resumes a paused server).
  server.pause();
  while (server.queue_depth() < opt.queue_depth) std::this_thread::yield();
  server.stop();
  stop_returned.store(true);
  for (std::thread& t : threads) t.join();

  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  for (Client& c : clients) {
    EXPECT_EQ(c.late_submits, 3);
    EXPECT_EQ(c.late_not_stopped, 0);
    submitted += c.submitted;
    accepted += static_cast<std::int64_t>(c.accepted.size());
    for (auto& [input, fut] : c.accepted) {
      // stop() drained the queue and joined the workers before returning.
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_EQ(fut.get().output, expected[static_cast<std::size_t>(input)])
          << "input " << input;
    }
  }
  const ServerStats st = server.stats();
  EXPECT_GE(st.accepted, 32);
  EXPECT_EQ(st.accepted, accepted);
  EXPECT_EQ(st.accepted, st.completed + st.failed);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.accepted + st.rejected(), submitted);
  EXPECT_GE(st.rejected_stopped, 4 * 3);
  EXPECT_EQ(st.rejected_bad_request, 0);
}

// ---- observability --------------------------------------------------------

TEST_F(ServeObsTest, CountersBalanceAndTracksNest) {
  obs::set_enabled(true);
  const nn::Network net = tiny_net();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 13);
  ServerOptions opt;
  opt.workers = 3;
  Server server(net, ws, opt);
  constexpr int kRequests = 16;
  const auto out = serve_all(server, kRequests, 4);
  server.stop();
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kRequests));

  obs::Registry& r = obs::Registry::global();
  EXPECT_EQ(r.counter("serve/requests_accepted"), kRequests);
  EXPECT_EQ(r.counter("serve/requests_completed"), kRequests);
  EXPECT_EQ(r.counter("serve/requests_rejected"), 0);
  EXPECT_EQ(r.counter("serve/requests_failed"), 0);
  EXPECT_EQ(r.gauge("serve/queue_depth"), 0.0);
  // stop() published the latency percentiles for the metrics JSON.
  EXPECT_GT(r.gauge("serve/latency_p50_us"), 0.0);
  EXPECT_LE(r.gauge("serve/latency_p50_us"), r.gauge("serve/latency_p95_us"));
  EXPECT_LE(r.gauge("serve/latency_p95_us"), r.gauge("serve/latency_p99_us"));
  EXPECT_LE(r.gauge("serve/latency_p99_us"), r.gauge("serve/latency_max_us"));

  expect_balanced_monotonic(r.events());
  // One top-level execute span per request.
  int executes = 0;
  for (const obs::TraceEvent& e : r.events())
    if (e.ph == 'B' && e.name == "execute") ++executes;
  EXPECT_EQ(executes, kRequests);
  // Per-worker serve tracks and the metrics export both exist.
  const std::string trace = r.chrome_trace_json();
  EXPECT_NE(trace.find("serve-0"), std::string::npos);
  const obs::Metrics parsed = obs::parse_metrics_json(r.metrics_json());
  EXPECT_EQ(parsed.counters.at("serve/requests_completed"), kRequests);
}

TEST_F(ServeObsTest, WorkersShareOneWarmUp) {
  // Server() warms the model up once and every worker copies that context,
  // so the warm-up's simulator timing passes do not grow with the workers.
  obs::set_enabled(true);
  nn::Network net("serve-warm-once");
  net.add(nn::make_conv("c", 6, 8, 8, 8, 3, 1, 1));
  net.add(nn::make_matmul("fc", 8 * 8 * 8, 5, 1));
  net.validate_graph();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 11);
  const auto timing_passes = [&](int workers) {
    obs::Registry::global().reset();
    ServerOptions opt;
    opt.workers = workers;
    opt.exec.config.d1 = 4;
    opt.exec.config.d2 = 2;
    opt.exec.config.d3 = 3;
    Server server(net, ws, opt);
    server.stop();
    return obs::Registry::global().counter("sim/timing_passes");
  };
  const std::int64_t one = timing_passes(1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(timing_passes(4), one);
}

TEST_F(ServeObsTest, DisabledObsLeavesResultsIdentical) {
  const nn::Network net = tiny_net();
  const runtime::WeightStore ws = runtime::WeightStore::random_for(net, 17);

  obs::set_enabled(false);
  ServerOptions opt;
  opt.workers = 2;
  Server off(net, ws, opt);
  const auto out_off = serve_all(off, 6, 2);
  off.stop();
  EXPECT_EQ(obs::Registry::global().event_count(), 0u);

  obs::set_enabled(true);
  Server on(net, ws, opt);
  const auto out_on = serve_all(on, 6, 2);
  on.stop();

  for (const auto& [seed, expect] : out_off) {
    EXPECT_EQ(out_on.at(seed), expect) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ftdl::serve
