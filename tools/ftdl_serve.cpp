// ftdl-serve — batched concurrent inference serving demo (docs/serving.md).
//
// Stands up an ftdl::serve::Server over a model-zoo network (or an .ftdl
// spec), drives it with a multi-client load generator — closed-loop by
// default, fixed-rate with --rate — and reports throughput, batching and
// latency percentiles. Requests run on the cycle-level simulator over a
// scaled-down 4x2x3 overlay. With observability on it also writes
//   trace.json    enqueue/batch/execute spans on client and worker tracks
//   metrics.json  serve/* counters, queue-depth and latency gauges
//
//   ftdl-serve [MODEL] [options]
//     MODEL            Table I model name (default Sentimental-seqCNN)
//                      or a .ftdl network-spec path
//     --list           list the model zoo and exit
//     --requests N     total requests to submit        (default 16)
//     --clients N      load-generator threads          (default 4)
//     --workers N      server worker threads           (default 2)
//     --batch N        max dynamic batch size          (default 8)
//     --timeout-us N   batch coalescing timeout        (default 2000)
//     --depth N        admission queue depth           (default 64)
//     --rate R         submissions/sec across all clients (0 = closed loop)
//     --seed N         request input seed base         (default 1)
//     --check          verify outputs bit-identical to a workers=1 rerun
//     --trace FILE     trace output path               (default trace.json)
//     --metrics FILE   metrics output path             (default metrics.json)
//     --stream FILE    also record an ftdl-stream-v1 binary event log
//                      (docs/obs-stream-format.md); replay/verify it with
//                      ftdl-obsq (docs/operations.md)
//     --cache-dir DIR  persistent program cache (FTDL_CACHE_DIR env); a
//                      restarted server warm-starts its compiles from disk
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "compiler/program_store.h"
#include "compiler/session.h"
#include "frontend/spec_parser.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "obs/stream_writer.h"
#include "serve/serve.h"

namespace {

using namespace ftdl;

struct Args {
  std::string model = "Sentimental-seqCNN";
  std::string trace_path = "trace.json";
  std::string metrics_path = "metrics.json";
  std::string stream_path;  ///< empty = no binary event log
  int requests = 16;
  int clients = 4;
  int workers = 2;
  int max_batch = 8;
  std::int64_t timeout_us = 2'000;
  std::size_t depth = 64;
  double rate = 0.0;  ///< 0 = closed loop
  std::uint64_t seed = 1;
  std::string cache_dir;
  bool check = false;
  bool list = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "ftdl-serve: %s\n", msg);
  std::fprintf(stderr,
               "usage: ftdl-serve [MODEL|SPEC.ftdl] [--requests N] "
               "[--clients N] [--workers N]\n"
               "                  [--batch N] [--timeout-us N] [--depth N] "
               "[--rate R] [--seed N]\n"
               "                  [--check] [--trace FILE] [--metrics FILE] "
               "[--stream FILE]\n"
               "                  [--cache-dir DIR] [--list]\n");
  std::exit(2);
}

/// Strict flag parsing (common/str_util): `--workers x8` is a usage error,
/// never a silent 0.
std::int64_t parse_int_flag(const char* opt, const char* s, std::int64_t min_v,
                            std::int64_t max_v) {
  std::int64_t v = 0;
  if (!parse_int_strict(s, min_v, max_v, &v)) {
    usage((std::string(opt) + " needs an integer in [" +
           std::to_string(min_v) + ", " + std::to_string(max_v) + "], got '" +
           s + "'")
              .c_str());
  }
  return v;
}

double parse_nonneg_double_flag(const char* opt, const char* s) {
  double v = 0.0;
  if (!parse_double_strict(s, &v) || v < 0.0) {
    usage((std::string(opt) + " needs a non-negative number, got '" + s + "'")
              .c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--requests") == 0)
      args.requests = static_cast<int>(parse_int_flag(a, next(i), 1, 1'000'000));
    else if (std::strcmp(a, "--clients") == 0)
      args.clients = static_cast<int>(parse_int_flag(a, next(i), 1, 10'000));
    else if (std::strcmp(a, "--workers") == 0)
      args.workers = static_cast<int>(parse_int_flag(a, next(i), 1, 10'000));
    else if (std::strcmp(a, "--batch") == 0)
      args.max_batch = static_cast<int>(parse_int_flag(a, next(i), 1, 100'000));
    else if (std::strcmp(a, "--timeout-us") == 0)
      args.timeout_us = parse_int_flag(a, next(i), 0, 1'000'000'000);
    else if (std::strcmp(a, "--depth") == 0)
      args.depth =
          static_cast<std::size_t>(parse_int_flag(a, next(i), 1, 1'000'000));
    else if (std::strcmp(a, "--rate") == 0)
      args.rate = parse_nonneg_double_flag(a, next(i));
    else if (std::strcmp(a, "--seed") == 0)
      args.seed = static_cast<std::uint64_t>(
          parse_int_flag(a, next(i), 0, 9'223'372'036'854'775'807LL));
    else if (std::strcmp(a, "--cache-dir") == 0) args.cache_dir = next(i);
    else if (std::strcmp(a, "--check") == 0) args.check = true;
    else if (std::strcmp(a, "--trace") == 0) args.trace_path = next(i);
    else if (std::strcmp(a, "--metrics") == 0) args.metrics_path = next(i);
    else if (std::strcmp(a, "--stream") == 0) args.stream_path = next(i);
    else if (std::strcmp(a, "--list") == 0) args.list = true;
    else if (a[0] == '-') usage(("unknown option " + std::string(a)).c_str());
    else args.model = a;
  }
  if (args.requests < 1) usage("--requests must be >= 1");
  if (args.clients < 1) usage("--clients must be >= 1");
  return args;
}

nn::Network load_network(const std::string& model) {
  if (model.size() > 5 && model.substr(model.size() - 5) == ".ftdl") {
    std::ifstream in(model);
    if (!in) throw Error("cannot open spec " + model);
    std::ostringstream text;
    text << in.rdbuf();
    return frontend::parse_network_spec(text.str());
  }
  return nn::model_by_name(model);
}

nn::Tensor16 request_input(const nn::Network& net, std::uint64_t seed) {
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 input =
      first.kind == nn::LayerKind::MatMul
          ? nn::Tensor16({static_cast<int>(first.mm_m),
                          static_cast<int>(first.mm_p)})
          : nn::Tensor16({first.in_c, first.in_h, first.in_w});
  Rng rng(seed);
  input.fill_random(rng);
  return input;
}

struct LoadResult {
  std::vector<nn::Tensor16> outputs;  ///< indexed by request; empty if lost
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  double wall_seconds = 0.0;
};

/// Submits `n` seeded requests from `clients` threads. Closed loop when
/// rate == 0 (each client waits for its result before the next submit);
/// otherwise open loop paced to `rate` submissions/sec overall, collecting
/// futures as they resolve. Rejected submissions (backpressure) are counted
/// and not retried.
LoadResult run_load(serve::Server& server, const nn::Network& net,
                    const Args& args) {
  LoadResult lr;
  lr.outputs.resize(static_cast<std::size_t>(args.requests));
  std::atomic<int> next{0};
  std::atomic<std::int64_t> rejected{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(args.clients));
  for (int c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c] {
      obs::set_thread_track_name("client-" + std::to_string(c));
      std::vector<std::pair<int, std::future<serve::InferenceResult>>> open;
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= args.requests) break;
        if (args.rate > 0.0) {
          // Fixed-rate pacing: request i is due at start + i/rate.
          const auto due =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(double(i) / args.rate));
          std::this_thread::sleep_until(due);
        }
        serve::Submission s =
            server.submit(request_input(net, args.seed + std::uint64_t(i)));
        if (!s.accepted) {
          rejected.fetch_add(1);
          continue;
        }
        if (args.rate > 0.0) {
          open.emplace_back(i, std::move(s.result));
        } else {
          lr.outputs[static_cast<std::size_t>(i)] = s.result.get().output;
        }
      }
      for (auto& [i, fut] : open) {
        lr.outputs[static_cast<std::size_t>(i)] = fut.get().output;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  lr.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  lr.submitted = args.requests;
  lr.rejected = rejected.load();
  return lr;
}

serve::ServerOptions server_options(const Args& args) {
  serve::ServerOptions opt;
  opt.workers = args.workers;
  opt.max_batch = args.max_batch;
  opt.batch_timeout_us = args.timeout_us;
  opt.queue_depth = args.depth;
  // Scaled-down overlay: the functional simulator executes every MACC.
  opt.exec.config.d1 = 4;
  opt.exec.config.d2 = 2;
  opt.exec.config.d3 = 3;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list) {
    for (const nn::Network& net : nn::mlperf_models()) {
      std::printf("%s\n", net.name().c_str());
    }
    return 0;
  }

  try {
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    // Attach the streaming backend (when requested) after the reset so the
    // log sees the run from its first event.
    obs::set_enabled(true, args.stream_path);

    const std::string cache_dir = compiler::resolve_cache_dir(args.cache_dir);
    if (!cache_dir.empty()) {
      compiler::CompilerSession::global().set_store(
          std::make_shared<compiler::ProgramStore>(cache_dir));
    }

    const nn::Network net = load_network(args.model);
    const runtime::WeightStore weights =
        runtime::WeightStore::random_for(net, args.seed + 1'000);

    std::printf("ftdl-serve: %s, %d requests from %d clients (%s)\n",
                net.name().c_str(), args.requests, args.clients,
                args.rate > 0.0 ? "fixed-rate" : "closed-loop");

    serve::Server server(net, weights, server_options(args));
    const LoadResult lr = run_load(server, net, args);
    server.stop();
    const serve::ServerStats st = server.stats();

    std::printf("  %lld completed, %lld rejected, %lld failed in %.3f s "
                "(%.1f req/s)\n",
                static_cast<long long>(st.completed),
                static_cast<long long>(lr.rejected),
                static_cast<long long>(st.failed), lr.wall_seconds,
                double(st.completed) / lr.wall_seconds);
    std::printf("  batches: %lld (mean size %.2f, max %lld), peak queue %lld\n",
                static_cast<long long>(st.batches), st.mean_batch_size(),
                static_cast<long long>(st.max_batch_observed),
                static_cast<long long>(st.peak_queue_depth));
    std::printf("  latency us: p50 %.0f  p95 %.0f  p99 %.0f  max %.0f\n",
                st.latency.percentile(50.0), st.latency.percentile(95.0),
                st.latency.percentile(99.0), st.latency.max_us());

    if (!cache_dir.empty()) {
      const compiler::SessionStats cs =
          compiler::CompilerSession::global().stats();
      std::printf(
          "  cache %s: disk_hits=%lld disk_misses=%lld disk_evictions=%lld "
          "disk_bytes=%lld\n",
          cache_dir.c_str(), static_cast<long long>(cs.disk_hits),
          static_cast<long long>(cs.disk_misses),
          static_cast<long long>(cs.disk_evictions),
          static_cast<long long>(cs.disk_bytes));
    }

    if (args.check) {
      // Replay the same request set on a serial server: every output the
      // concurrent run produced must be bit-identical (docs/serving.md).
      serve::ServerOptions serial = server_options(args);
      serial.workers = 1;
      serial.max_batch = 1;
      serial.batch_timeout_us = 0;
      serve::Server ref(net, weights, serial);
      std::int64_t checked = 0;
      for (int i = 0; i < args.requests; ++i) {
        if (lr.outputs[static_cast<std::size_t>(i)].size() == 0) continue;
        serve::Submission s =
            ref.submit(request_input(net, args.seed + std::uint64_t(i)));
        if (!s.accepted) throw Error("check rerun rejected a request");
        if (!(s.result.get().output == lr.outputs[static_cast<std::size_t>(i)]))
          throw Error("determinism check FAILED at request " +
                      std::to_string(i));
        ++checked;
      }
      ref.stop();
      std::printf("  check: %lld outputs bit-identical to workers=1\n",
                  static_cast<long long>(checked));
    }

    reg.write_chrome_trace(args.trace_path);
    reg.write_metrics(args.metrics_path);
    std::printf("wrote %s (%zu events) and %s\n", args.trace_path.c_str(),
                reg.event_count(), args.metrics_path.c_str());
    if (reg.stream_attached()) {
      const obs::stream::StreamStats ss = reg.detach_stream();
      std::printf("wrote %s (%llu records, %llu chunks, %llu bytes)\n",
                  args.stream_path.c_str(),
                  static_cast<unsigned long long>(ss.records),
                  static_cast<unsigned long long>(
                      ss.data_chunks + ss.string_chunks),
                  static_cast<unsigned long long>(ss.bytes_written));
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdl-serve: %s\n", e.what());
    return 1;
  }
}
