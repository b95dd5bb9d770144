// serve-seqcnn: Sentimental-seqCNN through serve::Server on the CycleSim
// path, driven open loop by one load-generator thread with seeded Poisson
// arrivals: a nominal-rate step, then a ladder of rising rates until the
// p99 limit or the backlog gives out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/str_util.h"
#include "compiler/session.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "serve/serve.h"
#include "trace.h"

namespace perfbench {

using namespace ftdl;

namespace {

/// The nominal rate (serve_p50_ms / serve_p99_ms): about a quarter of what
/// two workers at ~5-8 ms a request sustain.
constexpr double kNominalRps = 100.0;
/// Ladder rungs after the nominal step: kFirstRungRps * kRatio^k up to
/// kTopRps, ten times today's capacity of ~300 req/s.
constexpr double kFirstRungRps = 200.0;
constexpr double kRatio = 1.0905077326652577;  // 2^(1/8)
constexpr double kTopRps = 3200.0;
/// Latency limit on every rung's p99, timed from when a request was due.
constexpr double kP99LimitMs = 250.0;
/// A rung stops sending (its backlog is growing) once this many requests
/// wait in the admission queue: half the default depth, so the server
/// never has to reject one.
constexpr std::size_t kAbortDepth = 32;
/// Distinct seeded inputs the requests cycle through.
constexpr int kInputs = 64;

struct Step {
  double rate = 0.0;
  std::int64_t scheduled = 0, sent = 0, completed = 0;
  std::int64_t failed = 0;  ///< rejected, errored or wrong output
  bool aborted = false;
  std::int64_t backlog_end = 0;  ///< outstanding when the step's time ran out
  double late_ms_max = 0.0;
  std::vector<double> latency_ms;  ///< due -> complete; unsent count as +inf
  std::vector<double> queue_ms, execute_ms;
  std::int64_t cycles = 0;

  double p(double q) const { return percentile(latency_ms, q); }
  bool passed() const {
    return !aborted && failed == 0 && p(99.0) <= kP99LimitMs &&
           double(backlog_end) <= rate * kP99LimitMs / 1e3;
  }
};

struct Load {
  serve::Server& server;
  const std::vector<nn::Tensor16>& inputs;
  const std::vector<nn::Tensor16>& expected;
  const Options& opt;
  Tracer* tracer;
  std::uint64_t next_stream = 0;  ///< arrival-schedule stream per step
  bool corrupt_pending = false;

  /// One open-loop step at `rate` for `duration` seconds, then a drain.
  Step run(double rate, double duration, const std::string& tag) {
    Step s;
    s.rate = rate;
    Rng rng(mix_seed(opt.seed, 1'000 + ++next_stream));
    // Poisson arrivals conditioned on their count: exponential gaps scaled
    // so exactly rate * duration requests fall in the step. The rung's load
    // is then exact while the burstiness stays Poisson.
    const auto n = static_cast<std::size_t>(std::llround(rate * duration));
    std::vector<double> due_s(n);
    double t = 0.0;
    for (double& d : due_s) {
      t += -std::log(1.0 - rng.uniform01());
      d = t;
    }
    t += -std::log(1.0 - rng.uniform01());
    for (double& d : due_s) d *= duration / t;
    s.scheduled = static_cast<std::int64_t>(n);

    struct Pending {
      double due_us, sent_us;
      int input;
      std::future<serve::InferenceResult> result;
    };
    std::vector<Pending> pending;
    pending.reserve(due_s.size());
    Scope step_span(tracer, "loadgen.step", tag);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto us_since_start = [&] {
      return std::chrono::duration<double, std::micro>(Clock::now() - start)
          .count();
    };
    for (std::size_t k = 0; k < due_s.size(); ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s[k])));
      if (server.queue_depth() >= kAbortDepth) {
        s.aborted = true;
        break;
      }
      const double sent_us = us_since_start();
      s.late_ms_max = std::max(s.late_ms_max, (sent_us - due_s[k] * 1e6) / 1e3);
      const int input = static_cast<int>(rng.uniform(0, kInputs - 1));
      serve::Submission sub =
          server.submit(inputs[static_cast<std::size_t>(input)]);
      ++s.sent;
      if (!sub.accepted) {
        ++s.failed;
        continue;
      }
      pending.push_back({due_s[k] * 1e6, sent_us, input, std::move(sub.result)});
    }

    const double end_us = duration * 1e6;
    for (Pending& p : pending) {
      serve::InferenceResult r;
      try {
        r = p.result.get();
      } catch (const std::exception&) {
        ++s.failed;
        continue;
      }
      if (corrupt_pending) {
        r.output[0] ^= 1;
        corrupt_pending = false;
      }
      if (!(r.output == expected[static_cast<std::size_t>(p.input)])) {
        ++s.failed;
        continue;
      }
      ++s.completed;
      s.cycles = r.total_sim_cycles;
      const double done_us = p.sent_us + r.latency_us;
      if (done_us > end_us) ++s.backlog_end;
      s.latency_ms.push_back((done_us - p.due_us) / 1e3);
      s.queue_ms.push_back(r.queue_us / 1e3);
      s.execute_ms.push_back(r.execute_us / 1e3);
      if (tracer) {
        // Request spans on the recorder's clock, rebuilt from the step
        // start and the server-side timings.
        const double base = tracer->now_us() - us_since_start();
        const std::int64_t req = tracer->record(
            "serve.request", tag, base + p.due_us, base + done_us,
            step_span.id(), r.request_id);
        const double q0 = base + p.sent_us;
        tracer->record("serve.queue", tag, q0, q0 + r.queue_us, req,
                       r.request_id);
        tracer->record("serve.execute", tag, q0 + r.queue_us,
                       q0 + r.queue_us + r.execute_us, req, r.request_id);
      }
    }
    const std::int64_t unsent = s.scheduled - s.sent;
    s.backlog_end += unsent;
    s.latency_ms.insert(s.latency_ms.end(),
                        static_cast<std::size_t>(unsent + s.failed), 1e12);
    return s;
  }
};

/// Highest sustainable rate: the last passing rung, moved toward the first
/// failing one by where the p99 limit falls between their p99s (log scale;
/// a failing p99 is capped at the rung length, the wait of a request the
/// generator never sent). Continuous, so it does not jump a whole rung
/// when a p99 near the limit wobbles.
double max_rate(const std::vector<Step>& ladder, double rung_s) {
  if (ladder.empty()) return 0.0;
  if (!ladder.front().passed())
    return ladder.front().rate *
           std::min(1.0, kP99LimitMs / std::max(ladder.front().p(99.0), 1e-9));
  std::size_t last = 0;
  while (last + 1 < ladder.size() && ladder[last + 1].passed()) ++last;
  if (last + 1 == ladder.size()) return ladder[last].rate;
  const double lo = std::max(ladder[last].p(99.0), 1e-3);
  const double hi = std::max(std::min(ladder[last + 1].p(99.0), rung_s * 1e3),
                             kP99LimitMs);
  const double frac =
      hi > lo ? std::clamp(std::log(kP99LimitMs / lo) / std::log(hi / lo), 0.0, 1.0)
              : 0.0;
  return ladder[last].rate * std::pow(ladder[last + 1].rate / ladder[last].rate, frac);
}

void print_step(const char* what, const Step& s) {
  std::printf("  %-7s %7.1f req/s  sent %5lld  p50 %7.2f ms  p99 %8.2f ms  "
              "queue p50 %5.2f ms  execute p50 %5.2f ms  backlog_end %3lld  "
              "late_max %6.2f ms%s%s\n",
              what, s.rate, static_cast<long long>(s.sent), s.p(50.0),
              std::min(s.p(99.0), 1e9), percentile(s.queue_ms, 50.0),
              percentile(s.execute_ms, 50.0),
              static_cast<long long>(s.backlog_end), s.late_ms_max,
              s.aborted ? "  [backlog]" : "", s.passed() ? "" : "  FAIL");
}

}  // namespace

Outcome run_serve_seqcnn(const Options& opt, Tracer* tracer) {
  compiler::CompilerSession& session = compiler::CompilerSession::global();
  session.set_store(nullptr);
  const nn::Network net = nn::sentimental_seqcnn();
  const runtime::WeightStore weights =
      runtime::WeightStore::random_for(net, mix_seed(opt.seed, 2));
  serve::ServerOptions so;  // default max_batch, timeout and depth
  so.workers = 2;
  so.exec = sim_exec_options(1);

  std::vector<nn::Tensor16> inputs;
  for (int i = 0; i < kInputs; ++i)
    inputs.push_back(make_input(net, mix_seed(opt.seed, 200 + i)));

  // Set-up: Server constructor until every worker has served a request,
  // from a cold compiler cache each time.
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  const int reps = opt.short_mode || opt.trace ? 1 : 9;
  for (int i = 0; i < reps; ++i) {
    server.reset();
    session.clear_cache();
    Scope span(tracer, "setup", "serve-seqcnn");
    const auto t0 = Clock::now();
    server = std::make_unique<serve::Server>(net, weights, so);
    std::set<int> seen;
    while (static_cast<int>(seen.size()) < so.workers) {
      std::vector<serve::Submission> subs;
      for (int w = 0; w < so.workers; ++w) subs.push_back(server->submit(inputs[0]));
      for (serve::Submission& s : subs)
        if (s.accepted) seen.insert(s.result.get().worker);
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Outside the timed window: the serial outputs every served request must
  // reproduce bit for bit.
  std::vector<nn::Tensor16> expected;
  {
    Scope span(tracer, "check.serial", "seqcnn");
    runtime::ExecContext serial(net, weights, so.exec);
    for (const nn::Tensor16& in : inputs) expected.push_back(serial.run(in).output);
  }

  Load load{*server, inputs, expected, opt, tracer};
  load.corrupt_pending = opt.corrupt;
  const double nominal_s = opt.short_mode ? 0.5 : std::max(2.0, 0.7 * opt.seconds);
  const double rung_s = opt.short_mode ? 0.3 : 1.0;

  std::printf("serve-seqcnn ladder (p99 limit %.0f ms):\n", kP99LimitMs);
  std::vector<Step> ladder;
  ladder.push_back(load.run(kNominalRps, nominal_s, "nominal"));
  print_step("nominal", ladder.back());
  for (double rate = kFirstRungRps;
       ladder.back().passed() && rate <= kTopRps * 1.0001; rate *= kRatio) {
    ladder.push_back(load.run(rate, rung_s, strformat("%.0f", rate)));
    print_step("rung", ladder.back());
  }
  const Step& nominal = ladder.front();
  const double max_rps = max_rate(ladder, rung_s);

  Outcome out;
  double late_max = 0.0;
  std::int64_t backlog_end = nominal.backlog_end;
  for (const Step& s : ladder) {
    out.attempted += s.scheduled;
    out.failed += s.failed;
    late_max = std::max(late_max, s.late_ms_max);
    if (s.passed()) backlog_end = s.backlog_end;
  }

  out.add("setup_s", median(setup_s), "s");
  out.add("p50_ms", nominal.p(50.0), "ms");
  out.add("modeled_fps",
          so.exec.config.clocks.clk_h_hz / double(std::max<std::int64_t>(1, nominal.cycles)),
          "frame/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.note("serve_p50_ms", nominal.p(50.0), "ms");
  out.note("serve_p99_ms", nominal.p(99.0), "ms");
  out.note("serve_samples", double(nominal.latency_ms.size()), "count");
  out.note("serve_max_rps", max_rps, "1/s");

  if (tracer) {
    const serve::ServerStats st = server->stats();
    // serve_p99_ms and serve_max_rps: too noisy run to run on a shared
    // 4-core VM to gate as end-to-end metrics, so they are reported here
    // and in the report.
    out.layer("serve.latency_ms_p99", nominal.p(99.0), "ms");
    out.layer("serve.max_rps", max_rps, "1/s");
    out.layer("serve.queue_ms_p50", percentile(nominal.queue_ms, 50.0), "ms");
    out.layer("serve.queue_ms_p99", percentile(nominal.queue_ms, 99.0), "ms");
    out.layer("serve.execute_ms_p50", percentile(nominal.execute_ms, 50.0), "ms");
    out.layer("serve.execute_ms_p99", percentile(nominal.execute_ms, 99.0), "ms");
    out.layer("serve.mean_batch", st.mean_batch_size(), "count");
    out.layer("serve.peak_queue_depth", double(st.peak_queue_depth), "count");
    out.layer("serve.rejected", double(st.rejected()), "count");
    out.layer("serve.backlog_end", double(backlog_end), "count");
    out.layer("loadgen.late_ms_max", late_max, "ms");

    // obs phase at the nominal rate: off, in-memory store, stream to a
    // file. Its figures stay out of the end-to-end metrics.
    obs::Registry& reg = obs::Registry::global();
    const double obs_s = opt.short_mode ? 0.5 : std::max(2.0, 0.2 * opt.seconds);
    const Step off = load.run(kNominalRps, obs_s, "obs-off");
    reg.reset();
    obs::set_enabled(true);
    const Step mem = load.run(kNominalRps, obs_s, "obs-memory");
    obs::set_enabled(false);
    const double events = double(reg.event_count());
    const double dropped = double(reg.counter("obs/dropped_events"));
    reg.reset();
    const std::string stream_path = opt.out_dir + "/obs_phase.stream";
    obs::set_enabled(true, stream_path);
    const Step streamed = load.run(kNominalRps, obs_s, "obs-stream");
    obs::set_enabled(false);
    reg.reset();
    std::remove(stream_path.c_str());
    for (const Step* s : {&off, &mem, &streamed}) {
      print_step("obs", *s);
      out.attempted += s->scheduled;
      out.failed += s->failed;
    }
    const double base = std::max(off.p(50.0), 1e-9);
    out.layer("obs.overhead_pct.memory", (mem.p(50.0) / base - 1.0) * 100.0, "%");
    out.layer("obs.overhead_pct.stream", (streamed.p(50.0) / base - 1.0) * 100.0,
              "%");
    out.layer("obs.events", events, "count");
    out.layer("obs.dropped_events", dropped, "count");
  }
  server->stop();
  return out;
}

}  // namespace perfbench
