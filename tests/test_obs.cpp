// ftdl::obs — exporter schemas, round-tripping, the simulator's one span per
// timing pass, and the zero-interference guarantee (observability on/off
// leaves simulator outputs bit-identical). Spans are read back through a
// recorded log (obs_log.h), which also checks balance and monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "nn/layer.h"
#include "obs/obs.h"
#include "obs_log.h"
#include "sim/ftdl_sim.h"
#include "sim_run.h"

namespace {

using namespace ftdl;

/// Every test runs against the (shared) global registry: start clean, leave
/// collection off for the rest of the suite.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
};

arch::OverlayConfig small_config() {
  arch::OverlayConfig c;
  c.d1 = 4;
  c.d2 = 2;
  c.d3 = 3;
  c.actbuf_words = 128;
  c.wbuf_words = 1024;
  c.psumbuf_words = 2048;
  c.clocks = fpga::ClockPair::from_high(650e6);
  return c;
}

compiler::LayerProgram small_conv_program() {
  const nn::Layer layer = nn::make_conv("obs_conv", 8, 10, 10, 12, 3, 1, 1);
  return compiler::compile_layer(layer, small_config(),
                                 compiler::Objective::Performance, 8'000);
}

SimRun simulate_small_conv() {
  const arch::OverlayConfig cfg = small_config();
  const compiler::LayerProgram prog = small_conv_program();
  Rng rng(7);
  nn::Tensor16 input({8, 10, 10});
  nn::Tensor16 weights({12, 8, 3, 3});
  input.fill_random(rng);
  weights.fill_random(rng);
  return simulate(prog, cfg, weights, input);
}

TEST_F(ObsTest, CountersAccumulateAndGaugesOverwrite) {
  obs::Registry& r = obs::Registry::global();
  obs::set_enabled(true);
  obs::count("a/b", 2);
  obs::count("a/b", 3);
  obs::gauge("x/y", 1.5);
  obs::gauge("x/y", 2.5);
  EXPECT_EQ(r.counter("a/b"), 5);
  EXPECT_DOUBLE_EQ(r.gauge("x/y"), 2.5);
  EXPECT_EQ(r.counter("missing"), 0);
}

TEST_F(ObsTest, ConvenienceWrappersAreNoOpsWhenDisabled) {
  obs::count("a/b", 7);
  obs::gauge("x/y", 3.0);
  { obs::ScopedSpan span("test", "noop"); }
  obs::Registry& r = obs::Registry::global();
  EXPECT_EQ(r.counter("a/b"), 0);
  EXPECT_EQ(r.event_count(), 0u);
  EXPECT_TRUE(r.metrics().gauges.empty());
}

// Golden test: the exact trace-event document emitted for a small
// hand-built trace. Pins the ftdl-trace-v1 schema — field names, metadata
// records, B/E shape — so exporter changes are deliberate.
TEST_F(ObsTest, GoldenChromeTraceDocument) {
  const obs::stream::ReconstructedLog rec = record_log([] {
    obs::Registry& r = obs::Registry::global();
    const std::uint32_t t = r.track("sim:layer0", "LoopT bursts");
    r.begin(t, "burst", 10.0, "sim", {{"layer", "conv1"}});
    r.end(t, 12.5);
  });

  const char* expected =
      "{\n"
      "\"otherData\": {\"schema\": \"ftdl-trace-v1\"},\n"
      "\"displayTimeUnit\": \"ms\",\n"
      "\"traceEvents\": [\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"sim:layer0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"LoopT bursts\"}},\n"
      "{\"ph\":\"B\",\"name\":\"burst\",\"cat\":\"sim\",\"ts\":10,\"pid\":1,"
      "\"tid\":1,\"args\":{\"layer\":\"conv1\"}},\n"
      "{\"ph\":\"E\",\"ts\":12.5,\"pid\":1,\"tid\":1}\n"
      "]\n"
      "}\n";
  EXPECT_EQ(obs::render_chrome_trace(rec.tracks, rec.events), expected);
}

// Golden test: the exact metrics document. Pins the ftdl-metrics-v1 schema.
TEST_F(ObsTest, GoldenMetricsDocument) {
  obs::set_enabled(true);
  obs::count("sim/cycles", 42);
  obs::gauge("host/frame_seconds", 0.25);

  const char* expected =
      "{\n"
      "\"schema\": \"ftdl-metrics-v1\",\n"
      "\"counters\": {\n"
      "  \"sim/cycles\": 42\n"
      "},\n"
      "\"gauges\": {\n"
      "  \"host/frame_seconds\": 0.25\n"
      "}\n"
      "}\n";
  EXPECT_EQ(obs::Registry::global().metrics_json(), expected);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  obs::set_enabled(true);
  obs::Registry& r = obs::Registry::global();
  obs::count("sim/cycles", 123456789012345LL);
  obs::count("compiler/layers_compiled", -3);  // negative stays exact
  obs::gauge("host/ratio", 0.1);               // not exactly representable
  obs::gauge("multifpga/tiny", 1.25e-9);
  obs::gauge("neg", -123.625);

  const obs::Metrics parsed = obs::parse_metrics_json(r.metrics_json());
  EXPECT_EQ(parsed.counters, r.metrics().counters);
  ASSERT_EQ(parsed.gauges.size(), r.metrics().gauges.size());
  for (const auto& [name, value] : r.metrics().gauges) {
    ASSERT_TRUE(parsed.gauges.count(name)) << name;
    EXPECT_EQ(parsed.gauges.at(name), value) << name;  // bit-exact round-trip
  }
}

TEST_F(ObsTest, ParseRejectsForeignDocuments) {
  EXPECT_THROW(obs::parse_metrics_json("{\"schema\": \"other\"}"), Error);
  EXPECT_THROW(obs::parse_metrics_json("not json"), Error);
}

/// The `sim:` process spans of a replayed log, B events only.
std::vector<obs::TraceEvent> sim_spans(const obs::stream::ReconstructedLog& rec) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : rec.events) {
    if (e.ph != 'B') continue;
    for (const obs::TrackNames& t : rec.tracks)
      if (t.pid == e.pid && t.process.rfind("sim:", 0) == 0) out.push_back(e);
  }
  return out;
}

TEST_F(ObsTest, SimulatorTraceIsBalancedAndMonotonic) {
  const obs::stream::ReconstructedLog rec =
      record_log([] { simulate_small_conv(); });
  EXPECT_EQ(sim_spans(rec).size(), 1u);

  // The pass span and the summary counters both landed.
  obs::Registry& r = obs::Registry::global();
  EXPECT_GT(r.counter("sim/layers_simulated"), 0);
  EXPECT_GT(r.counter("sim/cycles"), 0);
  EXPECT_GT(r.counter("compiler/layers_compiled"), 0);
  const std::string json = obs::render_chrome_trace(rec.tracks, rec.events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"timing_pass\""), std::string::npos);
}

TEST_F(ObsTest, ResimulatingALayerKeepsTracksMonotonic) {
  // Same layer name twice: each pass must land on a fresh track.
  const obs::stream::ReconstructedLog rec = record_log([] {
    simulate_small_conv();
    simulate_small_conv();
  });
  const std::vector<obs::TraceEvent> spans = sim_spans(rec);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].pid, spans[1].pid);
}

TEST_F(ObsTest, EachTimingPassIsOneSpanCarryingItsStats) {
  const arch::OverlayConfig cfg = small_config();
  const compiler::LayerProgram prog = small_conv_program();
  ASSERT_EQ(prog.weight_groups, 1);  // one part: the runner times one pass
  std::vector<sim::SimStats> passes;
  const obs::stream::ReconstructedLog rec = record_log([&] {
    passes.push_back(sim::CachedLayerSim(prog, cfg).stats());
    passes.push_back(sim::simulate_layer_stats(prog, cfg).stats);
  });
  EXPECT_EQ(obs::Registry::global().counter("sim/timing_passes"), 2);

  const std::vector<obs::TraceEvent> spans = sim_spans(rec);
  ASSERT_EQ(spans.size(), passes.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SCOPED_TRACE(i);
    const obs::TraceEvent& b = spans[i];
    const sim::SimStats& st = passes[i];
    EXPECT_EQ(b.name, "timing_pass");
    EXPECT_EQ(b.cat, "sim");
    EXPECT_EQ(b.ts, 0.0);
    std::map<std::string, std::int64_t> arg;
    for (const auto& [k, v] : b.args) arg[k] = std::stoll(v);
    EXPECT_EQ(arg.size(), 8u);
    EXPECT_EQ(arg["compute_cycles"], st.compute_cycles);
    EXPECT_EQ(arg["act_stall_cycles"], st.act_stall_cycles);
    EXPECT_EQ(arg["psum_stall_cycles"], st.psum_stall_cycles);
    EXPECT_EQ(arg["act_refills"], st.act_refills);
    EXPECT_EQ(arg["psum_drains"], st.psum_drains);
    // Every LoopL iteration repeats one burst and one fetch.
    EXPECT_EQ(st.compute_cycles, st.act_refills * arg["burst_cycles"]);
    EXPECT_EQ(st.act_stall_cycles,
              st.act_refills *
                  std::max<std::int64_t>(
                      0, arg["fetch_cycles"] - arg["burst_cycles"]));
    EXPECT_GT(arg["drain_cycles"], 0);
    // The span closes at the pass's cycle count, on its own track.
    const auto end = std::find_if(
        rec.events.begin(), rec.events.end(), [&](const obs::TraceEvent& e) {
          return e.ph == 'E' && e.pid == b.pid && e.tid == b.tid;
        });
    ASSERT_NE(end, rec.events.end());
    EXPECT_EQ(end->ts, double(st.cycles));
  }
}

TEST_F(ObsTest, DisablingObservabilityLeavesSimOutputsBitIdentical) {
  const SimRun off = simulate_small_conv();
  EXPECT_EQ(obs::Registry::global().event_count(), 0u);

  obs::set_enabled(true);
  const SimRun on = simulate_small_conv();
  EXPECT_GT(obs::Registry::global().event_count(), 0u);

  ASSERT_EQ(off.output.size(), on.output.size());
  for (std::int64_t i = 0; i < off.output.size(); ++i) {
    ASSERT_EQ(off.output[i], on.output[i]) << "output diverges at " << i;
  }
  EXPECT_EQ(off.stats.cycles, on.stats.cycles);
  EXPECT_EQ(off.stats.compute_cycles, on.stats.compute_cycles);
  EXPECT_EQ(off.stats.act_stall_cycles, on.stats.act_stall_cycles);
  EXPECT_EQ(off.stats.psum_stall_cycles, on.stats.psum_stall_cycles);
  EXPECT_EQ(off.stats.valid_maccs, on.stats.valid_maccs);
  EXPECT_EQ(off.stats.padded_maccs, on.stats.padded_maccs);
}

TEST_F(ObsTest, UnmatchedEndIsDroppedAndCounted) {
  obs::set_enabled(true);
  obs::Registry& r = obs::Registry::global();
  const std::uint32_t t = r.track("p", "t");
  r.end(t, 1.0);
  EXPECT_EQ(r.event_count(), 0u);
  EXPECT_EQ(r.counter("obs/unbalanced_ends"), 1);
}

TEST_F(ObsTest, ScopedSpansNestOnTheHostTrack) {
  const obs::stream::ReconstructedLog rec = record_log([] {
    obs::ScopedSpan outer("compiler", "outer");
    obs::ScopedSpan inner("compiler", "inner");
  });
  EXPECT_EQ(obs::Registry::global().event_count(), 4u);
  ASSERT_EQ(rec.events.size(), 4u);
  EXPECT_EQ(rec.events[0].name, "outer");
  EXPECT_EQ(rec.events[1].name, "inner");
  ASSERT_EQ(rec.tracks.size(), 1u);
  EXPECT_EQ(rec.tracks[0].process, "host");
  EXPECT_EQ(rec.tracks[0].thread, "main");
}

}  // namespace
