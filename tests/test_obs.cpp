// ftdl::obs — exporter schemas, round-tripping, and the zero-interference
// guarantee (observability on/off leaves simulator outputs bit-identical).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "nn/layer.h"
#include "obs/obs.h"
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

SimRun simulate_small_conv() {
  const nn::Layer layer = nn::make_conv("obs_conv", 8, 10, 10, 12, 3, 1, 1);
  const arch::OverlayConfig cfg = small_config();
  const compiler::LayerProgram prog =
      compiler::compile_layer(layer, cfg, compiler::Objective::Performance,
                              8'000);
  Rng rng(7);
  nn::Tensor16 input({8, 10, 10});
  nn::Tensor16 weights({12, 8, 3, 3});
  input.fill_random(rng);
  weights.fill_random(rng);
  return simulate(prog, cfg, weights, input);
}

/// Walks recorded events and checks the Chrome trace-event invariants: on
/// every track, timestamps are monotonic and B/E pairs nest and balance.
void expect_balanced_monotonic(const std::vector<obs::TraceEvent>& events) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> depth;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> last_ts;
  for (const obs::TraceEvent& e : events) {
    const auto key = std::make_pair(e.pid, e.tid);
    if (last_ts.count(key)) {
      EXPECT_GE(e.ts, last_ts[key]) << "non-monotonic timestamp on track "
                                    << e.pid << "/" << e.tid;
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
  obs::set_enabled(true);
  obs::Registry& r = obs::Registry::global();
  const std::uint32_t t = r.track("sim:layer0", "LoopT bursts");
  r.begin(t, "burst", 10.0, "sim", {{"layer", "conv1"}});
  r.end(t, 12.5);

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
  EXPECT_EQ(r.chrome_trace_json(), expected);
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

TEST_F(ObsTest, SimulatorTraceIsBalancedAndMonotonic) {
  obs::set_enabled(true);
  simulate_small_conv();
  obs::Registry& r = obs::Registry::global();
  ASSERT_GT(r.event_count(), 0u);
  expect_balanced_monotonic(r.events());

  // The per-unit timelines and the summary counters both landed.
  EXPECT_GT(r.counter("sim/layers_simulated"), 0);
  EXPECT_GT(r.counter("sim/cycles"), 0);
  EXPECT_GT(r.counter("compiler/layers_compiled"), 0);
  const std::string json = r.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("LoopT bursts"), std::string::npos);
  EXPECT_NE(json.find("PSumBUF drains"), std::string::npos);
}

TEST_F(ObsTest, ResimulatingALayerKeepsTracksMonotonic) {
  obs::set_enabled(true);
  simulate_small_conv();
  simulate_small_conv();  // same layer name: must land on fresh tracks
  expect_balanced_monotonic(obs::Registry::global().events());
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

TEST_F(ObsTest, CapacityDropsWholeSpansAndCountsThem) {
  obs::set_enabled(true);
  obs::Registry& r = obs::Registry::global();
  r.set_capacity(16);
  const std::uint32_t t = r.track("cap", "spans");
  for (int i = 0; i < 100; ++i) {
    r.begin(t, "s", double(i), "test");
    r.end(t, double(i));
  }
  expect_balanced_monotonic(r.events());
  EXPECT_LT(r.event_count(), 32u);
  EXPECT_GT(r.counter("obs/dropped_events"), 0);
  r.set_capacity(1u << 20);
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
  obs::set_enabled(true);
  {
    obs::ScopedSpan outer("compiler", "outer");
    obs::ScopedSpan inner("compiler", "inner");
  }
  obs::Registry& r = obs::Registry::global();
  ASSERT_EQ(r.event_count(), 4u);
  expect_balanced_monotonic(r.events());
  EXPECT_EQ(r.events()[0].name, "outer");
  EXPECT_EQ(r.events()[1].name, "inner");
}

}  // namespace
