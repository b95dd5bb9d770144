// Tests for ftdl::analyze — a cleanly scheduled network must pass, and
// every network-level check class must fire on a targeted mutation of one
// property (mirroring tests/test_verify.cpp for the per-stream checks).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analyze/analyze.h"
#include "analyze/network_io.h"
#include "arch/overlay_config.h"
#include "common/error.h"
#include "compiler/scheduler.h"
#include "multifpga/partition.h"
#include "nn/layer.h"
#include "nn/model_zoo.h"
#include "nn/network.h"

namespace ftdl {
namespace {

using analyze::AnalysisResult;
using analyze::Check;
using analyze::GraphStrictness;
using analyze::ScheduledNetwork;

arch::OverlayConfig cfg() { return arch::paper_config(); }

/// LeNet-style 4-layer chain: enough overlay layers to schedule, pool, and
/// partition, small enough to compile in milliseconds per test.
nn::Network tiny_net() {
  nn::Network net("t_net");
  net.add(nn::make_conv("c1", 1, 28, 28, 6, 5, 1, 2));
  net.add(nn::make_pool("p1", 6, 28, 28, 2, 2));
  net.add(nn::make_conv("c2", 6, 14, 14, 16, 5, 1, 0));
  net.add(nn::make_matmul("f1", 16 * 10 * 10, 10, 1));
  return net;
}

/// Compiles tiny_net and plans its memory (the global CompilerSession
/// caches the layer searches, so repeated calls are cheap).
ScheduledNetwork scheduled() {
  const nn::Network net = tiny_net();
  return analyze::make_scheduled(
      net, compiler::schedule_network(net, cfg(),
                                      compiler::Objective::Performance,
                                      2'000));
}

bool fires(const AnalysisResult& r, Check check) {
  return std::any_of(
      r.diagnostics.begin(), r.diagnostics.end(),
      [&](const analyze::Diagnostic& d) { return d.check == check; });
}

analyze::TensorPlan& tensor_of(ScheduledNetwork& sn,
                               const std::string& producer) {
  for (analyze::TensorPlan& t : sn.memory.tensors) {
    if (t.producer == producer) return t;
  }
  ADD_FAILURE() << "no planned tensor for " << producer;
  static analyze::TensorPlan dummy;
  return dummy;
}

// ---- golden artifacts -------------------------------------------------------

TEST(Analyze, CleanScheduledNetworkPasses) {
  const ScheduledNetwork sn = scheduled();
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.errors(), 0);
  EXPECT_EQ(r.warnings(), 0) << r.to_string();
  EXPECT_NO_THROW(analyze::assert_network_analyzed(sn));
}

TEST(Analyze, MemoryPlanReusesDeadRanges) {
  // The planner must alias disjoint-lifetime tensors (that is what makes
  // the overlap check meaningful): the image is smaller than the naive
  // no-reuse layout, yet the overlap check still passes.
  const ScheduledNetwork sn = scheduled();
  std::uint64_t naive = 0;
  for (const analyze::WeightPlan& w : sn.memory.weights) naive += w.range.words;
  for (const analyze::TensorPlan& t : sn.memory.tensors) naive += t.range.words;
  EXPECT_LT(sn.memory.image_words, naive);
  EXPECT_TRUE(analyze::analyze_network(sn).ok());
}

TEST(Analyze, TensorElemsDerivesThroughHostLayers) {
  nn::Network net("t_concat");
  net.add(nn::make_conv("a", 3, 8, 8, 4, 3, 1, 1));
  net.add(nn::with_inputs(nn::make_conv("b", 3, 8, 8, 4, 3, 1, 1),
                          {nn::kNetworkInput}));
  net.add(nn::make_concat("cat", {"a", "b"}));
  EXPECT_EQ(analyze::network_input_elems(net), 3 * 8 * 8);
  EXPECT_EQ(analyze::tensor_elems(net, 2),
            net.layers()[0].out_elems() + net.layers()[1].out_elems());
}

// ---- memory-family mutations ------------------------------------------------

TEST(Analyze, MissingTensorRangeFires) {
  ScheduledNetwork sn = scheduled();
  sn.memory.tensors.erase(sn.memory.tensors.begin());
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::MissingTensorRange)) << r.to_string();
  EXPECT_THROW(analyze::assert_network_analyzed(sn), InternalError);
}

TEST(Analyze, DuplicateTensorRangeFires) {
  ScheduledNetwork sn = scheduled();
  sn.memory.tensors.push_back(sn.memory.tensors.front());
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::DuplicateTensorRange)) << r.to_string();
}

TEST(Analyze, TensorOutOfImageFires) {
  ScheduledNetwork sn = scheduled();
  tensor_of(sn, "c1").range.base = sn.memory.image_words;
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::TensorOutOfImage)) << r.to_string();
}

TEST(Analyze, TensorRangeUnderflowFires) {
  ScheduledNetwork sn = scheduled();
  tensor_of(sn, "c2").range.words /= 2;
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::TensorRangeUnderflow)) << r.to_string();
}

TEST(Analyze, TensorOverlapFires) {
  // p1 consumes c1, so both are live at p1's step: same base must alias.
  ScheduledNetwork sn = scheduled();
  tensor_of(sn, "p1").range.base = tensor_of(sn, "c1").range.base;
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::TensorOverlap)) << r.to_string();
}

TEST(Analyze, DisjointLifetimeAliasIsLegal) {
  // @input dies once c1 ran; c2's tensor may (and in the planned layout
  // does) reuse that space without an overlap diagnostic.
  ScheduledNetwork sn = scheduled();
  EXPECT_EQ(tensor_of(sn, nn::kNetworkInput).range.base,
            tensor_of(sn, "c2").range.base);
  EXPECT_TRUE(analyze::analyze_network(sn).ok());
}

TEST(Analyze, DtypeMismatchFires) {
  ScheduledNetwork sn = scheduled();
  tensor_of(sn, "c1").elem_words = 2;
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::DtypeMismatch)) << r.to_string();
}

TEST(Analyze, WeightFootprintMismatchFires) {
  ScheduledNetwork sn = scheduled();
  ASSERT_FALSE(sn.memory.weights.empty());
  sn.memory.weights.front().range.words -= 1;
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::WeightFootprintMismatch)) << r.to_string();
}

TEST(Analyze, WbufResidencyOverflowFires) {
  ScheduledNetwork sn = scheduled();
  sn.schedule.config.wbuf_words = 0;  // no WBUF capacity at all
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::WbufResidencyOverflow)) << r.to_string();
}

TEST(Analyze, DramOverreadFires) {
  // c1's stream reads the whole padded input window; shrinking the @input
  // range below that read footprint must be reported.
  ScheduledNetwork sn = scheduled();
  tensor_of(sn, nn::kNetworkInput).range.words = 10;
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::DramOverread)) << r.to_string();
}

// ---- graph-family mutations -------------------------------------------------

TEST(Analyze, DuplicateLayerFires) {
  nn::Network net("t_dup");
  net.add(nn::make_conv("c1", 1, 8, 8, 4, 3, 1, 1));
  net.add(nn::with_inputs(nn::make_conv("c1", 1, 8, 8, 4, 3, 1, 1),
                          {nn::kNetworkInput}));
  const AnalysisResult r = analyze::analyze_graph(net);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::DuplicateLayer)) << r.to_string();
}

TEST(Analyze, LayerNamedLikeTheNetworkInputFiresDuplicateLayer) {
  nn::Network net("t_named_input");
  net.add(nn::with_inputs(
      nn::make_conv(nn::kNetworkInput, 1, 8, 8, 4, 3, 1, 1),
      {nn::kNetworkInput}));
  const AnalysisResult r = analyze::analyze_graph(net);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::DuplicateLayer)) << r.to_string();
}

TEST(Analyze, MissingProducerFires) {
  nn::Network net("t_missing");
  net.add(nn::with_inputs(nn::make_conv("c1", 1, 8, 8, 4, 3, 1, 1),
                          {"no_such_layer"}));
  const AnalysisResult r = analyze::analyze_graph(net);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::MissingProducer)) << r.to_string();
}

TEST(Analyze, GraphCycleFires) {
  nn::Network net("t_cycle");
  net.add(nn::with_inputs(nn::make_pool("p1", 4, 8, 8, 2, 2), {"c1"}));
  net.add(nn::with_inputs(nn::make_conv("c1", 1, 8, 8, 4, 3, 1, 1),
                          {nn::kNetworkInput}));
  const AnalysisResult r = analyze::analyze_graph(net);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::GraphCycle)) << r.to_string();
}

TEST(Analyze, ShapeMismatchFires) {
  nn::Network net("t_shape");
  net.add(nn::make_conv("c1", 1, 8, 8, 4, 3, 1, 1));  // 4x8x8 = 256 out
  net.add(nn::make_matmul("f1", 100, 10, 1));         // expects 100 in
  const AnalysisResult r = analyze::analyze_graph(net);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::ShapeMismatch)) << r.to_string();
}

TEST(Analyze, SinkMultiplicityDependsOnStrictness) {
  nn::Network net("t_heads");
  net.add(nn::make_conv("c1", 1, 8, 8, 4, 3, 1, 1));
  net.add(nn::with_inputs(nn::make_pool("h1", 4, 8, 8, 2, 2), {"c1"}));
  net.add(nn::with_inputs(nn::make_pool("h2", 4, 8, 8, 2, 2), {"c1"}));
  // A compiled artifact may ship several heads: warning only, h1 flagged
  // as an unconsumed non-final output.
  const AnalysisResult artifact =
      analyze::analyze_graph(net, GraphStrictness::Artifact);
  EXPECT_TRUE(artifact.ok()) << artifact.to_string();
  EXPECT_TRUE(fires(artifact, Check::MultipleSinks)) << artifact.to_string();
  EXPECT_TRUE(fires(artifact, Check::DeadLayer)) << artifact.to_string();
  // The feed-forward serving runtime needs exactly one sink: error.
  const AnalysisResult serving =
      analyze::analyze_graph(net, GraphStrictness::Serving);
  EXPECT_FALSE(serving.ok());
  EXPECT_TRUE(fires(serving, Check::MultipleSinks)) << serving.to_string();
}

TEST(Analyze, MissingProgramFires) {
  ScheduledNetwork sn = scheduled();
  sn.schedule.layers.pop_back();  // drop f1's program
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::MissingProgram)) << r.to_string();
}

TEST(Analyze, OrphanProgramFires) {
  ScheduledNetwork sn = scheduled();
  sn.schedule.layers.front().layer.name = "ghost";
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::OrphanProgram)) << r.to_string();
}

TEST(Analyze, ProgramOrderMismatchFires) {
  ScheduledNetwork sn = scheduled();
  ASSERT_GE(sn.schedule.layers.size(), 2u);
  std::swap(sn.schedule.layers[0], sn.schedule.layers[1]);
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::ProgramOrderMismatch)) << r.to_string();
}

TEST(Analyze, StaleProgramFires) {
  ScheduledNetwork sn = scheduled();
  sn.schedule.layers.front().layer.out_c += 1;  // recompiled net, old program
  const AnalysisResult r = analyze::analyze_network(sn);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::StaleProgram)) << r.to_string();
}

// ---- partition-family mutations ---------------------------------------------

struct PartitionFixture {
  ScheduledNetwork sn = scheduled();
  multifpga::MultiFpgaPlan plan =
      multifpga::partition_pipeline(sn.schedule, 2);
};

TEST(Analyze, CleanPartitionPasses) {
  PartitionFixture f;
  const AnalysisResult r = analyze::analyze_partition(f.sn.schedule, f.plan);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Analyze, StageCoverageFires) {
  PartitionFixture f;
  f.plan.stages.pop_back();
  const AnalysisResult r = analyze::analyze_partition(f.sn.schedule, f.plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::StageCoverage)) << r.to_string();
}

TEST(Analyze, StageCostMismatchFires) {
  PartitionFixture f;
  f.plan.stages.front().cycles += 1;
  const AnalysisResult r = analyze::analyze_partition(f.sn.schedule, f.plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::StageCostMismatch)) << r.to_string();
}

TEST(Analyze, StageResidencyMismatchFires) {
  PartitionFixture f;
  f.plan.stages.front().resident_weight_words += 1;
  const AnalysisResult r = analyze::analyze_partition(f.sn.schedule, f.plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::StageResidencyMismatch)) << r.to_string();
}

TEST(Analyze, StageResidencyOverflowFires) {
  // Residency is recomputed from the schedule's layers; a plan claiming
  // full residency on a device with no WBUF capacity cannot hold them.
  PartitionFixture f;
  f.plan.weights_resident = true;
  f.sn.schedule.config.wbuf_words = 0;
  const AnalysisResult r = analyze::analyze_partition(f.sn.schedule, f.plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::StageResidencyOverflow)) << r.to_string();
}

TEST(Analyze, CutTransferMismatchFires) {
  PartitionFixture f;
  f.plan.stages.front().egress_bytes += 64.0;
  const AnalysisResult r = analyze::analyze_partition(f.sn.schedule, f.plan);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(fires(r, Check::CutTransferMismatch)) << r.to_string();
}

// ---- bundle round-trip and the untrusted load gate --------------------------

TEST(Analyze, NetworkBundleRoundTrips) {
  const ScheduledNetwork sn = scheduled();
  const std::string text = analyze::serialize_network(sn);
  EXPECT_EQ(text.rfind("ftdl-network", 0), 0u);
  const ScheduledNetwork back = analyze::deserialize_network(text, cfg());
  EXPECT_EQ(back.net.name(), sn.net.name());
  EXPECT_EQ(back.net.layers().size(), sn.net.layers().size());
  EXPECT_EQ(back.schedule.layers.size(), sn.schedule.layers.size());
  EXPECT_EQ(back.schedule.total_cycles, sn.schedule.total_cycles);
  EXPECT_EQ(back.memory.image_words, sn.memory.image_words);
  // Serializing the reloaded artifact is byte-identical (stable format).
  EXPECT_EQ(analyze::serialize_network(back), text);
}

TEST(Analyze, CorruptedBundleLoadThrowsConfigError) {
  // The load path must surface network-level diagnostics as ConfigError:
  // inject overlapping tensor ranges (simultaneously-live c1/p1), then load.
  ScheduledNetwork sn = scheduled();
  tensor_of(sn, "p1").range.base = tensor_of(sn, "c1").range.base;
  const std::string text = analyze::serialize_network(sn);
  try {
    analyze::deserialize_network(text, cfg());
    FAIL() << "corrupted bundle must not load";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("tensor-overlap"), std::string::npos)
        << e.what();
  }
}

TEST(Analyze, ResNet50BundlePassesAndCorruptionIsCaught) {
  // The acceptance bar: an unmodified zoo artifact analyzes clean and
  // round-trips; the same bundle with overlapping tensor ranges injected
  // reports exactly the overlap diagnostic and fails its load.
  const nn::Network net = nn::resnet50();
  ScheduledNetwork sn = analyze::make_scheduled(
      net, compiler::schedule_network(net, cfg(),
                                      compiler::Objective::Performance,
                                      6'000));
  const AnalysisResult clean = analyze::analyze_network(sn);
  EXPECT_TRUE(clean.ok()) << clean.to_string();
  EXPECT_EQ(clean.warnings(), 0) << clean.to_string();
  const std::string good = analyze::serialize_network(sn);
  EXPECT_NO_THROW(analyze::deserialize_network(good, cfg()));

  // Overlap two simultaneously-live activation ranges (a layer and its
  // consumer: resolved_inputs of layer 1 includes layer 0's output).
  analyze::TensorPlan& victim = tensor_of(sn, net.layers()[0].name);
  analyze::TensorPlan& aggressor = tensor_of(sn, net.layers()[1].name);
  aggressor.range.base = victim.range.base;
  const AnalysisResult bad = analyze::analyze_network(sn);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(fires(bad, Check::TensorOverlap)) << bad.to_string();
  try {
    analyze::deserialize_network(analyze::serialize_network(sn), cfg());
    FAIL() << "corrupted ResNet50 bundle must not load";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("tensor-overlap"), std::string::npos)
        << e.what();
  }
}

TEST(Analyze, TruncatedBundleIsRejected) {
  const std::string text = analyze::serialize_network(scheduled());
  EXPECT_THROW(
      analyze::deserialize_network(text.substr(0, text.size() / 2), cfg()),
      Error);
}

}  // namespace
}  // namespace ftdl
