// CompilerSession tests: content-addressed cache keys, hit/miss accounting,
// and the determinism guarantee — schedules and hardware-config choices must
// be BIT-IDENTICAL for any jobs value and any cache state.
#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/error.h"
#include "compiler/session.h"
#include "fpga/device_zoo.h"
#include "nn/model_zoo.h"
#include "obs/obs.h"
#include "obs_log.h"

namespace ftdl::compiler {
namespace {

/// A small network exercising every overlay layer kind, with two layers
/// sharing one shape (conv3 repeats conv2's) so scheduling always has at
/// least one intra-call cache hit.
nn::Network mixed_net() {
  nn::Network net("session-mix");
  net.add(nn::make_conv("conv1", 8, 16, 16, 16, 3, 1, 1));
  net.add(nn::make_conv("conv2", 16, 16, 16, 16, 3, 1, 1));
  net.add(nn::make_conv("conv3", 16, 16, 16, 16, 3, 1, 1));  // repeats conv2
  net.add(nn::make_conv("reduce", 16, 16, 16, 8, 1, 1, 0));
  net.add(nn::make_matmul("fc", 2048, 64, 1));
  return net;
}

constexpr std::int64_t kBudget = 3'000;

/// Bit-exact schedule comparison: scalar roll-ups, per-layer metadata and
/// the encoded instruction streams.
void expect_identical(const NetworkSchedule& a, const NetworkSchedule& b) {
  EXPECT_EQ(a.network_name, b.network_name);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.overlay_macs, b.overlay_macs);
  EXPECT_EQ(a.host_ewop_ops, b.host_ewop_ops);
  EXPECT_EQ(a.hardware_efficiency, b.hardware_efficiency);  // bit-exact
  EXPECT_EQ(a.mean_e_wbuf, b.mean_e_wbuf);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const LayerProgram& la = a.layers[i];
    const LayerProgram& lb = b.layers[i];
    EXPECT_EQ(la.layer.name, lb.layer.name);
    EXPECT_EQ(la.weight_groups, lb.weight_groups);
    EXPECT_EQ(la.reload_cycles_per_group, lb.reload_cycles_per_group);
    EXPECT_EQ(la.perf.c_exe, lb.perf.c_exe);
    EXPECT_EQ(la.perf.e_wbuf, lb.perf.e_wbuf);
    EXPECT_EQ(la.encoded_stream(), lb.encoded_stream());
  }
}

TEST(ProgramCacheKey, IgnoresWorkloadName) {
  const arch::OverlayConfig cfg = arch::paper_config();
  Workload a = Workload::from_layer(nn::make_conv("a", 8, 16, 16, 16, 3, 1, 1));
  Workload b = Workload::from_layer(nn::make_conv("b", 8, 16, 16, 16, 3, 1, 1));
  EXPECT_EQ(program_cache_key(a, cfg, Objective::Performance, kBudget),
            program_cache_key(b, cfg, Objective::Performance, kBudget));
}

// Regression for the scheduler's old LayerSignature, which memoized on
// (kind, trips, stride) alone: two workloads identical in all three but
// differing in a loop's dataflow flags would collide and share one program.
// The content key must keep them apart.
TEST(ProgramCacheKey, DistinguishesLoopDataflowFlags) {
  const arch::OverlayConfig cfg = arch::paper_config();
  const Workload base =
      Workload::from_layer(nn::make_conv("w", 8, 16, 16, 16, 3, 1, 1));

  Workload flipped_weight = base;
  flipped_weight.loops[1].indexes_weight = !flipped_weight.loops[1].indexes_weight;
  Workload flipped_reduction = base;
  flipped_reduction.loops[1].is_reduction = !flipped_reduction.loops[1].is_reduction;

  const std::uint64_t k0 =
      program_cache_key(base, cfg, Objective::Performance, kBudget);
  EXPECT_NE(k0, program_cache_key(flipped_weight, cfg, Objective::Performance,
                                  kBudget));
  EXPECT_NE(k0, program_cache_key(flipped_reduction, cfg,
                                  Objective::Performance, kBudget));
}

TEST(ProgramCacheKey, DistinguishesEveryCompilationInput) {
  const Workload w =
      Workload::from_layer(nn::make_conv("w", 8, 16, 16, 16, 3, 1, 1));
  const arch::OverlayConfig base = arch::paper_config();
  const std::uint64_t k0 =
      program_cache_key(w, base, Objective::Performance, kBudget);

  // Objective and budget are search inputs, so they are key material.
  EXPECT_NE(k0, program_cache_key(w, base, Objective::Balance, kBudget));
  EXPECT_NE(k0, program_cache_key(w, base, Objective::Performance, kBudget + 1));

  // A representative sample of OverlayConfig fields, including the
  // booleans and doubles the old trip-based signature never saw.
  arch::OverlayConfig c = base;
  c.d1 = base.d1 * 2;
  EXPECT_NE(k0, program_cache_key(w, c, Objective::Performance, kBudget));
  c = base;
  c.actbuf_words = 64;
  EXPECT_NE(k0, program_cache_key(w, c, Objective::Performance, kBudget));
  c = base;
  c.charge_weight_reload = true;
  EXPECT_NE(k0, program_cache_key(w, c, Objective::Performance, kBudget));
  c = base;
  c.dram_rd_bytes_per_sec = 13e9;
  EXPECT_NE(k0, program_cache_key(w, c, Objective::Performance, kBudget));
  c = base;
  c.clocks = fpga::ClockPair::from_high(600e6);
  EXPECT_NE(k0, program_cache_key(w, c, Objective::Performance, kBudget));
}

TEST(CompilerSession, ScheduleIsBitIdenticalAcrossJobsAndCacheState) {
  const nn::Network net = mixed_net();
  const arch::OverlayConfig cfg = arch::paper_config();

  CompilerSession serial(1);
  const NetworkSchedule golden =
      serial.schedule(net, cfg, Objective::Performance, kBudget);

  CompilerSession threaded(8);
  const NetworkSchedule cold =
      threaded.schedule(net, cfg, Objective::Performance, kBudget);
  const NetworkSchedule warm =
      threaded.schedule(net, cfg, Objective::Performance, kBudget);

  expect_identical(golden, cold);
  expect_identical(golden, warm);

  const SessionStats stats = threaded.stats();
  EXPECT_EQ(stats.misses, 4);     // conv1, conv2/conv3 shape, reduce, fc
  EXPECT_EQ(stats.hits, 1 + 5);   // conv3 on the cold run, every layer warm
  EXPECT_EQ(stats.entries, 4);
  EXPECT_GT(stats.program_bytes, 0);
}

TEST(CompilerSession, BestHwConfigIsBitIdenticalAcrossJobs) {
  nn::Network net("hwcfg-mix");
  net.add(nn::make_conv("conv", 8, 14, 14, 16, 3, 1, 1));
  net.add(nn::make_matmul("fc", 512, 32, 1));
  const fpga::Device dev = fpga::ultrascale_vu125();
  const arch::OverlayConfig base = arch::paper_config();

  CompilerSession serial(1);
  const HwConfigChoice golden =
      serial.best_hw_config(net, base, dev, 240, 1'500);

  CompilerSession threaded(8);
  const HwConfigChoice choice =
      threaded.best_hw_config(net, base, dev, 240, 1'500);

  EXPECT_EQ(golden.config.d1, choice.config.d1);
  EXPECT_EQ(golden.config.d2, choice.config.d2);
  EXPECT_EQ(golden.config.d3, choice.config.d3);
  expect_identical(golden.schedule, choice.schedule);
}

TEST(CompilerSession, BestHwConfigThrowsWhenNoSplitExists) {
  nn::Network net("prime");
  net.add(nn::make_conv("conv", 8, 14, 14, 16, 3, 1, 1));
  CompilerSession session(2);
  // 1201 is prime, so no d1 in [2, 64] divides the budget: no candidates.
  EXPECT_THROW(session.best_hw_config(net, arch::paper_config(),
                                      fpga::ultrascale_vu125(), 1201, 1'500),
               InfeasibleError);
}

TEST(CompilerSession, CacheCountsMatchOnResNet50) {
  const nn::Network net = nn::model_by_name("ResNet50");
  const arch::OverlayConfig cfg = arch::paper_config();

  // Expected counts from the key function itself: every overlay layer is
  // one lookup; the distinct keys are the compiles.
  std::int64_t overlay_layers = 0;
  std::set<std::uint64_t> distinct;
  for (const nn::Layer& layer : net.layers()) {
    if (!layer.on_overlay()) continue;
    ++overlay_layers;
    distinct.insert(program_cache_key(Workload::from_layer(layer), cfg,
                                      Objective::Performance, kBudget));
  }
  ASSERT_GT(overlay_layers, std::int64_t(distinct.size()));  // shapes repeat

  CompilerSession session(2);
  session.schedule(net, cfg, Objective::Performance, kBudget);
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.misses, std::int64_t(distinct.size()));
  EXPECT_EQ(stats.hits, overlay_layers - std::int64_t(distinct.size()));
  EXPECT_EQ(stats.entries, std::int64_t(distinct.size()));

  // A warm re-schedule compiles nothing.
  session.schedule(net, cfg, Objective::Performance, kBudget);
  stats = session.stats();
  EXPECT_EQ(stats.misses, std::int64_t(distinct.size()));
  EXPECT_EQ(stats.hits, overlay_layers - std::int64_t(distinct.size()) +
                            overlay_layers);
}

TEST(CompilerSession, CacheSurvivesOverlayConfigSweeps) {
  const nn::Network net = mixed_net();
  arch::OverlayConfig a = arch::paper_config();
  arch::OverlayConfig b = a;
  b.d1 = 8;
  b.d3 = 30;  // same TPE count, different shape

  CompilerSession session(2);
  const NetworkSchedule first =
      session.schedule(net, a, Objective::Performance, kBudget);
  session.schedule(net, b, Objective::Performance, kBudget);
  const std::int64_t misses_after_sweep = session.stats().misses;

  // Returning to config `a` must hit for every layer — the sweep through
  // `b` must not have evicted or aliased a's programs.
  const NetworkSchedule again =
      session.schedule(net, a, Objective::Performance, kBudget);
  EXPECT_EQ(session.stats().misses, misses_after_sweep);
  expect_identical(first, again);
}

TEST(CompilerSession, CompileRestoresLayerIdentityOnHits) {
  CompilerSession session(1);
  const arch::OverlayConfig cfg = arch::paper_config();
  const LayerProgram p1 =
      session.compile(nn::make_conv("first", 8, 16, 16, 16, 3, 1, 1), cfg,
                      Objective::Performance, kBudget);
  const LayerProgram p2 =
      session.compile(nn::make_conv("second", 8, 16, 16, 16, 3, 1, 1), cfg,
                      Objective::Performance, kBudget);
  EXPECT_EQ(session.stats().hits, 1);
  EXPECT_EQ(p1.layer.name, "first");
  EXPECT_EQ(p2.layer.name, "second");
  EXPECT_EQ(p1.encoded_stream(), p2.encoded_stream());
}

// Regression: concurrent compiles of one uncached key used to each run the
// full mapping search and each count a miss (while only one entry's bytes
// were accounted). Single-flight pins the invariant: one search, one miss,
// one entry — the other callers wait and are accounted as hits.
TEST(CompilerSession, ConcurrentSameLayerCompilesSingleFlight) {
  CompilerSession session(8);
  const arch::OverlayConfig cfg = arch::paper_config();

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<LayerProgram> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // maximize the same-key collision window
      results[static_cast<std::size_t>(t)] =
          session.compile(nn::make_conv("same-" + std::to_string(t), 8, 16,
                                        16, 16, 3, 1, 1),
                          cfg, Objective::Performance, kBudget);
    });
  }
  for (std::thread& th : threads) th.join();

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.misses, 1) << "the mapping search must run exactly once";
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0].encoded_stream(),
              results[static_cast<std::size_t>(t)].encoded_stream());
  }
}

TEST(CompilerSession, ClearCacheDropsProgramsButKeepsTraffic) {
  CompilerSession session(1);
  const arch::OverlayConfig cfg = arch::paper_config();
  session.compile(nn::make_conv("c", 8, 16, 16, 16, 3, 1, 1), cfg,
                  Objective::Performance, kBudget);
  ASSERT_EQ(session.stats().entries, 1);
  session.clear_cache();
  EXPECT_EQ(session.stats().entries, 0);
  EXPECT_EQ(session.stats().program_bytes, 0);
  EXPECT_EQ(session.stats().misses, 1);  // cumulative traffic is kept
  session.compile(nn::make_conv("c", 8, 16, 16, 16, 3, 1, 1), cfg,
                  Objective::Performance, kBudget);
  EXPECT_EQ(session.stats().misses, 2);  // recompiled after the clear
}

TEST(CompilerSession, ObsCountersAndWorkerTracksStayConsistent) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();

  // Every track's spans must be balanced with monotonic timestamps, even
  // with compile tasks running on pool workers: the log checker pins it.
  const nn::Network net = mixed_net();
  const obs::stream::ReconstructedLog rec = record_log([&] {
    CompilerSession session(4);
    session.schedule(net, arch::paper_config(), Objective::Performance,
                     kBudget);
  });

  EXPECT_EQ(reg.counter("session/cache_misses"), 4);
  EXPECT_EQ(reg.counter("session/cache_hits"), 1);
  EXPECT_EQ(reg.counter("compiler/schedule_cache_hits"), 1);
  EXPECT_GT(reg.counter("session/cache_bytes"), 0);
  EXPECT_EQ(reg.counter("compiler/networks_scheduled"), 1);
  std::size_t compile_tasks = 0;
  for (const obs::TraceEvent& e : rec.events)
    compile_tasks += e.ph == 'B' && e.name == "compile_task";
  EXPECT_EQ(compile_tasks, 4u);

  reg.reset();
}

TEST(SchedulerFreeFunctions, DelegateToTheGlobalSession) {
  // The free functions must share CompilerSession::global()'s cache: a
  // second identical call compiles nothing new.
  const nn::Network net = mixed_net();
  const arch::OverlayConfig cfg = arch::paper_config();
  const NetworkSchedule first =
      schedule_network(net, cfg, Objective::Performance, kBudget);
  const std::int64_t misses = CompilerSession::global().stats().misses;
  const NetworkSchedule second =
      schedule_network(net, cfg, Objective::Performance, kBudget);
  EXPECT_EQ(CompilerSession::global().stats().misses, misses);
  expect_identical(first, second);
}

}  // namespace
}  // namespace ftdl::compiler
