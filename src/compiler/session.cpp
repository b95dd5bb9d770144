#include "compiler/session.h"

#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "compiler/program_store.h"
#include "obs/obs.h"

namespace ftdl::compiler {

namespace {

/// Bumped whenever the meaning of any hashed field changes, so stale keys
/// from an older layout can never alias a new one.
constexpr std::uint64_t kKeyFormatVersion = 1;

/// Approximate resident size of a cached program (heap payloads + struct;
/// the mapping's tiles are inline in the struct).
std::int64_t approx_program_bytes(const LayerProgram& p) {
  std::int64_t b = static_cast<std::int64_t>(sizeof(LayerProgram));
  b += static_cast<std::int64_t>(p.row_stream.size() * sizeof(arch::Instruction));
  b += static_cast<std::int64_t>(p.workload.loops.size() * sizeof(WorkloadLoop));
  b += static_cast<std::int64_t>(p.layer.name.size() + p.workload.name.size());
  return b;
}

}  // namespace

std::uint64_t program_cache_key(const Workload& w,
                                const arch::OverlayConfig& config,
                                Objective objective,
                                std::int64_t max_candidates) {
  Hash64 h;
  h.u64(kKeyFormatVersion);

  // Workload content. The name is identity, not content — GoogLeNet's many
  // identically-shaped inception branches must share one entry.
  h.i32(static_cast<int>(w.kind));
  h.i32(w.stride);
  h.u64(w.loops.size());
  for (const WorkloadLoop& loop : w.loops) {
    h.i32(loop.tag);
    h.i64(loop.trip);
    h.boolean(loop.indexes_weight);
    h.boolean(loop.indexes_act);
    h.boolean(loop.is_reduction);
  }

  // Every OverlayConfig field: the session cache is shared across config
  // sweeps (Objective 3, DSE, ablations), so any field the analytical model
  // or codegen can read must be part of the key. The field walk lives in
  // program_store.cpp so the key and the store's entry-header config digest
  // can never drift apart.
  hash_overlay_config(h, config);

  h.i32(static_cast<int>(objective));
  h.i64(max_candidates);
  return h.digest();
}

void name_worker_track() {
  // The calling thread (worker_index() == -1) keeps whatever track it
  // already has, so its share of the batch nests under its own open spans.
  const int wi = ThreadPool::worker_index();
  if (wi >= 0) obs::set_thread_track_name("jobs-" + std::to_string(wi));
}

CompilerSession::CompilerSession(int jobs)
    : pool_(std::make_unique<ThreadPool>(jobs > 0 ? jobs : default_jobs())) {}

CompilerSession::~CompilerSession() = default;

CompilerSession& CompilerSession::global() {
  static CompilerSession* session = new CompilerSession();  // never destroyed
  return *session;
}

void CompilerSession::set_jobs(int jobs) {
  const int resolved = jobs > 0 ? jobs : default_jobs();
  if (pool_ && pool_->jobs() == resolved) return;
  pool_ = std::make_unique<ThreadPool>(resolved);
}

int CompilerSession::jobs() const { return pool_->jobs(); }

ThreadPool& CompilerSession::pool() { return *pool_; }

void CompilerSession::set_store(std::shared_ptr<ProgramStore> store) {
  MutexLock lock(mu_);
  store_ = std::move(store);
}

std::shared_ptr<ProgramStore> CompilerSession::store() const {
  MutexLock lock(mu_);
  return store_;
}

std::shared_ptr<const LayerProgram> CompilerSession::obtain(
    std::uint64_t key, const nn::Layer& layer,
    const arch::OverlayConfig& config, Objective objective,
    std::int64_t max_candidates) {
  std::shared_ptr<ProgramStore> store;
  {
    MutexLock lock(mu_);
    for (;;) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++stats_.hits;
        if (obs::enabled()) obs::Registry::global().add("session/cache_hits");
        return it->second;
      }
      if (inflight_.insert(key).second) break;  // this thread produces it
      // Single-flight: another thread is already compiling (or disk-loading)
      // this key. Wait for it instead of duplicating the mapping search —
      // the owner runs on its own thread, so waiting cannot deadlock.
      inflight_cv_.wait(mu_);
    }
    store = store_;
  }

  // Owner path, no lock held: disk probe, then compile + write-through.
  std::shared_ptr<const LayerProgram> prog;
  bool compiled = false;
  try {
    if (store) {
      if (std::optional<LayerProgram> disk = store->load(key, config)) {
        prog = std::make_shared<const LayerProgram>(*std::move(disk));
      }
    }
    if (!prog) {
      prog = std::make_shared<const LayerProgram>(
          compile_layer(layer, config, objective, max_candidates));
      compiled = true;
      if (store) {
        // Write-through failure (disk full, permissions) must not take down
        // a compile that already succeeded — log and count, never silent.
        try {
          store->put(key, config, *prog);
        } catch (const Error& e) {
          log_warn(std::string("program cache write-through failed: ") +
                   e.what());
          obs::count("session/disk_write_failures");
        }
      }
    }
  } catch (...) {
    // Release the claim so waiters can retry (and observe their own
    // exception) instead of blocking forever.
    MutexLock lock(mu_);
    inflight_.erase(key);
    inflight_cv_.notify_all();
    throw;
  }

  MutexLock lock(mu_);
  inflight_.erase(key);
  if (compiled) {
    ++stats_.misses;
    if (obs::enabled()) obs::Registry::global().add("session/cache_misses");
  }
  auto [it, inserted] = cache_.try_emplace(key, prog);
  if (inserted) {
    ++stats_.entries;
    stats_.program_bytes += approx_program_bytes(*prog);
    if (obs::enabled()) {
      obs::Registry::global().add("session/cache_bytes",
                                  approx_program_bytes(*prog));
    }
  }
  inflight_cv_.notify_all();
  return it->second;
}

LayerProgram CompilerSession::compile(const nn::Layer& layer,
                                      const arch::OverlayConfig& config,
                                      Objective objective,
                                      std::int64_t max_candidates) {
  const std::uint64_t key = program_cache_key(Workload::from_layer(layer),
                                              config, objective,
                                              max_candidates);
  LayerProgram prog = *obtain(key, layer, config, objective, max_candidates);
  prog.layer = layer;  // restore this instance's identity
  return prog;
}

NetworkSchedule CompilerSession::schedule(const nn::Network& net,
                                          const arch::OverlayConfig& config,
                                          Objective objective,
                                          std::int64_t max_candidates_per_layer) {
  config.validate();

  obs::ScopedSpan span("compiler", "schedule_network", {{"network", net.name()}});

  // Pass 1 (serial): key every overlay layer and split the call into cache
  // hits and the first instance of each distinct uncached key.
  struct Item {
    const nn::Layer* layer = nullptr;
    std::uint64_t key = 0;
  };
  std::vector<Item> items;
  for (const nn::Layer& layer : net.layers()) {
    if (!layer.on_overlay()) continue;
    items.push_back({&layer, program_cache_key(Workload::from_layer(layer),
                                               config, objective,
                                               max_candidates_per_layer)});
  }
  if (items.empty())
    throw ConfigError(net.name() + ": no overlay layers to schedule");

  std::vector<Item> to_compile;
  {
    MutexLock lock(mu_);
    std::unordered_set<std::uint64_t> claimed;
    for (const Item& item : items) {
      if (cache_.count(item.key) != 0 || !claimed.insert(item.key).second) {
        ++stats_.hits;
        if (obs::enabled()) {
          obs::Registry::global().add("session/cache_hits");
          obs::Registry::global().add("compiler/schedule_cache_hits");
        }
        continue;
      }
      to_compile.push_back(item);
    }
  }

  // Pass 2 (parallel): produce the distinct misses across the pool via
  // obtain() — disk probe first when a store is attached, else the mapping
  // search; single-flight dedups against concurrent schedules on other
  // threads. Each task is a pure function of its (layer, config) pair; a
  // failure (no feasible mapping) is rethrown here after the batch drains.
  if (!to_compile.empty()) {
    obs::gauge("session/pool_queue_depth", double(pool_->queue_depth() + 1));
    pool_->parallel_for(to_compile.size(), [&](std::size_t i) {
      name_worker_track();
      const nn::Layer& layer = *to_compile[i].layer;
      obs::ScopedSpan task_span("session", "compile_task",
                                {{"layer", layer.name}});
      const std::shared_ptr<const LayerProgram> prog =
          obtain(to_compile[i].key, layer, config, objective,
                 max_candidates_per_layer);
      log_debug(strformat("%s: C_exe=%lld x%d eff=%.1f%% E_WBUF=%.2f",
                          layer.name.c_str(),
                          static_cast<long long>(prog->perf.c_exe),
                          prog->weight_groups,
                          100.0 * prog->perf.hardware_efficiency,
                          prog->perf.e_wbuf));
    });
    obs::gauge("session/pool_queue_depth", double(pool_->queue_depth()));
  }

  // Pass 3 (serial): merge in the network's layer order with the exact
  // accumulation sequence of the old serial scheduler, so the result is
  // bit-identical for any jobs value and any prior cache state.
  NetworkSchedule sched;
  sched.network_name = net.name();
  sched.config = config;
  sched.objective = objective;

  double e_wbuf_weighted = 0.0;
  std::int64_t weight_words = 0;
  std::size_t next_item = 0;
  for (const nn::Layer& layer : net.layers()) {
    sched.host_ewop_ops += layer.ewop_ops();  // EWOP, or a fused ReLU part
    if (!layer.on_overlay()) continue;

    std::shared_ptr<const LayerProgram> cached;
    {
      MutexLock lock(mu_);
      cached = cache_.at(items[next_item].key);
    }
    ++next_item;

    LayerProgram prog = *cached;
    prog.layer = layer;  // restore this instance's identity
    sched.total_cycles += prog.total_cycles() * layer.repeat;
    sched.overlay_macs += layer.macs() * layer.repeat;
    e_wbuf_weighted += prog.perf.e_wbuf * double(layer.weight_count());
    weight_words += layer.weight_count();
    sched.layers.push_back(std::move(prog));
  }

  sched.hardware_efficiency =
      double(sched.overlay_macs) /
      (double(sched.total_cycles) * double(config.tpes()));
  sched.mean_e_wbuf = weight_words > 0 ? e_wbuf_weighted / double(weight_words) : 0.0;
  if (obs::enabled()) {
    obs::count("compiler/networks_scheduled");
    obs::gauge("compiler/last_schedule_efficiency", sched.hardware_efficiency);
    obs::gauge("compiler/last_schedule_fps", sched.fps());
  }
  return sched;
}

HwConfigChoice CompilerSession::best_hw_config(
    const nn::Network& net, const arch::OverlayConfig& base,
    const fpga::Device& device, int tpe_budget,
    std::int64_t max_candidates_per_layer) {
  FTDL_ASSERT(tpe_budget > 0);

  obs::ScopedSpan span("compiler", "find_best_hw_config",
                       {{"network", net.name()},
                        {"tpes", std::to_string(tpe_budget)}});

  // Enumerate candidate splits serially, in the order the serial loop
  // visited them — ties below resolve to the lowest enumeration index.
  std::vector<arch::OverlayConfig> candidates;
  for (int d1 = 2; d1 <= 64; ++d1) {
    if (tpe_budget % d1 != 0) continue;
    const int rows_budget = tpe_budget / d1;
    for (int d2 = 1; d2 <= device.dsp_columns; ++d2) {
      if (rows_budget % d2 != 0) continue;
      const int d3 = rows_budget / d2;
      if (d1 * d3 > device.dsp_per_column) continue;

      arch::OverlayConfig cand = base;
      cand.d1 = d1;
      cand.d2 = d2;
      cand.d3 = d3;
      candidates.push_back(cand);
    }
  }

  // Evaluate concurrently. Infeasible candidates (the split does not fit
  // the device, or some layer has no feasible mapping) score as absent;
  // anything else — notably InternalError from the stream verifier — is a
  // compiler bug and must propagate, not silently discard a candidate.
  std::vector<std::unique_ptr<NetworkSchedule>> scheduled(candidates.size());
  pool_->parallel_for(candidates.size(), [&](std::size_t i) {
    name_worker_track();
    const arch::OverlayConfig& cand = candidates[i];
    obs::ScopedSpan task_span(
        "session", "hw_config_candidate",
        {{"split", strformat("%dx%dx%d", cand.d1, cand.d2, cand.d3)}});
    try {
      cand.validate_for_device(device);
      scheduled[i] = std::make_unique<NetworkSchedule>(
          schedule(net, cand, Objective::Performance,
                   max_candidates_per_layer));
    } catch (const ConfigError&) {
      // split does not fit the device / config invalid
    } catch (const InfeasibleError&) {
      // some layer has no feasible mapping at this split
    }
  });

  // Serial selection in enumeration order (strict < keeps the first best,
  // matching the serial loop exactly).
  bool found = false;
  HwConfigChoice best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!scheduled[i]) continue;
    if (!found || scheduled[i]->total_cycles < best.schedule.total_cycles) {
      best.config = candidates[i];
      best.schedule = std::move(*scheduled[i]);
      found = true;
    }
  }
  if (!found) {
    throw InfeasibleError(
        strformat("no (D1,D2,D3) split of %d TPEs fits %s", tpe_budget,
                  device.name.c_str()));
  }
  return best;
}

SessionStats CompilerSession::stats() const {
  MutexLock lock(mu_);
  SessionStats s = stats_;
  if (store_) {
    const StoreStats d = store_->stats();
    s.disk_hits = d.hits;
    s.disk_misses = d.misses;
    s.disk_evictions = d.evictions;
    s.disk_bytes = d.bytes_written;
  }
  return s;
}

void CompilerSession::clear_cache() {
  MutexLock lock(mu_);
  cache_.clear();
  stats_.entries = 0;
  stats_.program_bytes = 0;
}

}  // namespace ftdl::compiler
