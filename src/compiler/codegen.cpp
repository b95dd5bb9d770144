#include "compiler/codegen.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

#include "common/math_util.h"
#include "compiler/program_verify.h"
#include "obs/obs.h"

namespace ftdl::compiler {

std::vector<std::uint64_t> LayerProgram::encoded_stream() const {
  std::vector<std::uint64_t> words;
  words.reserve(row_stream.size());
  for (const arch::Instruction& inst : row_stream) {
    words.push_back(arch::encode(inst));
  }
  return words;
}

arch::InstStream generate_row_stream(const Workload& w, const Mapping& m,
                                     const Performance& perf) {
  using arch::TemporalLevel;
  arch::InstStream s;
  s.push_back(arch::set_loop(TemporalLevel::X, static_cast<std::uint64_t>(perf.x)));
  s.push_back(arch::set_loop(TemporalLevel::L, static_cast<std::uint64_t>(perf.l)));
  s.push_back(arch::set_loop(TemporalLevel::T, static_cast<std::uint64_t>(perf.t)));
  s.push_back(arch::set_act_tile(
      static_cast<std::uint64_t>(perf.buffers.actbuf_words_per_tpe)));
  s.push_back(arch::set_psum_tile(
      static_cast<std::uint64_t>(perf.buffers.psum_words_per_superblock)));

  // Multi-pass accumulation: a reduction loop tiled at LoopX means the psum
  // tile is reloaded and accumulated instead of overwritten.
  std::int64_t passes = 1;
  for (int i = 0; i < w.k(); ++i) {
    if (w.loops[static_cast<std::size_t>(i)].is_reduction) {
      passes *= m.tile(HwLevel::X, i);
    }
  }
  s.push_back(arch::set_psum_mode(passes > 1));
  s.push_back(arch::set_weight_base(0));
  s.push_back(arch::launch());
  s.push_back(arch::barrier());
  return s;
}

LayerProgram lower_solution(const nn::Layer& layer, const Workload& w,
                            const Solution& solution) {
  LayerProgram p;
  p.layer = layer;
  p.workload = w;
  p.mapping = solution.mapping;
  p.perf = solution.perf;
  p.row_stream = generate_row_stream(w, solution.mapping, solution.perf);
  return p;
}

namespace {

/// Sets the dimension weight_only_extent reads (a depthwise layer's output
/// channels follow its input channels).
void set_weight_only_extent(nn::Layer& layer, int extent) {
  switch (layer.kind) {
    case nn::LayerKind::Conv: layer.out_c = extent; break;
    case nn::LayerKind::Depthwise: layer.in_c = layer.out_c = extent; break;
    default: layer.mm_n = extent;
  }
}

/// The group count compile_layer tries after `groups`: doubling, then the
/// one-channel slice (`extent` groups) when doubling overshoots it, then
/// past the end.
int next_group_count(int groups, int extent) {
  return groups == extent ? extent + 1 : std::min(2 * groups, extent);
}

/// No mapping of `w` fits WBUF: a legal mapping holds every weight word in
/// some used TPE, so wbuf_words_per_tpe * used_tpes >= weight_words with
/// used_tpes <= tpes (Eqn. 10).
bool wbuf_cannot_fit(const Workload& w, const arch::OverlayConfig& config) {
  return ceil_div(w.weight_words(), config.tpes()) > config.wbuf_words;
}

}  // namespace

int weight_only_extent(const nn::Layer& layer) {
  switch (layer.kind) {
    case nn::LayerKind::Conv: return layer.out_c;
    case nn::LayerKind::Depthwise: return layer.in_c;
    default: return static_cast<int>(layer.mm_n);
  }
}

nn::Layer weight_group_slice(const nn::Layer& layer, int groups) {
  nn::Layer part = layer;
  set_weight_only_extent(
      part, static_cast<int>(ceil_div(weight_only_extent(layer), groups)));
  return part;
}

std::vector<nn::Layer> weight_group_layers(const nn::Layer& layer,
                                           int groups) {
  const int total = weight_only_extent(layer);
  const int size = weight_only_extent(weight_group_slice(layer, groups));
  std::vector<nn::Layer> out;
  for (int off = 0; off < total; off += size) {
    nn::Layer& part = out.emplace_back(layer);
    set_weight_only_extent(part, std::min(size, total - off));
  }
  return out;
}

LayerProgram compile_layer(const nn::Layer& layer,
                           const arch::OverlayConfig& config,
                           Objective objective, std::int64_t max_candidates) {
  obs::ScopedSpan span("compiler", "compile_layer",
                       {{"layer", layer.name}});
  const int max_groups = weight_only_extent(layer);
  for (int groups = 1; groups <= max_groups;
       groups = next_group_count(groups, max_groups)) {
    const nn::Layer part = weight_group_slice(layer, groups);
    const Workload w = Workload::from_layer(part);
    if (wbuf_cannot_fit(w, config)) {
      obs::count("compiler/infeasible_retries");
      continue;  // the search would find nothing; skip it
    }
    try {
      Solution s;
      {
        obs::ScopedSpan search_span("compiler", "search",
                                    {{"groups", std::to_string(groups)}});
        s = best_mapping(w, config, objective, max_candidates);
      }
      LayerProgram prog;
      {
        obs::ScopedSpan lower_span("compiler", "codegen");
        prog = lower_solution(part, w, s);
        prog.layer = layer;  // programs carry the original layer identity
        prog.weight_groups = groups;
        if (config.charge_weight_reload) {
          // One group's weights stream in from DRAM (2 bytes/word) over the
          // read channel, duplication included.
          const double group_bytes =
              2.0 * double(prog.perf.buffers.wbuf_words_per_tpe) *
              double(config.tpes());
          prog.reload_cycles_per_group = static_cast<std::int64_t>(
              std::ceil(group_bytes / config.dram_rd_bytes_per_cycle()));
        }
      }
      {
        obs::ScopedSpan verify_span("compiler", "verify");
        assert_program_verified(prog, config);
      }
      obs::count("compiler/layers_compiled");
      obs::count("compiler/programs_verified");
      if (groups > 1) obs::count("compiler/group_split_layers");
      return prog;
    } catch (const InfeasibleError&) {
      obs::count("compiler/infeasible_retries");
      continue;  // halve the weight tile and retry
    }
  }
  throw InfeasibleError("no feasible mapping for layer " + layer.name +
                        " at any weight-group split");
}

}  // namespace ftdl::compiler
