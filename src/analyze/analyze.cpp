#include "analyze/analyze.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.h"
#include "common/str_util.h"
#include "obs/obs.h"

namespace ftdl::analyze {

const char* to_string(Check c) {
  switch (c) {
    case Check::MissingTensorRange: return "missing-tensor-range";
    case Check::DuplicateTensorRange: return "duplicate-tensor-range";
    case Check::TensorOutOfImage: return "tensor-out-of-image";
    case Check::TensorRangeUnderflow: return "tensor-range-underflow";
    case Check::TensorOverlap: return "tensor-overlap";
    case Check::DtypeMismatch: return "dtype-mismatch";
    case Check::WeightFootprintMismatch: return "weight-footprint-mismatch";
    case Check::WbufResidencyOverflow: return "wbuf-residency-overflow";
    case Check::DramOverread: return "dram-overread";
    case Check::DuplicateLayer: return "duplicate-layer";
    case Check::MissingProducer: return "missing-producer";
    case Check::GraphCycle: return "graph-cycle";
    case Check::ShapeMismatch: return "shape-mismatch";
    case Check::MultipleSinks: return "multiple-sinks";
    case Check::DeadLayer: return "dead-layer";
    case Check::MissingProgram: return "missing-program";
    case Check::OrphanProgram: return "orphan-program";
    case Check::ProgramOrderMismatch: return "program-order-mismatch";
    case Check::StaleProgram: return "stale-program";
    case Check::StageCoverage: return "stage-coverage";
    case Check::StageResidencyMismatch: return "stage-residency-mismatch";
    case Check::StageResidencyOverflow: return "stage-residency-overflow";
    case Check::CutTransferMismatch: return "cut-transfer-mismatch";
    case Check::StageCostMismatch: return "stage-cost-mismatch";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::string out = verify::to_string(severity);
  out += '[';
  out += analyze::to_string(check);
  out += ']';
  if (!where.empty()) out += ' ' + where;
  out += ": " + message;
  return out;
}

int AnalysisResult::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == verify::Severity::Error) ++n;
  return n;
}

int AnalysisResult::warnings() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == verify::Severity::Warning) ++n;
  return n;
}

const Diagnostic* AnalysisResult::first_error() const {
  for (const Diagnostic& d : diagnostics)
    if (d.severity == verify::Severity::Error) return &d;
  return nullptr;
}

std::string AnalysisResult::to_string() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) out += d.to_string() + "\n";
  return out;
}

namespace {

using verify::Severity;

void report(AnalysisResult& r, Severity sev, Check check, std::string where,
            std::string message) {
  r.diagnostics.push_back(
      Diagnostic{sev, check, std::move(where), std::move(message)});
}

/// Elements a consumer's declared geometry expects from one input tensor,
/// or 0 when its kind does not constrain it (Concat, generic Ewop).
std::int64_t expected_input_elems(const nn::Layer& l) {
  switch (l.kind) {
    case nn::LayerKind::Conv:
    case nn::LayerKind::Depthwise:
    case nn::LayerKind::Pool:
      return std::int64_t{l.in_c} * l.in_h * l.in_w;
    case nn::LayerKind::MatMul:
      return l.mm_m * l.mm_p;
    case nn::LayerKind::Ewop:
      // AddRelu counts 2 ops per element over inputs of `elems` each.
      if (l.ewop_op == nn::EwopOp::AddRelu) return l.explicit_ewop_ops / 2;
      return 0;
    case nn::LayerKind::Concat:
      return 0;
  }
  return 0;
}

}  // namespace

std::int64_t tensor_elems(const nn::Network& net, std::size_t i) {
  const std::vector<nn::Layer>& layers = net.layers();
  if (i >= layers.size()) return 0;
  const nn::Layer& l = layers[i];
  switch (l.kind) {
    case nn::LayerKind::Conv:
    case nn::LayerKind::Depthwise:
    case nn::LayerKind::MatMul:
    case nn::LayerKind::Pool:
      return l.out_elems();
    case nn::LayerKind::Ewop:
    case nn::LayerKind::Concat:
      break;
  }
  // Element-wise layers pass their (first) input through; concat stacks all
  // of them. Only follow references to EARLIER layers so a cyclic graph
  // terminates (the graph checks flag the cycle itself).
  std::int64_t total = 0;
  for (const std::string& name : net.resolved_inputs(i)) {
    std::int64_t elems = 0;
    if (name == nn::kNetworkInput) {
      elems = network_input_elems(net);
    } else {
      const int j = net.find(name);
      if (j >= 0 && static_cast<std::size_t>(j) < i)
        elems = tensor_elems(net, static_cast<std::size_t>(j));
    }
    if (l.kind == nn::LayerKind::Ewop) return elems;
    if (elems <= 0) return 0;  // concat of an unknown part is unknown
    total += elems;
  }
  return total;
}

std::int64_t network_input_elems(const nn::Network& net) {
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    for (const std::string& name : net.resolved_inputs(i)) {
      if (name != nn::kNetworkInput) continue;
      const std::int64_t e = expected_input_elems(net.layers()[i]);
      if (e > 0) return e;
    }
  }
  return 0;
}

AnalysisResult analyze_graph(const nn::Network& net,
                             GraphStrictness strictness) {
  AnalysisResult r;
  const std::vector<nn::Layer>& layers = net.layers();

  // Duplicate names (first declaration wins for every lookup below). The
  // network input's name counts as taken.
  std::set<std::string> seen{nn::kNetworkInput};
  for (const nn::Layer& l : layers) {
    if (!seen.insert(l.name).second) {
      report(r, Severity::Error, Check::DuplicateLayer, l.name,
             "another layer or the network input has this name; references "
             "are ambiguous");
    }
  }

  // Producer resolution, acyclicity, and shape agreement per edge.
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::Layer& l = layers[i];
    const std::vector<std::string> inputs = net.resolved_inputs(i);
    std::vector<std::int64_t> input_elems;
    for (const std::string& name : inputs) {
      if (name == nn::kNetworkInput) {
        input_elems.push_back(network_input_elems(net));
        continue;
      }
      const int j = net.find(name);
      if (j < 0) {
        report(r, Severity::Error, Check::MissingProducer, l.name,
               "input '" + name + "' names no layer in the network");
        input_elems.push_back(0);
        continue;
      }
      if (static_cast<std::size_t>(j) >= i) {
        report(r, Severity::Error, Check::GraphCycle, l.name,
               "input '" + name +
                   "' references itself or a later layer; the artifact is "
                   "not executable in declaration order");
        input_elems.push_back(0);
        continue;
      }
      // A Generic Ewop declares only a host-side op count; its output
      // geometry is unconstrained (e.g. an LSTM cell update emitting the
      // state vector, not its gate pre-activations), so it cannot anchor a
      // shape check. AddRelu and Concat have defined semantics and can.
      const nn::Layer& producer = net.layers()[static_cast<std::size_t>(j)];
      if (producer.kind == nn::LayerKind::Ewop &&
          producer.ewop_op == nn::EwopOp::Generic) {
        input_elems.push_back(0);
        continue;
      }
      input_elems.push_back(tensor_elems(net, static_cast<std::size_t>(j)));
    }

    // Shape agreement: the consumer's declared input geometry must match
    // what its producer actually emits. Element-wise adds additionally
    // need BOTH operands the same size.
    const std::int64_t expected = expected_input_elems(l);
    if (expected > 0) {
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        // Conv/MM/Pool consume one tensor; only the add checks every input.
        if (k > 0 && !(l.kind == nn::LayerKind::Ewop &&
                       l.ewop_op == nn::EwopOp::AddRelu))
          break;
        if (input_elems[k] > 0 && input_elems[k] != expected) {
          report(r, Severity::Error, Check::ShapeMismatch, l.name,
                 strformat("input '%s' has %lld elements but this layer's "
                           "geometry expects %lld",
                           inputs[k].c_str(),
                           static_cast<long long>(input_elems[k]),
                           static_cast<long long>(expected)));
        }
      }
    }
  }

  // Sinks: outputs nothing consumes. The artifact's output is the
  // last-declared sink; any other unconsumed output is dead work.
  const std::vector<std::string> sinks = net.sink_names();
  if (sinks.size() > 1) {
    report(r,
           strictness == GraphStrictness::Serving ? Severity::Error
                                                  : Severity::Warning,
           Check::MultipleSinks, net.name(),
           std::to_string(sinks.size()) + " unconsumed outputs (" +
               join(sinks, ", ") +
               "); the feed-forward runtime needs exactly one");
    for (std::size_t s = 0; s + 1 < sinks.size(); ++s) {
      report(r, Severity::Warning, Check::DeadLayer, sinks[s],
             "output is never consumed and is not the network output; the "
             "layer computes dead work");
    }
  }
  return r;
}

namespace {

/// True when a program's stored layer no longer matches the network's
/// layer of the same name (recompiled graph shipped with stale programs).
bool geometry_differs(const nn::Layer& a, const nn::Layer& b) {
  return a.kind != b.kind || a.in_c != b.in_c || a.in_h != b.in_h ||
         a.in_w != b.in_w || a.out_c != b.out_c || a.kh != b.kh ||
         a.kw != b.kw || a.stride != b.stride || a.pad != b.pad ||
         a.mm_m != b.mm_m || a.mm_n != b.mm_n || a.mm_p != b.mm_p ||
         a.repeat != b.repeat;
}

/// DRAM words the stream will read for its activations, reconstructed from
/// the workload's (stream-verified) trip counts plus the layer's
/// stride/padding: a CONV output row E needs input rows E*s .. E*s+R-1 of
/// the padded image, so (E_trip-1)*s + R - 2*pad real DRAM rows cover the
/// whole sweep. 0 when the workload is too damaged to reconstruct.
std::int64_t stream_act_read_words(const compiler::LayerProgram& prog) {
  const compiler::Workload& w = prog.workload;
  try {
    auto trip = [&](char tag) {
      return w.loops[static_cast<std::size_t>(w.loop_index(tag))].trip;
    };
    switch (w.kind) {
      case compiler::WorkloadKind::MatMul:
        // act[M][P]; weight groups split N, which never indexes act.
        return trip('M') * trip('P');
      case compiler::WorkloadKind::Conv:
      case compiler::WorkloadKind::DepthwiseConv: {
        const std::int64_t rows =
            (trip('E') - 1) * w.stride + trip('R') - 2 * prog.layer.pad;
        const std::int64_t cols =
            (trip('F') - 1) * w.stride + trip('S') - 2 * prog.layer.pad;
        // Depthwise splits its channel loop across weight groups; the
        // union of all groups' reads spans the layer's full channel count.
        const std::int64_t channels =
            w.kind == compiler::WorkloadKind::DepthwiseConv
                ? prog.layer.in_c
                : trip('N');
        return std::max<std::int64_t>(rows, 0) *
               std::max<std::int64_t>(cols, 0) * channels;
      }
    }
  } catch (const Error&) {
    // loop_index: expected tag absent — the per-stream checks own this.
  }
  return 0;
}

/// Inclusive liveness interval in execution steps: [definition step, last
/// consuming step]. Unconsumed outputs (sinks) and unknown producers run
/// to step n — a sink must survive the frame for readback.
struct Interval {
  std::int64_t def = 0;
  std::int64_t last = 0;
  bool intersects(const Interval& o) const {
    return def <= o.last && o.def <= last;
  }
};

}  // namespace

MemoryPlan plan_memory(const nn::Network& net,
                       const compiler::NetworkSchedule& schedule) {
  MemoryPlan plan;

  // Weights first: persistent for the whole frame, packed back to back.
  std::uint64_t top = 0;
  for (const compiler::LayerProgram& p : schedule.layers) {
    const std::uint64_t words =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            p.layer.weight_count(), 0));
    plan.weights.push_back(WeightPlan{p.layer.name, MemRange{top, words}});
    top += words;
  }

  // Activations: liveness-driven first-fit with reuse of dead tensors'
  // ranges. Deterministic: tensors are defined in execution order and the
  // free list is kept sorted by base and coalesced, so the ranges freed
  // before one step leave the same holes in any order.
  std::vector<MemRange> free_list;

  auto release = [&](const MemRange& range) {
    if (range.words == 0) return;
    auto it = std::upper_bound(
        free_list.begin(), free_list.end(), range,
        [](const MemRange& a, const MemRange& b) { return a.base < b.base; });
    it = free_list.insert(it, range);
    // Coalesce with the next and previous holes.
    if (it + 1 != free_list.end() && it->end() == (it + 1)->base) {
      it->words += (it + 1)->words;
      free_list.erase(it + 1);
    }
    if (it != free_list.begin() && (it - 1)->end() == it->base) {
      (it - 1)->words += it->words;
      free_list.erase(it);
    }
  };

  auto allocate = [&](std::uint64_t words) {
    if (words == 0) return MemRange{top, 0};
    for (auto it = free_list.begin(); it != free_list.end(); ++it) {
      if (it->words < words) continue;
      const MemRange got{it->base, words};
      it->base += words;
      it->words -= words;
      if (it->words == 0) free_list.erase(it);
      return got;
    }
    const MemRange got{top, words};
    top += words;
    return got;
  };

  // A tensor is freed before the first step after both its definition and
  // its last use; sinks (last use n) survive the frame for readback.
  const std::size_t n = net.layers().size();
  const std::vector<std::size_t> last_use = net.last_uses();
  std::vector<std::vector<MemRange>> freed_before(n + 2);
  auto place = [&](const std::string& producer, std::int64_t elems,
                   std::size_t last) {
    const MemRange range =
        allocate(static_cast<std::uint64_t>(std::max<std::int64_t>(elems, 0)));
    plan.tensors.push_back(TensorPlan{producer, range, 1});
    freed_before[last + 1].push_back(range);
  };
  place(nn::kNetworkInput, network_input_elems(net), last_use[0]);
  for (std::size_t i = 0; i < n; ++i) {
    for (const MemRange& range : freed_before[i]) release(range);
    place(net.layers()[i].name, tensor_elems(net, i),
          std::max(last_use[i + 1], i));
  }

  plan.image_words = top;
  return plan;
}

ScheduledNetwork make_scheduled(nn::Network net,
                                compiler::NetworkSchedule schedule) {
  MemoryPlan memory = plan_memory(net, schedule);
  return ScheduledNetwork(std::move(net), std::move(schedule),
                          std::move(memory));
}

AnalysisResult analyze_network(const ScheduledNetwork& sn) {
  obs::ScopedSpan span("analyze", "analyze_network",
                       {{"network", sn.net.name()}});
  AnalysisResult r = analyze_graph(sn.net, GraphStrictness::Artifact);
  const nn::Network& net = sn.net;
  const compiler::NetworkSchedule& sched = sn.schedule;
  const MemoryPlan& mem = sn.memory;

  // ---- schedule / graph cross-checks ---------------------------------------

  std::vector<std::string> overlay_names;
  for (const nn::Layer& l : net.layers()) {
    if (l.on_overlay()) overlay_names.push_back(l.name);
  }
  std::vector<std::string> program_names;
  for (const compiler::LayerProgram& p : sched.layers) {
    program_names.push_back(p.layer.name);
    const int j = net.find(p.layer.name);
    if (j < 0) {
      report(r, Severity::Error, Check::OrphanProgram, p.layer.name,
             "compiled program for a layer the network does not contain");
      continue;
    }
    const nn::Layer& l = net.layers()[static_cast<std::size_t>(j)];
    if (!l.on_overlay()) {
      report(r, Severity::Error, Check::OrphanProgram, p.layer.name,
             "compiled program for a host-side (EWOP-class) layer");
      continue;
    }
    if (geometry_differs(p.layer, l)) {
      report(r, Severity::Error, Check::StaleProgram, p.layer.name,
             "program geometry disagrees with the network's layer — the "
             "artifact mixes a recompiled graph with stale programs");
    }
  }
  for (const std::string& name : overlay_names) {
    const auto cnt = std::count(program_names.begin(), program_names.end(),
                                name);
    if (cnt == 0) {
      report(r, Severity::Error, Check::MissingProgram, name,
             "overlay layer has no compiled program in the schedule");
    } else if (cnt > 1) {
      report(r, Severity::Error, Check::ProgramOrderMismatch, name,
             "overlay layer is scheduled more than once");
    }
  }
  {
    // Order: the programs present must appear in network execution order.
    std::vector<std::string> expected;
    for (const std::string& name : overlay_names) {
      if (std::find(program_names.begin(), program_names.end(), name) !=
          program_names.end())
        expected.push_back(name);
    }
    std::vector<std::string> actual;
    for (const std::string& name : program_names) {
      if (std::find(overlay_names.begin(), overlay_names.end(), name) !=
          overlay_names.end())
        actual.push_back(name);
    }
    if (expected != actual &&
        std::is_permutation(expected.begin(), expected.end(), actual.begin(),
                            actual.end())) {
      report(r, Severity::Error, Check::ProgramOrderMismatch, net.name(),
             "schedule order disagrees with the network's execution order");
    }
  }

  // ---- memory family -------------------------------------------------------

  // Tensor ranges: exactly one per produced tensor (plus the input).
  std::map<std::string, const TensorPlan*> tensor_by_producer;
  for (const TensorPlan& t : mem.tensors) {
    if (!tensor_by_producer.emplace(t.producer, &t).second) {
      report(r, Severity::Error, Check::DuplicateTensorRange, t.producer,
             "two DRAM ranges planned for one tensor");
    }
  }
  auto check_range = [&](const std::string& where, const MemRange& range) {
    if (range.end() > mem.image_words) {
      report(r, Severity::Error, Check::TensorOutOfImage, where,
             strformat("range [%llu, %llu) ends beyond the %llu-word DRAM "
                       "image",
                       static_cast<unsigned long long>(range.base),
                       static_cast<unsigned long long>(range.end()),
                       static_cast<unsigned long long>(mem.image_words)));
    }
  };

  std::vector<std::string> expected_tensors{nn::kNetworkInput};
  for (const nn::Layer& l : net.layers()) expected_tensors.push_back(l.name);
  for (const std::string& name : expected_tensors) {
    auto it = tensor_by_producer.find(name);
    if (it == tensor_by_producer.end()) {
      report(r, Severity::Error, Check::MissingTensorRange, name,
             "tensor has no planned DRAM range");
      continue;
    }
    const TensorPlan& t = *it->second;
    if (t.elem_words != 1) {
      report(r, Severity::Error, Check::DtypeMismatch, name,
             strformat("%d words/element, but the int16 dataflow stores 1",
                       t.elem_words));
    }
    check_range(name, t.range);
    const std::int64_t elems =
        name == nn::kNetworkInput
            ? network_input_elems(net)
            : tensor_elems(net,
                           static_cast<std::size_t>(std::max(net.find(name), 0)));
    const std::int64_t need =
        elems * std::max(t.elem_words, 1);
    if (elems > 0 && t.range.words < static_cast<std::uint64_t>(need)) {
      report(r, Severity::Error, Check::TensorRangeUnderflow, name,
             strformat("range holds %llu words but the tensor needs %lld",
                       static_cast<unsigned long long>(t.range.words),
                       static_cast<long long>(need)));
    }
  }

  // Weight stores: one per scheduled program, sized to the layer.
  std::map<std::string, const WeightPlan*> weight_by_layer;
  for (const WeightPlan& w : mem.weights) {
    if (!weight_by_layer.emplace(w.layer, &w).second) {
      report(r, Severity::Error, Check::DuplicateTensorRange,
             "weights/" + w.layer, "two DRAM ranges planned for one store");
    }
    check_range("weights/" + w.layer, w.range);
  }
  const std::int64_t capacity =
      multifpga::device_weight_capacity(sched.config);
  for (const compiler::LayerProgram& p : sched.layers) {
    auto it = weight_by_layer.find(p.layer.name);
    if (it == weight_by_layer.end()) {
      report(r, Severity::Error, Check::MissingTensorRange,
             "weights/" + p.layer.name,
             "scheduled layer's weight store has no planned DRAM range");
    } else if (it->second->range.words !=
               static_cast<std::uint64_t>(p.layer.weight_count())) {
      report(r, Severity::Error, Check::WeightFootprintMismatch, p.layer.name,
             strformat("weight range holds %llu words but the layer has %lld",
                       static_cast<unsigned long long>(it->second->range.words),
                       static_cast<long long>(p.layer.weight_count())));
    }
    const std::int64_t resident = multifpga::resident_words(p);
    if (resident > capacity) {
      report(r, Severity::Error, Check::WbufResidencyOverflow, p.layer.name,
             strformat("one weight group needs %lld resident WBUF words but "
                       "the %dx%dx%d overlay holds %lld",
                       static_cast<long long>(resident), sched.config.d1,
                       sched.config.d2, sched.config.d3,
                       static_cast<long long>(capacity)));
    }
  }

  // Aliasing between simultaneously-live ranges. Weights are persistent;
  // activation liveness comes from the dataflow graph. Ranges of tensors
  // with disjoint lifetimes MAY alias (the planner reuses them on purpose).
  struct Entry {
    std::string label;
    MemRange range;
    Interval live;
  };
  // A producer is defined at the first layer of its name (step 0 for the
  // network input) and lives to its last use, or to step n when unknown.
  const std::int64_t always = static_cast<std::int64_t>(net.layers().size());
  const std::vector<std::size_t> last_use = net.last_uses();
  const auto live_of = [&](const std::string& producer) {
    const bool input = producer == nn::kNetworkInput;
    const int t = input ? 0 : net.find(producer) + 1;  // index into last_use
    if (t == 0 && !input) return Interval{0, always};
    const std::int64_t def = std::max(t - 1, 0);
    return Interval{def, std::max<std::int64_t>(last_use[t], def)};
  };
  std::vector<Entry> entries;
  for (const TensorPlan& t : mem.tensors) {
    entries.push_back(Entry{t.producer, t.range, live_of(t.producer)});
  }
  for (const WeightPlan& w : mem.weights) {
    entries.push_back(
        Entry{"weights/" + w.layer, w.range, Interval{0, always}});
  }
  for (std::size_t a = 0; a < entries.size(); ++a) {
    for (std::size_t b = a + 1; b < entries.size(); ++b) {
      if (!entries[a].range.overlaps(entries[b].range)) continue;
      if (!entries[a].live.intersects(entries[b].live)) continue;
      report(r, Severity::Error, Check::TensorOverlap, entries[a].label,
             strformat("range [%llu, %llu) aliases '%s' [%llu, %llu) while "
                       "both are live",
                       static_cast<unsigned long long>(entries[a].range.base),
                       static_cast<unsigned long long>(entries[a].range.end()),
                       entries[b].label.c_str(),
                       static_cast<unsigned long long>(entries[b].range.base),
                       static_cast<unsigned long long>(entries[b].range.end())));
    }
  }

  // Out-of-image DRAM reads reconstructed from each stream's tile/stride
  // configuration: the words a layer's launches will fetch must fit the
  // producer tensor's planned range.
  for (const compiler::LayerProgram& p : sched.layers) {
    const int j = net.find(p.layer.name);
    if (j < 0) continue;
    const std::vector<std::string> inputs =
        net.resolved_inputs(static_cast<std::size_t>(j));
    if (inputs.empty()) continue;
    auto it = tensor_by_producer.find(inputs.front());
    if (it == tensor_by_producer.end()) continue;  // reported above
    const std::int64_t required = stream_act_read_words(p);
    if (required > 0 &&
        static_cast<std::uint64_t>(required) > it->second->range.words) {
      report(r, Severity::Error, Check::DramOverread, p.layer.name,
             strformat("stream's tile/stride configuration reads %lld words "
                       "of '%s' but its DRAM range holds %llu",
                       static_cast<long long>(required),
                       inputs.front().c_str(),
                       static_cast<unsigned long long>(
                           it->second->range.words)));
    }
  }

  obs::count("analyze/networks_analyzed");
  obs::count("analyze/diagnostics",
             static_cast<std::int64_t>(r.diagnostics.size()));
  return r;
}

AnalysisResult analyze_partition(const compiler::NetworkSchedule& schedule,
                                 const multifpga::MultiFpgaPlan& plan) {
  obs::ScopedSpan span("analyze", "analyze_partition",
                       {{"network", schedule.network_name}});
  AnalysisResult r;
  const std::size_t n = schedule.layers.size();
  if (plan.stages.empty()) {
    report(r, Severity::Error, Check::StageCoverage, "",
           "plan has no stages");
    return r;
  }

  const std::int64_t capacity =
      multifpga::device_weight_capacity(schedule.config);
  std::size_t expect_first = 0;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const multifpga::StagePlan& st = plan.stages[s];
    const std::string where = "stage " + std::to_string(s);

    if (st.first_layer != expect_first || st.last_layer < st.first_layer ||
        st.last_layer >= n) {
      report(r, Severity::Error, Check::StageCoverage, where,
             strformat("covers layers [%zu, %zu] but the pipeline is at "
                       "layer %zu of %zu — stages must tile the schedule "
                       "contiguously",
                       st.first_layer, st.last_layer, expect_first, n));
      return r;  // downstream per-stage sums would all be noise
    }
    expect_first = st.last_layer + 1;

    std::int64_t cycles = 0, words = 0;
    for (std::size_t i = st.first_layer; i <= st.last_layer; ++i) {
      const compiler::LayerProgram& p = schedule.layers[i];
      cycles += p.total_cycles() * p.layer.repeat;
      words += multifpga::resident_words(p);
    }
    if (cycles != st.cycles) {
      report(r, Severity::Error, Check::StageCostMismatch, where,
             strformat("stage claims %lld cycles but its layers sum to %lld",
                       static_cast<long long>(st.cycles),
                       static_cast<long long>(cycles)));
    }
    if (words != st.resident_weight_words) {
      report(r, Severity::Error, Check::StageResidencyMismatch, where,
             strformat("stage claims %lld resident weight words but its "
                       "layers sum to %lld",
                       static_cast<long long>(st.resident_weight_words),
                       static_cast<long long>(words)));
    }
    if (plan.weights_resident && words > capacity) {
      report(r, Severity::Error, Check::StageResidencyOverflow, where,
             strformat("plan claims full residency but the stage needs %lld "
                       "of %lld device WBUF words",
                       static_cast<long long>(words),
                       static_cast<long long>(capacity)));
    }

    // Every cut edge ships exactly the boundary layer's activation tensor
    // (2 bytes per int16 element); the final stage ships nothing.
    const bool last_stage = s + 1 == plan.stages.size();
    const double expected_egress =
        last_stage
            ? 0.0
            : 2.0 * double(schedule.layers[st.last_layer].layer.out_elems());
    if (st.egress_bytes != expected_egress) {
      report(r, Severity::Error, Check::CutTransferMismatch, where,
             strformat("cut edge ships %.0f bytes but the boundary tensor "
                       "is %.0f bytes",
                       st.egress_bytes, expected_egress));
    }
  }
  if (expect_first != n) {
    report(r, Severity::Error, Check::StageCoverage, "",
           strformat("stages cover %zu of %zu scheduled layers",
                     expect_first, n));
  }
  obs::count("analyze/partitions_analyzed");
  return r;
}

void assert_network_analyzed(const ScheduledNetwork& sn) {
  const AnalysisResult r = analyze_network(sn);
  if (const Diagnostic* d = r.first_error()) {
    throw InternalError("network-level static analysis failed: " +
                        d->to_string());
  }
}

}  // namespace ftdl::analyze
