#include "compiler/mapping.h"

#include <algorithm>

#include "common/error.h"
#include "common/str_util.h"

namespace ftdl::compiler {

const char* to_string(HwLevel level) {
  switch (level) {
    case HwLevel::D1: return "D1";
    case HwLevel::D2: return "D2";
    case HwLevel::D3: return "D3";
    case HwLevel::X: return "X";
    case HwLevel::L: return "L";
    case HwLevel::T: return "T";
  }
  return "?";
}

Mapping Mapping::identity(int k) {
  FTDL_ASSERT(k > 0 && k <= kMaxLoops);
  Mapping m;
  m.k_ = k;
  for (auto& v : m.t_) std::fill_n(v.begin(), k, 1);
  return m;
}

bool operator==(const Mapping& a, const Mapping& b) {
  if (a.k_ != b.k_) return false;
  for (HwLevel level : kAllLevels) {
    if (!std::ranges::equal(a.level(level), b.level(level))) return false;
  }
  return true;
}

std::int64_t Mapping::level_product(HwLevel level) const {
  std::int64_t p = 1;
  for (std::int64_t v : this->level(level)) p *= v;
  return p;
}

std::int64_t Mapping::loop_coverage(int loop) const {
  std::int64_t p = 1;
  for (const auto& level : t_) p *= level[static_cast<std::size_t>(loop)];
  return p;
}

std::int64_t Mapping::temporal_extent(int loop) const {
  return tile(HwLevel::X, loop) * tile(HwLevel::L, loop) * tile(HwLevel::T, loop);
}

std::int64_t Mapping::spatial_extent(int loop) const {
  return tile(HwLevel::D1, loop) * tile(HwLevel::D2, loop) *
         tile(HwLevel::D3, loop);
}

std::int64_t Mapping::padded_macs() const {
  std::int64_t p = 1;
  for (int i = 0; i < k(); ++i) p *= loop_coverage(i);
  return p;
}

std::string Mapping::to_string(const Workload& w) const {
  std::string out;
  for (HwLevel level : kAllLevels) {
    out += ftdl::compiler::to_string(level);
    out += ":(";
    for (int i = 0; i < k(); ++i) {
      if (i) out += ",";
      out += strformat("%c=%lld", w.loops[i].tag,
                       static_cast<long long>(tile(level, i)));
    }
    out += ") ";
  }
  return out;
}

bool satisfies_logical_constraints(const Mapping& m, const Workload& w, int d1,
                                   int d2, int d3) {
  if (m.k() != w.k()) return false;
  // Eqn. 10: spatial products bounded by the hardware extents.
  if (m.level_product(HwLevel::D1) > d1) return false;
  if (m.level_product(HwLevel::D2) > d2) return false;
  if (m.level_product(HwLevel::D3) > d3) return false;
  // Eqn. 11: every workload loop fully covered (padding allowed).
  for (int i = 0; i < w.k(); ++i) {
    if (m.loop_coverage(i) < w.loops[i].trip) return false;
  }
  // Tiles are positive by construction; reject degenerate values anyway.
  for (HwLevel level : kAllLevels) {
    for (std::int64_t v : m.level(level)) {
      if (v < 1) return false;
    }
  }
  return true;
}

}  // namespace ftdl::compiler
