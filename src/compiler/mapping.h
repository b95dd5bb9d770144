// Mapping vectors (Sec. IV-A, Eqns. 2-6).
//
// A mapping assigns every workload loop a tile size at each of the six
// hardware levels (D1, D2, D3, X, L, T): the matrix T of Eqn. 4. Spatial
// levels run in parallel on the overlay; temporal levels are the Listing-1
// control flow. The product of a loop's tiles across all levels covers its
// trip count (padding allowed, Eqn. 11).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "compiler/workload.h"

namespace ftdl::compiler {

enum class HwLevel : int { D1 = 0, D2 = 1, D3 = 2, X = 3, L = 4, T = 5 };
inline constexpr int kHwLevels = 6;
inline constexpr std::array<HwLevel, kHwLevels> kAllLevels = {
    HwLevel::D1, HwLevel::D2, HwLevel::D3, HwLevel::X, HwLevel::L, HwLevel::T};

const char* to_string(HwLevel level);

/// Most workload loops any overlay layer lowers to (CONV: M N E F R S).
inline constexpr int kMaxLoops = 6;

/// The tiles live inline (no heap), so the mapping search can copy, hash
/// and compare candidates without touching the allocator.
class Mapping {
 public:
  /// Identity mapping (all tiles 1) for a K-loop workload, 1 <= K <= 6.
  static Mapping identity(int k);

  int k() const { return k_; }

  std::int64_t tile(HwLevel level, int loop) const {
    return t_[static_cast<int>(level)][static_cast<std::size_t>(loop)];
  }
  std::int64_t& tile(HwLevel level, int loop) {
    return t_[static_cast<int>(level)][static_cast<std::size_t>(loop)];
  }

  /// The K tiles of one hardware level, in workload-loop order.
  std::span<const std::int64_t> level(HwLevel level) const {
    return {t_[static_cast<int>(level)].data(), static_cast<std::size_t>(k_)};
  }

  /// Same K and the same tiles at every level.
  friend bool operator==(const Mapping& a, const Mapping& b);

  /// Product of the mapping vector at `level` (Eqn. 6 for X/L/T; the
  /// spatial-resource demand for D1/D2/D3, Eqn. 10 left-hand sides).
  std::int64_t level_product(HwLevel level) const;

  /// Product of all levels' tiles for workload loop k (Eqn. 11 LHS).
  std::int64_t loop_coverage(int loop) const;

  /// Tile product across the *temporal* levels (X*L*T) for loop k — the
  /// per-TPE workload extent used by buffer sizing and E_WBUF.
  std::int64_t temporal_extent(int loop) const;

  /// Tile product across the *spatial* levels (D1*D2*D3) for loop k.
  std::int64_t spatial_extent(int loop) const;

  /// Padded MACs implied by this mapping (>= workload.macs()).
  std::int64_t padded_macs() const;

  std::string to_string(const Workload& w) const;

 private:
  /// t_[level][k]: tile size of workload loop k at hardware level `level`.
  /// Entries at k >= k() stay 0.
  std::array<std::array<std::int64_t, kMaxLoops>, kHwLevels> t_{};
  int k_ = 0;
};

/// Checks Eqns. 10-11 against a hardware shape: spatial products within
/// (d1, d2, d3) and every loop fully covered. Returns false (never throws)
/// so the search can use it as a filter.
bool satisfies_logical_constraints(const Mapping& m, const Workload& w, int d1,
                                   int d2, int d3);

}  // namespace ftdl::compiler
