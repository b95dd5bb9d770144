#include "compiler/search.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>
#include <queue>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "compiler/adjacency.h"

namespace ftdl::compiler {

const char* to_string(Objective o) {
  switch (o) {
    case Objective::Performance: return "Obj1-performance";
    case Objective::Balance: return "Obj2-balance";
  }
  return "?";
}

double objective_score(const Performance& p, Objective objective,
                       std::int64_t c_exe_min) {
  switch (objective) {
    case Objective::Performance:
      // Minimize C_exe; E_WBUF only breaks exact ties.
      return -double(p.c_exe) + 1e-7 * p.e_wbuf;
    case Objective::Balance:
      return balance_score(p, c_exe_min);
  }
  throw InternalError("unknown objective");
}

const Solution& SearchResult::best() const {
  if (top.empty()) throw InfeasibleError("no feasible mapping found");
  return top.front();
}

namespace {

/// FNV-1a over the K tiles of each level, in level order.
std::uint64_t mapping_hash(const Mapping& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (HwLevel level : kAllLevels) {
    for (std::int64_t v : m.level(level)) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// A short list of tile candidates, stored inline.
class CandList {
 public:
  static constexpr std::size_t kCap = 8;

  /// The single tile 1: what a level the adjacency matrix pins offers.
  static CandList unit() {
    CandList c;
    c.push(1);
    return c;
  }

  void push(std::int64_t v) { v_[n_++] = v; }
  std::size_t size() const { return n_; }
  std::int64_t operator[](std::size_t i) const { return v_[i]; }
  std::int64_t back() const { return v_[n_ - 1]; }
  const std::int64_t* begin() const { return v_.data(); }
  const std::int64_t* end() const { return v_.data() + n_; }

 private:
  std::array<std::int64_t, kCap> v_{};
  std::size_t n_ = 0;
};

/// Tile candidates for one loop at one level: the memoized candidates of
/// `trip` that fit `limit` (the remaining hardware extent; a prefix, since
/// the memo is sorted), thinned to at most `cap` entries. Thinning always
/// keeps the smallest and largest and samples evenly spaced indices between.
CandList level_cands(std::int64_t trip, std::int64_t limit, std::size_t cap) {
  FTDL_ASSERT(cap >= 2 && cap <= CandList::kCap);
  const std::vector<std::int64_t>& all = tile_candidates(trip);
  const auto n = static_cast<std::size_t>(
      std::upper_bound(all.begin(), all.end(), limit) - all.begin());
  CandList out;
  if (n == 0) {
    out.push(1);
  } else if (n <= cap) {
    for (std::size_t i = 0; i < n; ++i) out.push(all[i]);
  } else {
    out.push(all[0]);
    const double step = double(n - 1) / double(cap - 1);
    for (std::size_t i = 1; i + 1 < cap; ++i) {
      const auto idx = static_cast<std::size_t>(i * step);
      if (all[idx] != out.back()) out.push(all[idx]);
    }
    if (all[n - 1] != out.back()) out.push(all[n - 1]);
  }
  return out;
}

/// Per-search memo of level_cands results: open addressing with linear
/// probing over a power-of-two table keyed on (trip, limit, cap). A search
/// over a zoo layer asks for at most about 200 distinct keys, so the
/// initial table normally never grows; past half load it doubles.
class CandMemo {
 public:
  CandMemo() : slots_(512) {}

  /// The candidates for the key, valid until the next get() (which may grow
  /// the table).
  const CandList& get(std::int64_t trip, std::int64_t limit, std::size_t cap) {
    // Every candidate of `trip` is at most `trip`, so larger limits agree.
    limit = std::min(limit, trip);
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = find(trip, limit, cap);
    if (slot.trip == 0) {
      slot = Slot{trip, limit, cap, level_cands(trip, limit, cap)};
      ++size_;
    }
    return slot.cands;
  }

 private:
  struct Slot {
    std::int64_t trip = 0;  ///< 0 marks an empty slot (trips are >= 1)
    std::int64_t limit = 0;
    std::size_t cap = 0;
    CandList cands;
  };

  /// The slot holding the key, or the empty slot where it belongs.
  Slot& find(std::int64_t trip, std::int64_t limit, std::size_t cap) {
    const std::size_t mask = slots_.size() - 1;
    const std::uint64_t h =
        (static_cast<std::uint64_t>(trip) * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(limit) * 0xC2B2AE3D27D4EB4FULL) ^ cap;
    for (std::size_t i = (h ^ h >> 29) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.trip == 0 || (s.trip == trip && s.limit == limit && s.cap == cap))
        return s;
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.trip != 0) find(s.trip, s.limit, s.cap) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The set of mapping hashes already considered: open addressing with
/// linear probing over a power-of-two table. Sized from the evaluation
/// budget (a search inserts about one hash per evaluation), so it normally
/// never rehashes; past half load it doubles.
class HashSet {
 public:
  explicit HashSet(std::int64_t expected) {
    const std::int64_t want =
        std::clamp<std::int64_t>(2 * expected, 64, std::int64_t{1} << 20);
    slots_.assign(static_cast<std::size_t>(next_pow2(want)), kEmpty);
    shift_ = 64 - ilog2(static_cast<std::int64_t>(slots_.size()));
  }

  /// Adds `h`; false when it was already present.
  bool insert(std::uint64_t h) {
    if (h == kEmpty) return !std::exchange(has_empty_key_, true);
    if (2 * (size_ + 1) > slots_.size()) grow();
    return place(h);
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  bool place(std::uint64_t h) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: FNV-1a's low bits depend only on the tiles' low
    // bits, so index by the well-mixed high bits.
    for (std::size_t i = (h * 0x9E3779B97F4A7C15ULL) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == h) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = h;
        ++size_;
        return true;
      }
    }
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);
    --shift_;
    size_ = 0;
    for (std::uint64_t h : old) {
      if (h != kEmpty) place(h);
    }
  }

  std::vector<std::uint64_t> slots_;
  int shift_ = 0;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

class SearchEngine {
 public:
  SearchEngine(const Workload& w, const arch::OverlayConfig& cfg,
               const SearchOptions& opt)
      : w_(w),
        cfg_(cfg),
        opt_(opt),
        c_min_(min_execution_cycles(w, cfg)),
        seen_(opt.max_candidates) {
    for (HwLevel level : kAllLevels) {
      for (int loop = 0; loop < w.k(); ++loop) {
        if (adjacency_allows(w, level, loop)) {
          allowed_[static_cast<std::size_t>(level)] |= 1U << loop;
        }
      }
    }
  }

  SearchResult run() {
    run_canonicals();
    result_.dfs_exhausted = run_dfs();
    run_sampling();
    if (opt_.refine) run_refinement();

    // Drain the heap into best-first order.
    std::vector<Solution> sorted;
    sorted.reserve(heap_.size());
    while (!heap_.empty()) {
      sorted.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(sorted.begin(), sorted.end());
    result_.top = std::move(sorted);
    return std::move(result_);
  }

 private:
  struct WorseScore {
    bool operator()(const Solution& a, const Solution& b) const {
      return a.score > b.score;  // min-heap on score
    }
  };

  bool budget_left() const { return result_.evaluated < opt_.max_candidates; }

  /// The adjacency matrix's entry for (level, loop), read from the mask.
  bool allows(HwLevel level, int loop) const {
    return (allowed_[static_cast<std::size_t>(level)] >> loop & 1U) != 0;
  }

  /// satisfies_adjacency over the mask: every pinned tile is 1.
  bool adjacency_ok(const Mapping& m) const {
    const unsigned loops = (1U << w_.k()) - 1;
    for (HwLevel level : kAllLevels) {
      const unsigned allowed = allowed_[static_cast<std::size_t>(level)];
      for (unsigned pinned = loops & ~allowed; pinned != 0;
           pinned &= pinned - 1) {
        if (m.tile(level, std::countr_zero(pinned)) > 1) return false;
      }
    }
    return true;
  }

  /// Evaluates one candidate mapping and feeds the top-k heap. Candidates
  /// are legal: the generators tile only adjacency-allowed levels, within the
  /// remaining spatial extent, with X the covering remainder; refinement
  /// passes only moves score_of() accepted.
  void consider(const Mapping& m) {
    if (!seen_.insert(mapping_hash(m))) return;
    assert(adjacency_ok(m) &&
           satisfies_logical_constraints(m, w_, cfg_.d1, cfg_.d2, cfg_.d3));
    ++result_.evaluated;
    // Most candidates overflow a buffer; only those that fit pay for the
    // cycle model.
    if (!opt_.keep_infeasible && !buffer_usage(w_, m).fits(cfg_)) return;

    const Performance perf = evaluate(w_, m, cfg_);
    if (perf.feasible) ++result_.feasible;
    const double score = objective_score(perf, opt_.objective, c_min_);

    if (static_cast<int>(heap_.size()) < opt_.top_k) {
      heap_.push(Solution{m, perf, score});
    } else if (score > heap_.top().score) {
      heap_.pop();
      heap_.push(Solution{m, perf, score});
    }
  }

  // ---- generator 1: canonical greedy constructions -------------------------

  /// Greedy fill of one spatial level: assign each loop in `loops` (a bit
  /// set over loop indices, taken in ascending order) the largest candidate
  /// tile that fits the remaining extent.
  void greedy_fill(Mapping& m, HwLevel level, unsigned loops,
                   std::int64_t extent) {
    std::int64_t left = extent;
    for (int loop = 0; loop < w_.k(); ++loop) {
      if ((loops >> loop & 1U) == 0) continue;
      if (!allows(level, loop)) continue;
      const std::int64_t covered = m.spatial_extent(loop);
      const std::int64_t rem =
          ceil_div(w_.loops[static_cast<std::size_t>(loop)].trip, covered);
      std::int64_t best = 1;
      for (std::int64_t c : tile_candidates(rem)) {
        if (c <= left && c > best) best = c;
      }
      m.tile(level, loop) = best;
      left /= best;
      if (left <= 1) break;
    }
  }

  void run_canonicals() {
    // Loop-priority orders. Reduction loops feed D1; the weight-only loop
    // feeds D2; output loops feed D3. Enumerate every non-empty subset of
    // the D1 and D3 candidate loop sets (bit i = loop i) as a fill order.
    unsigned reduction = 0, output = 0, weight_only = 0;
    for (int i = 0; i < w_.k(); ++i) {
      const WorkloadLoop& l = w_.loops[static_cast<std::size_t>(i)];
      const unsigned bit = 1U << i;
      if (l.is_reduction) reduction |= bit;
      if (!l.is_reduction) output |= bit;
      if (l.indexes_weight && !l.indexes_act) weight_only |= bit;
    }

    // The next larger non-empty subset of `set` after `s`; 0 past the last.
    auto next_subset = [](unsigned s, unsigned set) { return (s - set) & set; };

    for (unsigned d1_set = next_subset(0, reduction); d1_set != 0;
         d1_set = next_subset(d1_set, reduction)) {
      for (unsigned d3_set = next_subset(0, output); d3_set != 0;
           d3_set = next_subset(d3_set, output)) {
        if (!budget_left()) return;
        Mapping m = Mapping::identity(w_.k());
        greedy_fill(m, HwLevel::D1, d1_set, cfg_.d1);
        greedy_fill(m, HwLevel::D2, weight_only, cfg_.d2);
        greedy_fill(m, HwLevel::D3, d3_set, cfg_.d3);
        fill_temporal_greedy(m);
        consider(m);
      }
    }
  }

  /// Completes a spatial assignment with a greedy temporal schedule:
  /// T takes activation-only loops first (double-pump weight reuse) within
  /// the ActBUF budget, L absorbs activation loops within the PSumBUF
  /// budget, X takes the remainder. WBUF feasibility is not enforced here;
  /// infeasible mappings are filtered by consider().
  void fill_temporal_greedy(Mapping& m) {
    // T level: activation-only loops, largest tiles first.
    std::int64_t act_budget = cfg_.actbuf_usable();
    for (int i = 0; i < w_.k(); ++i) {
      const WorkloadLoop& l = w_.loops[static_cast<std::size_t>(i)];
      if (!(l.indexes_act && !l.indexes_weight)) continue;
      const std::int64_t rem = ceil_div(l.trip, m.spatial_extent(i));
      std::int64_t best = 1;
      for (std::int64_t c : tile_candidates(rem)) {
        if (c <= act_budget && c > best) best = c;
      }
      m.tile(HwLevel::T, i) = best;
      act_budget /= best;
    }
    // T level: small kernel reduction loops ride along (they are cheap in
    // ActBUF halo and avoid multi-pass psum traffic).
    for (int i = 0; i < w_.k(); ++i) {
      const WorkloadLoop& l = w_.loops[static_cast<std::size_t>(i)];
      if (!l.is_reduction || l.indexes_weight == false) continue;
      const std::int64_t rem = ceil_div(l.trip, m.spatial_extent(i));
      if (rem <= 8) m.tile(HwLevel::T, i) = rem;
    }
    // L level: remaining activation loops within the psum budget.
    std::int64_t psum_budget = cfg_.psumbuf_usable();
    std::int64_t psum_now = 1;
    for (int i = 0; i < w_.k(); ++i) {
      if (!w_.loops[static_cast<std::size_t>(i)].is_reduction) {
        psum_now *= m.tile(HwLevel::T, i);
      }
    }
    for (int i = 0; i < w_.k(); ++i) {
      const WorkloadLoop& l = w_.loops[static_cast<std::size_t>(i)];
      if (!allows(HwLevel::L, i)) continue;
      const std::int64_t rem = ceil_div(
          l.trip, m.spatial_extent(i) * m.tile(HwLevel::T, i));
      std::int64_t best = 1;
      for (std::int64_t c : tile_candidates(rem)) {
        const bool widens = !l.is_reduction;
        if ((!widens || psum_now * c <= psum_budget) && c > best) best = c;
      }
      m.tile(HwLevel::L, i) = best;
      if (!l.is_reduction) psum_now *= best;
    }
    // X level: whatever is left.
    for (int i = 0; i < w_.k(); ++i) {
      const std::int64_t covered = m.spatial_extent(i) *
                                   m.tile(HwLevel::T, i) *
                                   m.tile(HwLevel::L, i);
      m.tile(HwLevel::X, i) =
          ceil_div(w_.loops[static_cast<std::size_t>(i)].trip, covered);
    }
  }

  // ---- generator 2: structured DFS -----------------------------------------

  bool run_dfs() {
    const std::int64_t dfs_budget =
        result_.evaluated + (opt_.max_candidates * 3) / 10;
    Mapping m = Mapping::identity(w_.k());
    return dfs_loop(m, 0, cfg_.d1, cfg_.d2, cfg_.d3, dfs_budget);
  }

  /// DFS over loops; per loop enumerate (D1, D2, D3, T, L) tiles from thin
  /// candidate lists; X is the determined remainder. Returns false when the
  /// budget cut enumeration short.
  bool dfs_loop(Mapping& m, int loop, std::int64_t d1_left,
                std::int64_t d2_left, std::int64_t d3_left,
                std::int64_t budget) {
    if (loop == w_.k()) {
      consider(m);
      return true;
    }
    if (result_.evaluated >= budget || !budget_left()) return false;

    const std::int64_t trip = w_.loops[static_cast<std::size_t>(loop)].trip;
    const CandList s1s = allows(HwLevel::D1, loop)
                             ? cands_.get(trip, d1_left, 3)
                             : CandList::unit();
    bool complete = true;
    for (std::int64_t s1 : s1s) {
      const std::int64_t rem1 = ceil_div(trip, s1);
      const CandList s2s = allows(HwLevel::D2, loop)
                               ? cands_.get(rem1, d2_left, 3)
                               : CandList::unit();
      for (std::int64_t s2 : s2s) {
        const std::int64_t rem2 = ceil_div(rem1, s2);
        const CandList s3s = allows(HwLevel::D3, loop)
                                 ? cands_.get(rem2, d3_left, 3)
                                 : CandList::unit();
        for (std::int64_t s3 : s3s) {
          const std::int64_t rem3 = ceil_div(rem2, s3);
          const CandList tts = cands_.get(rem3, rem3, 4);
          for (std::int64_t tt : tts) {
            const std::int64_t rem4 = ceil_div(rem3, tt);
            const CandList tls = allows(HwLevel::L, loop)
                                     ? cands_.get(rem4, rem4, 3)
                                     : CandList::unit();
            for (std::int64_t tl : tls) {
              m.tile(HwLevel::D1, loop) = s1;
              m.tile(HwLevel::D2, loop) = s2;
              m.tile(HwLevel::D3, loop) = s3;
              m.tile(HwLevel::T, loop) = tt;
              m.tile(HwLevel::L, loop) = tl;
              m.tile(HwLevel::X, loop) = ceil_div(rem4, tl);
              complete &= dfs_loop(m, loop + 1, d1_left / s1, d2_left / s2,
                                   d3_left / s3, budget);
              if (result_.evaluated >= budget || !budget_left()) {
                reset_loop(m, loop);
                return false;
              }
            }
          }
        }
      }
    }
    reset_loop(m, loop);
    return complete;
  }

  void reset_loop(Mapping& m, int loop) {
    for (HwLevel level : kAllLevels) m.tile(level, loop) = 1;
  }

  // ---- generator 3: biased random sampling ----------------------------------

  void run_sampling() {
    Rng rng(opt_.seed);
    // Duplicate samples do not consume budget, so bound raw attempts too
    // (tiny workloads can exhaust their whole mapping space).
    std::int64_t attempts = 0;
    const std::int64_t max_attempts = opt_.max_candidates * 4;
    while (budget_left() && attempts++ < max_attempts) {
      consider(sample_mapping(rng));
    }
  }

  Mapping sample_mapping(Rng& rng) {
    Mapping m = Mapping::identity(w_.k());
    std::int64_t d1_left = cfg_.d1, d2_left = cfg_.d2, d3_left = cfg_.d3;

    // Visit loops in a random order so spatial budget is shared fairly.
    std::array<int, kMaxLoops> order{};
    for (int i = 0; i < w_.k(); ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = w_.k() - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.uniform(0, i))]);
    }

    auto pick = [&rng](const CandList& cands, double max_bias) {
      if (rng.uniform01() < max_bias) return cands.back();
      return cands[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(cands.size()) - 1))];
    };

    for (int i = 0; i < w_.k(); ++i) {
      const int loop = order[static_cast<std::size_t>(i)];
      std::int64_t rem = w_.loops[static_cast<std::size_t>(loop)].trip;
      if (allows(HwLevel::D1, loop) && d1_left > 1) {
        const std::int64_t s = pick(cands_.get(rem, d1_left, 8), 0.5);
        m.tile(HwLevel::D1, loop) = s;
        d1_left /= s;
        rem = ceil_div(rem, s);
      }
      if (allows(HwLevel::D2, loop) && d2_left > 1) {
        const std::int64_t s = pick(cands_.get(rem, d2_left, 8), 0.6);
        m.tile(HwLevel::D2, loop) = s;
        d2_left /= s;
        rem = ceil_div(rem, s);
      }
      if (allows(HwLevel::D3, loop) && d3_left > 1) {
        const std::int64_t s = pick(cands_.get(rem, d3_left, 8), 0.35);
        m.tile(HwLevel::D3, loop) = s;
        d3_left /= s;
        rem = ceil_div(rem, s);
      }
      const std::int64_t tt = pick(cands_.get(rem, rem, 8), 0.3);
      m.tile(HwLevel::T, loop) = tt;
      rem = ceil_div(rem, tt);
      if (allows(HwLevel::L, loop)) {
        const std::int64_t tl = pick(cands_.get(rem, rem, 8), 0.3);
        m.tile(HwLevel::L, loop) = tl;
        rem = ceil_div(rem, tl);
      }
      m.tile(HwLevel::X, loop) = rem;
    }
    return m;
  }

  // ---- generator 4: hill-climbing refinement --------------------------------

  /// Score of a mapping regardless of the dedup set; nullopt when illegal
  /// or infeasible. Refinement moves can be illegal, so the legality checks
  /// run here. run_refinement() counts each call toward the budget.
  std::optional<double> score_of(const Mapping& m) {
    if (!adjacency_ok(m)) return std::nullopt;
    if (!satisfies_logical_constraints(m, w_, cfg_.d1, cfg_.d2, cfg_.d3))
      return std::nullopt;
    if (!buffer_usage(w_, m).fits(cfg_)) return std::nullopt;
    return objective_score(evaluate(w_, m, cfg_), opt_.objective, c_min_);
  }

  /// Recomputes loop k's X tile as the minimal cover remainder.
  void fix_x(Mapping& m, int k) const {
    const std::int64_t covered = m.spatial_extent(k) * m.tile(HwLevel::L, k) *
                                 m.tile(HwLevel::T, k);
    m.tile(HwLevel::X, k) =
        ceil_div(w_.loops[static_cast<std::size_t>(k)].trip, covered);
  }

  void run_refinement() {
    // Snapshot the current heap as seeds (best-first).
    std::vector<Solution> seeds;
    {
      auto heap_copy = heap_;
      while (!heap_copy.empty()) {
        seeds.push_back(heap_copy.top());
        heap_copy.pop();
      }
      std::reverse(seeds.begin(), seeds.end());
    }
    if (seeds.size() > 8) seeds.resize(8);

    constexpr std::array<std::int64_t, 4> kPrimes = {2, 3, 5, 7};
    const std::array<HwLevel, 5> targets = {HwLevel::D1, HwLevel::D2,
                                            HwLevel::D3, HwLevel::L,
                                            HwLevel::T};

    for (const Solution& seed : seeds) {
      Mapping cur = seed.mapping;
      double cur_score = seed.score;
      bool improved = true;
      while (improved && budget_left()) {
        improved = false;
        for (int k = 0; k < w_.k() && !improved; ++k) {
          for (HwLevel to : targets) {
            if (!allows(to, k)) continue;
            for (HwLevel from :
                 {HwLevel::X, HwLevel::D1, HwLevel::D2, HwLevel::D3,
                  HwLevel::L, HwLevel::T}) {
              if (from == to) continue;
              for (std::int64_t p : kPrimes) {
                Mapping cand = cur;
                if (from != HwLevel::X) {
                  if (cand.tile(from, k) % p != 0) continue;
                  cand.tile(from, k) /= p;
                }
                cand.tile(to, k) *= p;
                fix_x(cand, k);
                const auto s = score_of(cand);
                ++result_.evaluated;
                if (s && *s > cur_score) {
                  cur = cand;
                  cur_score = *s;
                  ++result_.refinement_improvements;
                  consider(cur);  // feed the heap (dedup-protected)
                  improved = true;
                  break;
                }
              }
              if (improved) break;
            }
            if (improved) break;
          }
        }
      }
    }
  }

  const Workload& w_;
  const arch::OverlayConfig& cfg_;
  const SearchOptions& opt_;
  const std::int64_t c_min_;

  SearchResult result_;
  std::priority_queue<Solution, std::vector<Solution>, WorseScore> heap_;
  HashSet seen_;
  CandMemo cands_;
  /// Bit `loop` of allowed_[level]: the adjacency matrix lets `loop` take a
  /// tile > 1 at `level`. Built once per search.
  std::array<unsigned, kHwLevels> allowed_{};
};

}  // namespace

SearchResult search_mappings(const Workload& w,
                             const arch::OverlayConfig& config,
                             const SearchOptions& options) {
  FTDL_ASSERT(options.top_k >= 1);
  config.validate();
  SearchEngine engine(w, config, options);
  return engine.run();
}

Solution best_mapping(const Workload& w, const arch::OverlayConfig& config,
                      Objective objective, std::int64_t max_candidates) {
  SearchOptions opt;
  opt.objective = objective;
  opt.top_k = 1;
  opt.max_candidates = max_candidates;
  SearchResult r = search_mappings(w, config, opt);
  if (r.top.empty()) {
    throw InfeasibleError("no feasible mapping for workload " + w.name);
  }
  return r.top.front();
}

}  // namespace ftdl::compiler
