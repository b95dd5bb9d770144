// Minimal dense tensors for the quantized datapath.
//
// Tensor16 holds int16 data (weights / activations); AccTensor holds the
// wide accumulators a CONV/MM produces before host-side requantization.
//
// Storage discipline: element data lives in an ArenaVec (common/arena.h),
// so tensors created on a thread with an installed TensorArena draw from
// and return to its pool — the zero-copy memory path of the serving
// runtime. Shape metadata is an inline fixed-capacity Dims (rank <= 6), so
// constructing, copying or comparing tensor shapes never touches the heap.
// Code that never installs an arena sees plain heap-backed tensors.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/arena.h"
#include "common/error.h"
#include "common/fixed_point.h"
#include "common/rng.h"

namespace ftdl::nn {

/// Inline tensor shape: a fixed-capacity array of extents. Comparable
/// against std::vector<int> (both directions, via rewritten operator==) so
/// existing `t.dims() == std::vector<int>{...}` call sites keep working;
/// allocation-free call sites compare against a Dims literal instead.
class Dims {
 public:
  static constexpr int kMaxRank = 6;

  Dims() = default;
  Dims(std::initializer_list<int> d) {
    FTDL_ASSERT(d.size() <= kMaxRank);
    for (int v : d) d_[static_cast<std::size_t>(n_++)] = v;
  }
  // Implicit: lets the many std::vector<int>-shaped call sites convert.
  Dims(const std::vector<int>& d) {  // NOLINT(google-explicit-constructor)
    FTDL_ASSERT(d.size() <= kMaxRank);
    for (int v : d) d_[static_cast<std::size_t>(n_++)] = v;
  }

  std::size_t size() const { return static_cast<std::size_t>(n_); }
  bool empty() const { return n_ == 0; }
  int operator[](std::size_t i) const { return d_[i]; }
  const int* begin() const { return d_.data(); }
  const int* end() const { return d_.data() + n_; }

  bool operator==(const Dims&) const = default;
  bool operator==(const std::vector<int>& v) const {
    if (v.size() != size()) return false;
    for (std::size_t i = 0; i < size(); ++i)
      if (v[i] != d_[i]) return false;
    return true;
  }

 private:
  std::array<int, kMaxRank> d_{};
  int n_ = 0;
};

namespace detail {
inline std::int64_t shape_size(const Dims& dims) {
  std::int64_t n = 1;
  for (int d : dims) {
    FTDL_ASSERT(d > 0);
    n *= d;
  }
  return n;
}
}  // namespace detail

template <typename T>
class TensorT {
 public:
  TensorT() = default;
  explicit TensorT(const Dims& dims)
      : dims_(dims), data_(detail::shape_size(dims_)) {}
  /// Uninitialized elements: for a producer that writes every one.
  TensorT(const Dims& dims, NoInit)
      : dims_(dims), data_(detail::shape_size(dims_), no_init) {}

  const Dims& dims() const { return dims_; }
  std::int64_t size() const { return data_.size(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  const T& operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// 2-D access (row-major).
  T& at(int i, int j) { return data_[idx2(i, j)]; }
  const T& at(int i, int j) const { return data_[idx2(i, j)]; }

  /// 3-D access (c, h, w).
  T& at(int c, int h, int w) { return data_[idx3(c, h, w)]; }
  const T& at(int c, int h, int w) const { return data_[idx3(c, h, w)]; }

  /// 4-D access (o, i, h, w) — convolution weights.
  T& at(int o, int i, int h, int w) { return data_[idx4(o, i, h, w)]; }
  const T& at(int o, int i, int h, int w) const { return data_[idx4(o, i, h, w)]; }

  /// Fills with small deterministic values from `rng`.
  void fill_random(Rng& rng, std::int16_t magnitude = 7) {
    for (T& v : data_) v = static_cast<T>(rng.int16_small(magnitude));
  }

  bool operator==(const TensorT&) const = default;

 private:
  std::size_t idx2(int i, int j) const {
    FTDL_ASSERT(dims_.size() == 2);
    FTDL_ASSERT(i >= 0 && i < dims_[0] && j >= 0 && j < dims_[1]);
    return static_cast<std::size_t>(i) * dims_[1] + j;
  }
  std::size_t idx3(int c, int h, int w) const {
    FTDL_ASSERT(dims_.size() == 3);
    FTDL_ASSERT(c >= 0 && c < dims_[0] && h >= 0 && h < dims_[1] && w >= 0 &&
                w < dims_[2]);
    return (static_cast<std::size_t>(c) * dims_[1] + h) * dims_[2] + w;
  }
  std::size_t idx4(int o, int i, int h, int w) const {
    FTDL_ASSERT(dims_.size() == 4);
    FTDL_ASSERT(o >= 0 && o < dims_[0] && i >= 0 && i < dims_[1] && h >= 0 &&
                h < dims_[2] && w >= 0 && w < dims_[3]);
    return ((static_cast<std::size_t>(o) * dims_[1] + i) * dims_[2] + h) *
               dims_[3] +
           w;
  }

  Dims dims_;
  ArenaVec<T> data_;
};

using Tensor16 = TensorT<std::int16_t>;
using AccTensor = TensorT<acc_t>;

}  // namespace ftdl::nn
