// ftdl::TensorArena — a thread-aware pooled allocator for tensor storage.
//
// Steady-state inference allocates the same tensor shapes every request:
// layer intermediates, accumulators, weight-group slices, the output. A
// TensorArena recycles those blocks instead of returning them to the heap:
//
//   * blocks are pooled in power-of-two size classes, so a request's
//     tensors are served from the free lists after the first (warm-up)
//     pass — zero heap allocations in steady state (pinned by the
//     allocation-counter test in tests/test_serve.cpp);
//   * installation is scoped and per-thread (TensorArena::Scope): inside a
//     scope, every ArenaVec/TensorT allocation on that thread draws from
//     the installed arena. Code that never installs one is unaffected —
//     ArenaVec falls back to the plain heap;
//   * blocks remember their owning arena (a shared owner handle), so a
//     tensor may safely escape the scope — and the thread — that allocated
//     it: its storage returns to the owning pool on destruction, from any
//     thread, and keeps the pool's core alive until then;
//   * ArenaStats (reuses / fallback_allocs / bytes / high-water) make the
//     zero-alloc claim observable; serve publishes them as
//     runtime/arena_* counters and a high-water gauge.
//
// The pool core is mutex-protected, so cross-thread releases are safe; the
// intended pattern (one arena per serve worker) keeps the lock uncontended.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace ftdl {

namespace arena_detail {

struct Core;

/// One allocated block: pointer, byte capacity (an arena block's rounded up
/// to its size class, a heap block's exactly the request), and a shared
/// handle to the owning arena core (null = plain heap block).
struct Buffer {
  void* p = nullptr;
  std::size_t cap = 0;
  std::shared_ptr<void> owner;
};

/// Allocates >= `bytes` from the calling thread's installed arena, or
/// exactly `bytes` from the heap when none is installed. Contents are
/// uninitialized.
Buffer acquire(std::size_t bytes);

/// Returns the block to its owning arena (or the heap) and clears `b`.
void release(Buffer& b) noexcept;

}  // namespace arena_detail

/// Pool counters. `bytes_allocated` is the total capacity the arena ever
/// drew from the heap (live + pooled); `bytes_in_use` the capacity of
/// currently outstanding blocks; `high_water_bytes` the peak of in-use.
struct ArenaStats {
  std::int64_t reuses = 0;
  std::int64_t fallback_allocs = 0;
  std::int64_t bytes_allocated = 0;
  std::int64_t bytes_in_use = 0;
  std::int64_t high_water_bytes = 0;
};

class TensorArena {
 public:
  TensorArena();
  ~TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  ArenaStats stats() const;

  /// Installs the arena as the calling thread's allocation target for the
  /// scope's lifetime; restores the previous target (usually none) on exit.
  /// Scopes nest.
  class Scope {
   public:
    explicit Scope(TensorArena& arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::shared_ptr<void> prev_;
  };

 private:
  std::shared_ptr<arena_detail::Core> core_;
};

/// Tag for storage whose every element the caller writes before reading:
/// skips the zero fill.
struct NoInit {
  explicit NoInit() = default;
};
inline constexpr NoInit no_init{};

/// Minimal fixed-size trivial-element array backed by arena_detail blocks —
/// the storage of TensorT. Mirrors the std::vector surface the tensors
/// used: value-initialized elements, deep copies, moves that steal.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivial_v<T>,
                "ArenaVec supports trivial element types only");

 public:
  ArenaVec() = default;
  explicit ArenaVec(std::int64_t n) { reset(n); }
  ArenaVec(std::int64_t n, NoInit) { reset_uninit(n); }
  ~ArenaVec() { arena_detail::release(buf_); }

  ArenaVec(const ArenaVec& o) {
    reset_uninit(o.n_);
    copy_from(o);
  }
  ArenaVec& operator=(const ArenaVec& o) {
    if (this == &o) return *this;
    // Reuse the block when it is big enough: steady-state assignment of a
    // recurring shape touches no allocator at all.
    if (buf_.cap < static_cast<std::size_t>(o.n_) * sizeof(T)) {
      arena_detail::release(buf_);
      reset_uninit(o.n_);
    } else {
      n_ = o.n_;
    }
    copy_from(o);
    return *this;
  }
  ArenaVec(ArenaVec&& o) noexcept : buf_(o.buf_), n_(o.n_) {
    o.buf_ = {};
    o.n_ = 0;
  }
  ArenaVec& operator=(ArenaVec&& o) noexcept {
    if (this == &o) return *this;
    arena_detail::release(buf_);
    buf_ = o.buf_;
    n_ = o.n_;
    o.buf_ = {};
    o.n_ = 0;
    return *this;
  }

  std::int64_t size() const { return n_; }
  T* data() { return static_cast<T*>(buf_.p); }
  const T* data() const { return static_cast<const T*>(buf_.p); }
  T* begin() { return data(); }
  T* end() { return data() + n_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + n_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  bool operator==(const ArenaVec& o) const {
    return n_ == o.n_ &&
           (n_ == 0 || std::memcmp(data(), o.data(),
                                   static_cast<std::size_t>(n_) * sizeof(T)) ==
                           0);
  }

 private:
  void reset_uninit(std::int64_t n) {
    buf_ = arena_detail::acquire(static_cast<std::size_t>(n) * sizeof(T));
    n_ = n;
  }
  void reset(std::int64_t n) {
    reset_uninit(n);
    if (n_ > 0)
      std::memset(buf_.p, 0, static_cast<std::size_t>(n_) * sizeof(T));
  }
  void copy_from(const ArenaVec& o) {
    if (n_ > 0)
      std::memcpy(buf_.p, o.buf_.p, static_cast<std::size_t>(n_) * sizeof(T));
  }

  arena_detail::Buffer buf_;
  std::int64_t n_ = 0;
};

}  // namespace ftdl
