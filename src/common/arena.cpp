#include "common/arena.h"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ftdl {

namespace {

/// Size classes are powers of two from 64 bytes (class 6) up; the class
/// index is the exponent. 48 classes cover every allocation the int16/int64
/// tensors can express.
constexpr int kMinClass = 6;
constexpr int kClasses = 48;

int size_class(std::size_t bytes) {
  const int w = bytes <= 1 ? 1 : std::bit_width(bytes - 1);
  return w < kMinClass ? kMinClass : w;
}

}  // namespace

namespace arena_detail {

struct Core {
  mutable Mutex mu;
  std::array<std::vector<void*>, kClasses> free FTDL_GUARDED_BY(mu);
  ArenaStats stats FTDL_GUARDED_BY(mu);

  ~Core() {
    // Outstanding blocks hold a shared owner handle, so the core only dies
    // once every block has been released; the free lists are all there is.
    for (auto& fl : free)
      for (void* p : fl) ::operator delete(p);
  }

  void* acquire(int cls) {
    const auto cap = static_cast<std::int64_t>(std::size_t{1} << cls);
    MutexLock lock(mu);
    void* p = nullptr;
    auto& fl = free[static_cast<std::size_t>(cls)];
    if (!fl.empty()) {
      p = fl.back();
      fl.pop_back();
      ++stats.reuses;
    } else {
      p = ::operator new(std::size_t{1} << cls);
      ++stats.fallback_allocs;
      stats.bytes_allocated += cap;
    }
    stats.bytes_in_use += cap;
    stats.high_water_bytes =
        std::max(stats.high_water_bytes, stats.bytes_in_use);
    return p;
  }

  void release(void* p, int cls) noexcept {
    MutexLock lock(mu);
    free[static_cast<std::size_t>(cls)].push_back(p);
    stats.bytes_in_use -= static_cast<std::int64_t>(std::size_t{1} << cls);
  }
};

}  // namespace arena_detail

namespace {

/// The calling thread's installed arena core (TensorArena::Scope).
thread_local std::shared_ptr<arena_detail::Core> t_current;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

}  // namespace

namespace arena_detail {

Buffer acquire(std::size_t bytes) {
  Buffer b;
  if (bytes == 0) return b;
  if (t_current) {
    const int cls = size_class(bytes);
    b.cap = std::size_t{1} << cls;
    b.p = t_current->acquire(cls);
    b.owner = std::shared_ptr<void>(t_current, t_current.get());
  } else {
    // Exactly the request: nothing recycles a heap block, and a sanitizer
    // then bounds every access to it.
    b.cap = bytes;
    b.p = ::operator new(b.cap);
  }
  return b;
}

void release(Buffer& b) noexcept {
  if (b.p != nullptr) {
    if (b.owner) {
      static_cast<arena_detail::Core*>(b.owner.get())
          ->release(b.p, size_class(b.cap));
    } else {
      ::operator delete(b.p);
    }
  }
  b = {};
}

}  // namespace arena_detail

TensorArena::TensorArena() : core_(std::make_shared<arena_detail::Core>()) {}

ArenaStats TensorArena::stats() const {
  MutexLock lock(core_->mu);
  return core_->stats;
}

TensorArena::Scope::Scope(TensorArena& arena) : prev_(std::move(t_current)) {
  t_current = arena.core_;
}

TensorArena::Scope::~Scope() {
  t_current =
      std::static_pointer_cast<arena_detail::Core>(std::move(prev_));
}

}  // namespace ftdl
