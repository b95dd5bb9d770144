// Counting global allocator for the zero-alloc tests.
//
// Linked into test_serve (the steady-state serving test) and test_compiler
// (the mapping-search allocation pin): replaces ::operator new/delete with
// malloc wrappers that report every allocation to ftdl::alloc_stats (which
// counts it only while the calling thread is inside an ArmScope, e.g. the
// serve worker's per-request window). Sanitizer builds own the allocator,
// so the replacements are compiled out there and the tests skip via
// alloc_stats::hook_installed().
#include "common/alloc_stats.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FTDL_ALLOC_HOOK_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FTDL_ALLOC_HOOK_DISABLED 1
#endif
#endif

#ifndef FTDL_ALLOC_HOOK_DISABLED

#include <cstdlib>
#include <new>

namespace {

const bool g_hook_registered = [] {
  ftdl::alloc_stats::set_hook_installed();
  return true;
}();

void* checked_alloc(std::size_t n) {
  ftdl::alloc_stats::note_alloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned_alloc(std::size_t n, std::align_val_t al) {
  ftdl::alloc_stats::note_alloc();
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return checked_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // FTDL_ALLOC_HOOK_DISABLED
