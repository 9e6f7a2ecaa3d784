#pragma once
// Counting global operator new/delete for allocation contracts
// (bench_hotpath's messaging drain, bench_consensus's state layer,
// test_metrics's Histogram::record).
//
// Include from EXACTLY ONE translation unit per binary: the header defines
// the (non-inline) global replacement operators, and every heap allocation
// in the process bumps tbft::bench::alloc_count(). This is also why the
// benches are plain main()s -- a binary using this must not link a
// framework that allocates on background threads.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace tbft::bench {
inline std::atomic<std::uint64_t>& alloc_count() noexcept {
  static std::atomic<std::uint64_t> count{0};
  return count;
}
}  // namespace tbft::bench

// GCC pairs the inlined counting operator new with the sized deletes below
// and can flag malloc/aligned_alloc vs free as mismatched depending on what
// else the TU instantiates; glibc free() accepts pointers from both.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  tbft::bench::alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  tbft::bench::alloc_count().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}
void* operator new(std::size_t size, std::align_val_t align) {
  tbft::bench::alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
