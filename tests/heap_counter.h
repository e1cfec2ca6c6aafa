// A counting global operator new for the test binaries that pin heap
// allocations (con_obs_tests, con_heap_tests). It defines the replaceable
// allocation functions, so include it in exactly one translation unit of a
// binary, and never in the main suite (con_tests).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

// GCC can't see that the operator new below forwards to malloc, so it
// flags the free() in operator delete as mismatched; the pairing is fine.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace con::testing {

// Per thread: other threads (an idle pool worker starting up, a sampler)
// allocate whenever the scheduler runs them, which would make a count on
// the calling thread depend on the machine's load.
inline thread_local std::uint64_t g_heap_allocations = 0;

// Calls of operator new / new[] the calling thread has made so far.
inline std::uint64_t heap_allocations() { return g_heap_allocations; }

}  // namespace con::testing

void* operator new(std::size_t size) {
  ++con::testing::g_heap_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++con::testing::g_heap_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
