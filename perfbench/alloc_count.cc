/**
 * @file
 * Counting global operator new/delete, linked into the benchmark binary
 * only.  Every allocation bumps two thread-local counters (calls, bytes),
 * so a job running on one thread reads its own exact allocation count by
 * differencing allocSnapshot() around the event loop — also inside a
 * two-worker SweepRunner.
 */

#include "probes.hh"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t tlAllocs = 0;
thread_local std::uint64_t tlBytes = 0;

void *
countedAlloc(std::size_t size)
{
    ++tlAllocs;
    tlBytes += size;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++tlAllocs;
    tlBytes += size;
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

AllocSnapshot
allocSnapshot()
{
    return AllocSnapshot{tlAllocs, tlBytes};
}

} // namespace perfbench

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
