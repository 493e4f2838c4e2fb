//===- support/MmapRegion.cpp ---------------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the RAII anonymous-mapping wrapper.
///
//===----------------------------------------------------------------------===//

#include "support/MmapRegion.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

namespace diehard {

MmapRegion::MmapRegion(MmapRegion &&Other) noexcept
    : Base(Other.Base), Size(Other.Size) {
  Other.Base = nullptr;
  Other.Size = 0;
}

MmapRegion &MmapRegion::operator=(MmapRegion &&Other) noexcept {
  if (this == &Other)
    return *this;
  unmap();
  Base = Other.Base;
  Size = Other.Size;
  Other.Base = nullptr;
  Other.Size = 0;
  return *this;
}

MmapRegion::~MmapRegion() { unmap(); }

bool MmapRegion::map(size_t NumBytes) {
  unmap();
  if (NumBytes == 0)
    return false;
  // MAP_NORESERVE keeps huge reservations cheap: pages are committed lazily
  // on first touch, exactly the lazy-initialization behaviour the paper
  // relies on for its M-times-oversized heap.
  void *P = ::mmap(nullptr, NumBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    return false;
  Base = P;
  Size = NumBytes;
  return true;
}

void MmapRegion::unmap() {
  if (Base != nullptr)
    ::munmap(Base, Size);
  Base = nullptr;
  Size = 0;
}

bool MmapRegion::protectNone(size_t Offset, size_t Len) {
  assert(Base != nullptr && "cannot protect an empty region");
  assert(Offset % pageSize() == 0 && Len % pageSize() == 0 &&
         "guard pages must be page-aligned");
  assert(Offset + Len <= Size && "guard range out of bounds");
  char *Start = static_cast<char *>(Base) + Offset;
  return ::mprotect(Start, Len, PROT_NONE) == 0;
}

namespace {

/// The process page-return policy, resolved lazily from DIEHARD_PAGE_RETURN.
/// -1 = unresolved; otherwise a PageReturnPolicy value. Relaxed atomics: a
/// racing first resolution parses the same environment and stores the same
/// answer.
std::atomic<int> PolicyState{-1};

} // namespace

PageReturnPolicy MmapRegion::pageReturnPolicy() {
  int State = PolicyState.load(std::memory_order_relaxed);
  if (State < 0) {
    const char *V = std::getenv("DIEHARD_PAGE_RETURN");
    State = static_cast<int>(V != nullptr && std::strcmp(V, "off") == 0
                                 ? PageReturnPolicy::Off
                                 : PageReturnPolicy::DontNeed);
    PolicyState.store(State, std::memory_order_relaxed);
  }
  return static_cast<PageReturnPolicy>(State);
}

void MmapRegion::setPageReturnPolicy(PageReturnPolicy Policy) {
  PolicyState.store(static_cast<int>(Policy), std::memory_order_relaxed);
}

size_t MmapRegion::releasePageRange(void *PageBegin, size_t PageBytes) {
  assert(reinterpret_cast<uintptr_t>(PageBegin) % pageSize() == 0 &&
         PageBytes % pageSize() == 0 && "range must be exactly page-aligned");
  if (PageBytes == 0)
    return 0;
  if (pageReturnPolicy() == PageReturnPolicy::Off)
    return 0;
  if (::madvise(PageBegin, PageBytes, MADV_DONTNEED) != 0)
    return 0;
  return PageBytes;
}

size_t MmapRegion::pageSize() {
  static const size_t Cached = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return Cached;
}

} // namespace diehard
