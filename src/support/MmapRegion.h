//===- support/MmapRegion.h - RAII anonymous mapping ------------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII wrapper around an anonymous mmap. DieHard obtains all heap memory
/// from the system with mmap (Section 4.1); reserved-but-untouched pages cost
/// no physical memory, which is what makes the M-times-larger heap practical
/// ("memory that is reserved by DieHard but not used does not consume any
/// virtual memory").
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_SUPPORT_MMAPREGION_H
#define DIEHARD_SUPPORT_MMAPREGION_H

#include <cstddef>

namespace diehard {

/// How releasePageRange() hands resident pages back to the OS. Resolved
/// once per process from DIEHARD_PAGE_RETURN (overridable by benches and
/// tests through setPageReturnPolicy).
enum class PageReturnPolicy {
  /// madvise(MADV_DONTNEED): pages drop out of the resident set
  /// immediately and refault demand-zero. The default — RSS falls the
  /// moment the advice lands, which keeps footprint measurements honest.
  DontNeed,
  /// Never release pages (the pre-partial-return behaviour).
  Off,
};

/// Owns one anonymous, demand-zero memory mapping.
class MmapRegion {
public:
  MmapRegion() = default;

  /// Maps \p NumBytes of anonymous read/write memory. On failure the region
  /// is empty (base() == nullptr).
  explicit MmapRegion(size_t NumBytes) { map(NumBytes); }

  MmapRegion(const MmapRegion &) = delete;
  MmapRegion &operator=(const MmapRegion &) = delete;

  MmapRegion(MmapRegion &&Other) noexcept;
  MmapRegion &operator=(MmapRegion &&Other) noexcept;

  ~MmapRegion();

  /// Maps \p NumBytes, releasing any previous mapping first.
  /// \returns true on success.
  bool map(size_t NumBytes);

  /// Releases the mapping (idempotent).
  void unmap();

  /// Returns the base address, or nullptr if empty.
  void *base() const { return Base; }

  /// Returns the size in bytes (0 if empty).
  size_t size() const { return Size; }

  /// Returns true if \p Ptr points inside the mapping.
  bool contains(const void *Ptr) const {
    const char *P = static_cast<const char *>(Ptr);
    const char *B = static_cast<const char *>(Base);
    return Base != nullptr && P >= B && P < B + Size;
  }

  /// Removes all access rights from [\p Offset, \p Offset + \p Len), turning
  /// those pages into guard pages. Offset and Len must be page-aligned.
  /// \returns true on success.
  bool protectNone(size_t Offset, size_t Len);

  /// Returns the exactly page-aligned range [\p PageBegin, \p PageBegin +
  /// \p PageBytes) to the OS under the process page-return policy: the
  /// virtual range stays mapped, only its physical pages are handed back
  /// with MADV_DONTNEED. \returns the number of bytes the advice covered
  /// — 0 when the policy is Off or the kernel refused — so callers only
  /// account pages that actually left the committed set.
  static size_t releasePageRange(void *PageBegin, size_t PageBytes);

  /// The process page-return policy. First call resolves
  /// DIEHARD_PAGE_RETURN ("off" disables; any other value, or none, means
  /// dontneed); later calls return the cached value.
  static PageReturnPolicy pageReturnPolicy();

  /// Overrides the page-return policy (benches and tests; takes effect for
  /// subsequent releasePageRange calls process-wide).
  static void setPageReturnPolicy(PageReturnPolicy Policy);

  /// Returns the system page size.
  static size_t pageSize();

private:
  void *Base = nullptr;
  size_t Size = 0;
};

} // namespace diehard

#endif // DIEHARD_SUPPORT_MMAPREGION_H
