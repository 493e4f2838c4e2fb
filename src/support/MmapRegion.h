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
#include <cstdint>

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

  /// Maps \p NumBytes of *meshable* memory: a memfd-backed MAP_SHARED
  /// mapping whose virtual pages can individually be remapped onto each
  /// other's physical frames (remapPageTo), the backing mode page meshing
  /// needs. Behaves like map() otherwise — demand-zero, read/write,
  /// MAP_NORESERVE. Allocates the per-frame bookkeeping tables (mesh
  /// targets + frame refcounts). \returns false (leaving the region empty)
  /// when memfd_create or any mapping fails, so callers can fall back to a
  /// private mapping with meshing disabled.
  bool mapMeshable(size_t NumBytes);

  /// True if this region was created with mapMeshable().
  bool meshable() const { return Fd >= 0; }

  /// Number of whole pages in the mapping (0 for a non-meshable region —
  /// only meshable regions carry per-page tables).
  size_t numPages() const { return NumPages; }

  /// Meshable regions only: remaps virtual page \p VPage onto physical
  /// frame \p FramePage via mmap(MAP_FIXED) of the shared backing, so both
  /// virtual pages read and write the same frame. The donor's own frame is
  /// punched out of the backing file (the actual RSS reclaim) once nothing
  /// references it. \p FramePage == \p VPage restores the identity mapping
  /// (unmesh), dropping the frame reference; a fresh touch of the restored
  /// page refaults zero. Idempotent: remapping a page onto its current
  /// target succeeds without a syscall. A page may only be remapped from
  /// its identity state (strictly pairwise meshing), and never onto a frame
  /// whose own virtual page has been remapped away. Callers serialize
  /// per-page (the partition lock); \returns false when the kernel refuses
  /// or the request violates the pairing rules.
  bool remapPageTo(size_t VPage, size_t FramePage);

  /// Meshable regions only: the frame \p VPage's virtual page currently
  /// maps to (== \p VPage for an unmeshed page).
  size_t meshTargetOf(size_t VPage) const {
    uint32_t T = MeshTarget[VPage];
    return T == 0 ? VPage : static_cast<size_t>(T) - 1;
  }

  /// Meshable regions only: how many *other* virtual pages are remapped
  /// onto frame \p FramePage. A frame with references must never be
  /// released — a meshed sibling still reads through it.
  uint32_t frameRefs(size_t FramePage) const { return FrameRefs[FramePage]; }

  /// Meshable regions only: true when page \p Page participates in a mesh
  /// on either side (its virtual page is remapped away, or its frame hosts
  /// a remapped sibling). Such pages are exempt from page return.
  bool pageMeshed(size_t Page) const {
    return meshable() && (MeshTarget[Page] != 0 || FrameRefs[Page] != 0);
  }

  /// Meshable regions only: maps frame \p FramePage a second time at a
  /// kernel-chosen address (read/write, shared). The unmesh path uses this
  /// to rebuild a donor's own frame while the donor's virtual page still
  /// reads the survivor's. Unmap with unmapFrameScratch(). \returns nullptr
  /// on failure.
  void *mapFrameScratch(size_t FramePage);

  /// Releases a scratch mapping obtained from mapFrameScratch().
  static void unmapFrameScratch(void *Scratch);

  /// Returns the physical memory behind pages [\p FirstPage, \p FirstPage +
  /// \p PageCount) to the OS under the process page-return policy, like
  /// releasePageRange but aware of this region's backing mode: private
  /// regions take the madvise path; meshable regions punch holes in the
  /// backing file (MADV_DONTNEED cannot evict a shared file's page-cache
  /// frames) and skip any page participating in a mesh, so a survivor's
  /// frame is never pulled out from under its sibling. \returns the number
  /// of bytes actually released.
  size_t releasePages(size_t FirstPage, size_t PageCount);

  /// Write-quiescence guard for a mesh copy: marks the page at \p DonorPage
  /// as the process's active mesh donor and downgrades it to PROT_READ, so
  /// a concurrent user write faults into a lazily-installed SIGSEGV handler
  /// that spins until endMeshGuard() and then retries — by which time the
  /// donor's virtual page has been remapped read/write onto the survivor's
  /// frame, so the write lands exactly where the copied object now lives.
  /// No lost writes, no torn copies, no crash. One guard may be active
  /// process-wide at a time; \returns false (guard not taken) when another
  /// mesh is in flight or mprotect fails — callers abort that mesh and try
  /// again on a later pass.
  static bool beginMeshGuard(void *DonorPage);

  /// Releases the mesh guard after the remap made \p DonorPage writable
  /// again (MAP_FIXED installs fresh PROT_READ|PROT_WRITE PTEs, so no
  /// mprotect is needed on this path).
  static void endMeshGuard();

  /// Abandons a mesh mid-copy: restores PROT_READ|PROT_WRITE on
  /// \p DonorPage (which was never remapped) and releases the guard.
  static void abortMeshGuard(void *DonorPage);

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

  // --- Meshable backing (mapMeshable) --------------------------------------
  // Fd is the memfd the shared mapping is built on (-1 = private region).
  // MeshTarget has one word per page: 0 = identity, else frame index + 1.
  // FrameRefs has one word per page: the number of OTHER virtual pages
  // currently remapped onto that frame. Both live in one anonymous
  // demand-zero side mapping owned by the region. Entries are only read
  // and written under the lock of the partition owning that page (pages of
  // different partitions never pair), so plain words suffice.
  int Fd = -1;
  size_t NumPages = 0;
  uint32_t *MeshTarget = nullptr;
  uint32_t *FrameRefs = nullptr;
};

} // namespace diehard

#endif // DIEHARD_SUPPORT_MMAPREGION_H
