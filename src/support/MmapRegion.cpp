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

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace diehard {

namespace {

/// MAP_FIXED remap used by meshing. Under TSan this bypasses the mmap
/// interceptor with a raw syscall: the interceptor models any mmap as a
/// fresh write to every word of the range by the calling thread, which
/// would appear to race the page's client accesses. A mesh remap (and its
/// identity-restoring inverse) preserves the page's contents byte for
/// byte — only the backing frame changes — so keeping the pre-remap
/// shadow history is exactly the right model, and real orderings are
/// enforced physically by the write-quiescence guard's page-table update.
void *remapFixed(void *Addr, size_t Len, int Prot, int Flags, int Fd,
                 off_t Off) {
#if defined(__SANITIZE_THREAD__)
  long R = ::syscall(SYS_mmap, Addr, Len, Prot, Flags, Fd, Off);
  return R == -1 ? MAP_FAILED : reinterpret_cast<void *>(R);
#else
  return ::mmap(Addr, Len, Prot, Flags, Fd, Off);
#endif
}

/// Registry of live meshable regions, [Begin, End) per slot (Begin == 0 =
/// free). The SEGV handler needs it to classify *stale* guard faults: a
/// store can fault on the guarded donor page, yet by the time the signal
/// is delivered the mesh has finished and cleared ActiveMeshDonor — the
/// handler must not mistake that for a wild write and chain to the old
/// disposition (under TSan that aborts the process; on a plain build it
/// uninstalls the guard). Inside a meshable region every page is
/// permanently mapped read-write except during a guard window, so any
/// write fault landing in a registered range is guard-induced and
/// transient: returning to retry the store always makes progress.
constexpr size_t MaxMeshableRegions = 64;
/// Slot-claimed-but-not-yet-published sentinel. Region bases are
/// page-aligned, so 1 can never collide with a real Begin.
constexpr uintptr_t ReservedSlot = 1;
struct MeshableRange {
  std::atomic<uintptr_t> Begin{0};
  std::atomic<uintptr_t> End{0};
};
MeshableRange MeshableRegions[MaxMeshableRegions];

/// Claims a registry slot for [Begin, Begin + Len). False when all slots
/// are taken — the caller then refuses the meshable mapping entirely, so
/// an unregistered region (whose stale faults the handler could not
/// classify) can never exist. Two-phase publish: reserve the slot with a
/// sentinel CAS, fill End, then release-store the real Begin — a handler
/// that acquire-loads a real Begin therefore sees a matching End.
bool registerMeshableRegion(void *Begin, size_t Len) {
  auto B = reinterpret_cast<uintptr_t>(Begin);
  for (auto &R : MeshableRegions) {
    uintptr_t Expected = 0;
    if (!R.Begin.compare_exchange_strong(Expected, ReservedSlot,
                                         std::memory_order_relaxed))
      continue;
    R.End.store(B + Len, std::memory_order_relaxed);
    R.Begin.store(B, std::memory_order_release);
    return true;
  }
  return false;
}

void unregisterMeshableRegion(void *Begin) {
  auto B = reinterpret_cast<uintptr_t>(Begin);
  for (auto &R : MeshableRegions) {
    if (R.Begin.load(std::memory_order_relaxed) == B) {
      R.Begin.store(0, std::memory_order_release);
      R.End.store(0, std::memory_order_relaxed);
      return;
    }
  }
}

bool addrInMeshableRegion(uintptr_t Addr) {
  for (const auto &R : MeshableRegions) {
    uintptr_t B = R.Begin.load(std::memory_order_acquire);
    if (B > ReservedSlot && Addr >= B &&
        Addr < R.End.load(std::memory_order_relaxed))
      return true;
  }
  return false;
}

} // namespace

MmapRegion::MmapRegion(MmapRegion &&Other) noexcept
    : Base(Other.Base), Size(Other.Size), Fd(Other.Fd),
      NumPages(Other.NumPages), MeshTarget(Other.MeshTarget),
      FrameRefs(Other.FrameRefs) {
  Other.Base = nullptr;
  Other.Size = 0;
  Other.Fd = -1;
  Other.NumPages = 0;
  Other.MeshTarget = nullptr;
  Other.FrameRefs = nullptr;
}

MmapRegion &MmapRegion::operator=(MmapRegion &&Other) noexcept {
  if (this == &Other)
    return *this;
  unmap();
  Base = Other.Base;
  Size = Other.Size;
  Fd = Other.Fd;
  NumPages = Other.NumPages;
  MeshTarget = Other.MeshTarget;
  FrameRefs = Other.FrameRefs;
  Other.Base = nullptr;
  Other.Size = 0;
  Other.Fd = -1;
  Other.NumPages = 0;
  Other.MeshTarget = nullptr;
  Other.FrameRefs = nullptr;
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

bool MmapRegion::mapMeshable(size_t NumBytes) {
  unmap();
  if (NumBytes == 0)
    return false;
  const size_t Page = pageSize();
  size_t Rounded = (NumBytes + Page - 1) & ~(Page - 1);
  int NewFd = ::memfd_create("diehard-mesh", MFD_CLOEXEC);
  if (NewFd < 0)
    return false; // Pre-memfd kernel or seccomp refusal: caller falls back.
  if (::ftruncate(NewFd, static_cast<off_t>(Rounded)) != 0) {
    ::close(NewFd);
    return false;
  }
  // MAP_SHARED through the memfd: untouched pages cost nothing (tmpfs pages
  // materialize on first write), and any page of the file can later be
  // mapped at any virtual page via MAP_FIXED — the remap meshing is built
  // on. MAP_NORESERVE keeps the huge reservation cheap, as for map().
  void *P = ::mmap(nullptr, Rounded, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_NORESERVE, NewFd, 0);
  if (P == MAP_FAILED) {
    ::close(NewFd);
    return false;
  }
  size_t Pages = Rounded / Page;
  void *Tables =
      ::mmap(nullptr, Pages * 2 * sizeof(uint32_t), PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Tables == MAP_FAILED) {
    ::munmap(P, Rounded);
    ::close(NewFd);
    return false;
  }
  if (!registerMeshableRegion(P, Rounded)) {
    // Registry exhausted: without a registry entry the SEGV handler could
    // not classify this region's stale guard faults, so refuse the
    // meshable mapping outright — the caller falls back to map().
    ::munmap(Tables, Pages * 2 * sizeof(uint32_t));
    ::munmap(P, Rounded);
    ::close(NewFd);
    return false;
  }
  Base = P;
  Size = Rounded;
  Fd = NewFd;
  NumPages = Pages;
  MeshTarget = static_cast<uint32_t *>(Tables);
  FrameRefs = MeshTarget + Pages;
  return true;
}

void MmapRegion::unmap() {
  if (Base != nullptr && meshable())
    unregisterMeshableRegion(Base);
  if (Base != nullptr)
    ::munmap(Base, Size);
  if (MeshTarget != nullptr)
    ::munmap(MeshTarget, NumPages * 2 * sizeof(uint32_t));
  if (Fd >= 0)
    ::close(Fd);
  Base = nullptr;
  Size = 0;
  Fd = -1;
  NumPages = 0;
  MeshTarget = nullptr;
  FrameRefs = nullptr;
}

bool MmapRegion::remapPageTo(size_t VPage, size_t FramePage) {
  assert(meshable() && "remapPageTo needs a mapMeshable region");
  if (VPage >= NumPages || FramePage >= NumPages)
    return false;
  const size_t Page = pageSize();
  char *VAddr = static_cast<char *>(Base) + VPage * Page;
  uint32_t Cur = MeshTarget[VPage];

  if (FramePage == VPage) {
    // Restore the identity mapping (unmesh). Fresh PTEs onto the page's own
    // frame — which was punched when the page meshed away, so the next
    // touch refaults zero unless the caller rebuilt it through a scratch
    // mapping first.
    if (Cur == 0)
      return true; // Already identity.
    if (remapFixed(VAddr, Page, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED,
                   Fd, static_cast<off_t>(VPage * Page)) == MAP_FAILED)
      return false;
    assert(FrameRefs[Cur - 1] != 0 && "unmesh of an unreferenced frame");
    --FrameRefs[Cur - 1];
    MeshTarget[VPage] = 0;
    return true;
  }

  if (Cur == FramePage + 1)
    return true; // Idempotent: already meshed onto that frame.
  // Strictly pairwise: only an identity page may mesh away, only onto a
  // frame that is itself still identity-mapped and unreferenced. Anything
  // deeper would chain frames and make the refcount story ambiguous.
  if (Cur != 0 || MeshTarget[FramePage] != 0 || FrameRefs[VPage] != 0)
    return false;
  if (remapFixed(VAddr, Page, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED,
                 Fd, static_cast<off_t>(FramePage * Page)) == MAP_FAILED)
    return false;
  MeshTarget[VPage] = static_cast<uint32_t>(FramePage) + 1;
  ++FrameRefs[FramePage];
  // The donor's own frame is now unreachable from any mapping: punching it
  // out of the backing file IS the meshing reclaim — one physical frame now
  // backs two virtual pages. Failure (exotic filesystem) costs only the
  // reclaim, never correctness, so it is ignored.
#ifdef FALLOC_FL_PUNCH_HOLE
  (void)::fallocate(Fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    static_cast<off_t>(VPage * Page),
                    static_cast<off_t>(Page));
#endif
  return true;
}

void *MmapRegion::mapFrameScratch(size_t FramePage) {
  assert(meshable() && "scratch mappings need a mapMeshable region");
  if (FramePage >= NumPages)
    return nullptr;
  const size_t Page = pageSize();
  void *P = ::mmap(nullptr, Page, PROT_READ | PROT_WRITE, MAP_SHARED, Fd,
                   static_cast<off_t>(FramePage * Page));
  return P == MAP_FAILED ? nullptr : P;
}

void MmapRegion::unmapFrameScratch(void *Scratch) {
  if (Scratch != nullptr)
    ::munmap(Scratch, pageSize());
}

size_t MmapRegion::releasePages(size_t FirstPage, size_t PageCount) {
  const size_t Page = pageSize();
  if (!meshable())
    return releasePageRange(static_cast<char *>(Base) + FirstPage * Page,
                            PageCount * Page);
  if (pageReturnPolicy() == PageReturnPolicy::Off)
    return 0;
  if (FirstPage >= NumPages)
    return 0;
  if (PageCount > NumPages - FirstPage)
    PageCount = NumPages - FirstPage;
  // Shared backing: MADV_DONTNEED only drops PTEs, the frames survive in
  // the page cache — real reclaim is a hole punch. Pages meshed on
  // either side are skipped: a donor's virtual page no longer owns its
  // frame, and a survivor's frame is read through by its sibling — the
  // refcount is exactly what makes this path unable to release it.
  size_t Released = 0;
#ifdef FALLOC_FL_PUNCH_HOLE
  size_t P = FirstPage, End = FirstPage + PageCount;
  while (P < End) {
    while (P < End && pageMeshed(P))
      ++P;
    size_t RunBegin = P;
    while (P < End && !pageMeshed(P))
      ++P;
    if (P == RunBegin)
      continue;
    if (::fallocate(Fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    static_cast<off_t>(RunBegin * Page),
                    static_cast<off_t>((P - RunBegin) * Page)) == 0)
      Released += (P - RunBegin) * Page;
  }
#endif
  return Released;
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

namespace {

/// The page currently write-protected for a mesh copy (0 = none). One mesh
/// at a time process-wide: begin takes it with a CAS, end/abort release it.
/// acquire/release so a faulting writer that observes the cleared guard
/// also observes the remap that made its address writable again.
std::atomic<uintptr_t> ActiveMeshDonor{0};

/// Previous SIGSEGV disposition, chained to for faults that are not mesh
/// writes. Written once, before the handler can fire.
struct sigaction PrevSegvAction;

/// 0 = handler not installed, 1 = installing, 2 = installed.
std::atomic<int> MeshGuardState{0};

/// SIGSEGV handler for the mesh write-quiescence guard. A write into the
/// donor page during the copy lands here: spin until the guard clears (the
/// mesh thread's MAP_FIXED remap has then made the address writable on the
/// survivor's frame) and return, so the kernel retries the faulting store
/// and it lands exactly where the copied object now lives. Anything else
/// chains to the previously installed handler. Async-signal-safe: atomic
/// loads and sched_yield only.
void meshSegvHandler(int Sig, siginfo_t *Info, void *Ctx) {
  auto Addr = reinterpret_cast<uintptr_t>(Info->si_addr);
  const uintptr_t Mask = ~(MmapRegion::pageSize() - 1);
  uintptr_t Donor = ActiveMeshDonor.load(std::memory_order_acquire);
  if (Donor != 0 && (Addr & Mask) == Donor) {
    while (ActiveMeshDonor.load(std::memory_order_acquire) == Donor)
      ::sched_yield();
    return; // Retry the store against the remapped (writable) page.
  }
  // Stale guard fault: the store faulted while the page was guarded, but
  // the mesh finished (and restored writability) before the signal was
  // delivered. The guard no longer matches — or a later mesh already took
  // it for a different page — yet the address is inside a meshable region,
  // where every fault is guard-induced by construction. Retry; the store
  // now lands on the remapped page.
  if (addrInMeshableRegion(Addr))
    return;
  // Not ours: hand off to whoever was installed before us.
  if ((PrevSegvAction.sa_flags & SA_SIGINFO) != 0 &&
      PrevSegvAction.sa_sigaction != nullptr) {
    PrevSegvAction.sa_sigaction(Sig, Info, Ctx);
    return;
  }
  if (PrevSegvAction.sa_handler == SIG_IGN)
    return;
  if (PrevSegvAction.sa_handler != SIG_DFL &&
      PrevSegvAction.sa_handler != nullptr) {
    PrevSegvAction.sa_handler(Sig);
    return;
  }
  // Default disposition: reinstate it and return — the instruction retries,
  // faults again, and the process dies with the stock SIGSEGV report.
  ::sigaction(SIGSEGV, &PrevSegvAction, nullptr);
}

/// Installs the mesh SIGSEGV handler exactly once (first mesh of the
/// process). Racing installers spin on the tri-state.
bool installMeshGuardHandler() {
  int State = MeshGuardState.load(std::memory_order_acquire);
  if (State == 2)
    return true;
  int Expected = 0;
  if (MeshGuardState.compare_exchange_strong(Expected, 1,
                                             std::memory_order_acq_rel)) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_sigaction = meshSegvHandler;
    SA.sa_flags = SA_SIGINFO | SA_NODEFER;
    sigemptyset(&SA.sa_mask);
    if (::sigaction(SIGSEGV, &SA, &PrevSegvAction) != 0) {
      MeshGuardState.store(0, std::memory_order_release);
      return false;
    }
    MeshGuardState.store(2, std::memory_order_release);
    return true;
  }
  while (MeshGuardState.load(std::memory_order_acquire) == 1)
    ::sched_yield();
  return MeshGuardState.load(std::memory_order_acquire) == 2;
}

} // namespace

bool MmapRegion::beginMeshGuard(void *DonorPage) {
  if (!installMeshGuardHandler())
    return false;
  auto Addr = reinterpret_cast<uintptr_t>(DonorPage);
  assert(Addr % pageSize() == 0 && "donor must be page-aligned");
  uintptr_t Expected = 0;
  // One mesh at a time: a second partition mid-mesh simply aborts this
  // pair and retries on a later sweep pass.
  if (!ActiveMeshDonor.compare_exchange_strong(Expected, Addr,
                                               std::memory_order_acq_rel))
    return false;
  // Publish the guard BEFORE revoking write access, so every fault taken
  // on this page observes it.
  if (::mprotect(DonorPage, pageSize(), PROT_READ) != 0) {
    ActiveMeshDonor.store(0, std::memory_order_release);
    return false;
  }
  return true;
}

void MmapRegion::endMeshGuard() {
  ActiveMeshDonor.store(0, std::memory_order_release);
}

void MmapRegion::abortMeshGuard(void *DonorPage) {
  (void)::mprotect(DonorPage, pageSize(), PROT_READ | PROT_WRITE);
  ActiveMeshDonor.store(0, std::memory_order_release);
}

size_t MmapRegion::pageSize() {
  static const size_t Cached = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return Cached;
}

} // namespace diehard
