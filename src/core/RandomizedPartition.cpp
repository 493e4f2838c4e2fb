//===- core/RandomizedPartition.cpp ---------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the per-size-class randomized partition: the Figure 2
/// probe/fallback placement discipline and validated frees, scoped to one
/// region.
///
//===----------------------------------------------------------------------===//

#include "core/RandomizedPartition.h"

#include <cassert>
#include <cstring>

namespace diehard {

namespace {

/// FNV-1a over the mask words. Never returns 0 — that is the "no snapshot
/// yet" sentinel in the per-page snapshot table.
uint64_t hashMask(const uint64_t *Mask, size_t Words) {
  uint64_t H = 1469598103934665603ull;
  for (size_t W = 0; W < Words; ++W) {
    H ^= Mask[W];
    H *= 1099511628211ull;
  }
  return H == 0 ? 1 : H;
}

/// Copies every 8-byte unit whose mask bit is set, same offsets in \p Dst
/// and \p Src, one memcpy per maximal run of set bits.
///
/// Not TSan-instrumented: the mesh copy is ordered against client writes
/// by the write-quiescence guard — `mprotect(PROT_READ)` on the donor
/// before the copy makes any later write fault and spin, and the kernel's
/// page-table update orders earlier writes before the copy's reads. That
/// is real synchronization TSan cannot model (no atomics involved), so
/// under TSan the copy runs as plain un-instrumented loads/stores (the
/// memcpy interceptor would re-introduce the false report).
#if defined(__SANITIZE_THREAD__)
__attribute__((no_sanitize("thread")))
void copyMaskedUnits(char *Dst, const char *Src, const uint64_t *Mask,
                     size_t Words) {
  for (size_t U = 0; U < Words * 64; ++U)
    if (((Mask[U / 64] >> (U % 64)) & 1) != 0)
      reinterpret_cast<uint64_t *>(Dst)[U] =
          reinterpret_cast<const uint64_t *>(Src)[U];
}
#else
void copyMaskedUnits(char *Dst, const char *Src, const uint64_t *Mask,
                     size_t Words) {
  for (size_t U = 0; U < Words * 64;) {
    if (((Mask[U / 64] >> (U % 64)) & 1) == 0) {
      ++U;
      continue;
    }
    size_t RunBegin = U;
    while (U < Words * 64 && ((Mask[U / 64] >> (U % 64)) & 1) != 0)
      ++U;
    std::memcpy(Dst + RunBegin * 8, Src + RunBegin * 8, (U - RunBegin) * 8);
  }
}
#endif

} // namespace

size_t claimRandomSlot(Bitmap &Bits, Rng &Rand, size_t Slots,
                       uint64_t &Probes, uint64_t &Fallbacks) {
  assert(Slots != 0 && Slots <= Bits.size() && "bitmap must cover the slots");
  // Probe for a free slot, like probing into a hash table. Since the region
  // is at most 1/M full, the expected probe count is 1/(1 - 1/M); a bounded
  // number of random probes followed by a linear fallback guarantees
  // termination without measurably biasing placement.
  for (int Attempt = 0; Attempt < 64; ++Attempt) {
    ++Probes;
    size_t Index = Rand.nextBounded(static_cast<uint32_t>(Slots));
    if (Bits.trySet(Index))
      return Index;
  }
  ++Fallbacks;
  size_t Start = Rand.nextBounded(static_cast<uint32_t>(Slots));
  size_t Index = Bits.findNextClear(Start, Slots);
  if (Index == Slots)
    Index = Bits.findNextClear(0, Slots);
  if (Index == Slots)
    return Slots; // Every slot taken; the 1/M threshold makes this unreachable.
  Bits.trySet(Index);
  return Index;
}

void randomFillWords(Rng &Rand, void *Ptr, size_t Bytes) {
  auto *Words = static_cast<uint32_t *>(Ptr);
  for (size_t I = 0; I < Bytes / sizeof(uint32_t); ++I)
    Words[I] = Rand.next();
}

bool RandomizedPartition::init(void *RegionBase, size_t ObjectBytes,
                               size_t NumSlots, double M, uint64_t Seed,
                               bool FillAllocate, bool FillFree,
                               size_t InitialActive) {
  assert(M > 1.0 && "expansion factor M must exceed 1");
  Base = static_cast<char *>(RegionBase);
  ObjectSize = ObjectBytes;
  Slots = NumSlots;
  // The region is allowed to become at most 1/M full (Section 4.1).
  Threshold = static_cast<size_t>(static_cast<double>(NumSlots) / M);
  Expansion = M;
  size_t FirstActive = InitialActive == 0 || InitialActive > NumSlots
                           ? NumSlots
                           : InitialActive;
  Active.store(FirstActive, std::memory_order_relaxed);
  ActiveLimit = static_cast<size_t>(static_cast<double>(FirstActive) / M);
  StreamSeed = Seed;
  FillOnAllocate = FillAllocate;
  FillOnFree = FillFree;
  Rand.setSeed(Seed);
  IsAllocated.reset(NumSlots);
  // The sidecar link array: one word per slot, demand-zero (0 = not
  // pending), committed only for slots remote frees actually touch. The
  // slot-in-a-uint32 encoding needs two sentinel values; refuse (in
  // release builds too) a partition whose slot indices would not fit —
  // the probe discipline's nextBounded() casts share the same limit, so
  // such a partition was never usable anyway.
  if (NumSlots >= SidecarTail - 1)
    return false;
  SidecarHead.store(0, std::memory_order_relaxed);
  RemotePushes.store(0, std::memory_order_relaxed);
  RemoteRejects.store(0, std::memory_order_relaxed);
  RemoteDrained.store(0, std::memory_order_relaxed);
  if (!SidecarLinks.map(NumSlots * sizeof(uint32_t)))
    return false;

  // Page-return geometry: only pages lying entirely inside the data region
  // are ever released. Partition bases are 4K-aligned in practice, making
  // that the whole region; on systems with larger pages the edge pages
  // shared with neighbours are simply never returned.
  const size_t Page = MmapRegion::pageSize();
  auto RegionBegin = reinterpret_cast<uintptr_t>(Base);
  uintptr_t RegionEnd = RegionBegin + NumSlots * ObjectBytes;
  uintptr_t AlignedBegin = (RegionBegin + Page - 1) & ~(Page - 1);
  uintptr_t AlignedEnd = RegionEnd & ~(Page - 1);
  FirstPage = reinterpret_cast<char *>(AlignedBegin);
  NumDataPages =
      AlignedBegin < AlignedEnd ? (AlignedEnd - AlignedBegin) / Page : 0;
  ReleasedPages.store(0, std::memory_order_relaxed);
  LastScanFreeStamp.store(0, std::memory_order_relaxed);
  if (NumDataPages != 0 &&
      !ReleasedSummary.map(((NumDataPages + 63) / 64) * sizeof(uint64_t)))
    return false;
  return IsAllocated.size() == NumSlots;
}

void RandomizedPartition::randomFill(void *Ptr, size_t Bytes) {
  randomFillWords(Rand, Ptr, Bytes);
}

void RandomizedPartition::growToFit(size_t Live) {
  // Doubling keeps growth to O(log(Slots / initial)) steps over the
  // partition's life, and each step at least doubles the room left under
  // the 1/M share, so the expected probe count stays 1/(1 - 1/M) at most.
  size_t A = Active.load(std::memory_order_relaxed);
  while (Live > ActiveLimit && A < Slots) {
    A = A > Slots / 2 ? Slots : A * 2;
    ActiveLimit = static_cast<size_t>(static_cast<double>(A) / Expansion);
  }
  Active.store(A, std::memory_order_relaxed);
}

size_t RandomizedPartition::activeDataPages() const {
  const size_t Page = MmapRegion::pageSize();
  uintptr_t End = reinterpret_cast<uintptr_t>(Base) + active() * ObjectSize;
  auto First = reinterpret_cast<uintptr_t>(FirstPage);
  if (End <= First)
    return 0;
  size_t Pages = (End - First + Page - 1) / Page;
  return Pages < NumDataPages ? Pages : NumDataPages;
}

size_t RandomizedPartition::claimCleanSlot(uint64_t &Probes,
                                           uint64_t &Fallbacks) {
  const size_t Limit = Active.load(std::memory_order_relaxed);
  for (;;) {
    size_t Index =
        claimRandomSlot(IsAllocated, Rand, Limit, Probes, Fallbacks);
    if (Index == Limit)
      return Slots;
    // Reject a slot with an in-flight sidecar entry: that push is a stale
    // (double) free of the slot's previous life, and handing the slot out
    // now would let the next drain free the new occupant. Give the bit
    // back, consume the stale entry (bit clear -> counted IgnoredFree),
    // and probe again. One relaxed load on the common (clean) path.
    std::atomic_ref<uint32_t> Link(sidecarLink(Index));
    if (Link.load(std::memory_order_relaxed) == 0)
      return Index;
    IsAllocated.tryClear(Index);
    drainRemoteFrees();
  }
}

void *RandomizedPartition::allocate() {
  size_t Live = InUse.load(std::memory_order_relaxed);
  if (Live >= Threshold) {
    // At threshold: the 1/M bound says no more memory for this class.
    ++Stats.FailedAllocations;
    return nullptr;
  }
  if (Live >= ActiveLimit)
    growToFit(Live + 1);
  uint64_t Probes = 0, Fallbacks = 0;
  size_t Index = claimCleanSlot(Probes, Fallbacks);
  Stats.Probes += Probes;
  Stats.ProbeFallbacks += Fallbacks;
  if (Index == Slots) {
    ++Stats.FailedAllocations;
    return nullptr;
  }
  // One relaxed load is the meshing tax on the hot path; the unmesh walk
  // runs only while donor pages are actually meshed away.
  if (MeshedCount.load(std::memory_order_relaxed) != 0 &&
      !unmeshForSlot(Index)) {
    // The slot's page could not be unmeshed. Writing a fresh object there
    // would land on the shared frame and corrupt the partner page's live
    // bytes, so give the slot back and refuse the request.
    IsAllocated.tryClear(Index);
    ++Stats.FailedAllocations;
    return nullptr;
  }
  InUse.fetch_add(1, std::memory_order_relaxed);
  ++Stats.Allocations;
  LiveBytes.fetch_add(ObjectSize, std::memory_order_relaxed);
  // One relaxed load is all the hot path pays for partial page return; the
  // per-page bookkeeping runs only while released pages actually exist.
  // Measured when meshing landed: with the summary fully populated the
  // alloc/free pair costs the same ns/op as with the gate short-circuiting
  // (deltas within run noise, min-of-runs identical), so the clearing
  // stays here rather than deferring to the sweeper — deferral would need
  // a pending-clear queue whose bookkeeping costs more than the two bit
  // flips it saves.
  if (ReleasedPages.load(std::memory_order_relaxed) != 0)
    clearReleasedForSlot(Index);
  char *Ptr = Base + Index * ObjectSize;
  if (FillOnAllocate)
    randomFill(Ptr, ObjectSize);
  return Ptr;
}

size_t RandomizedPartition::claimRandomSlots(void **Out, size_t MaxCount) {
  size_t Live = InUse.load(std::memory_order_relaxed);
  if (Live >= Threshold)
    return 0; // Saturated: no refusal counted, the caller owns that call.
  size_t Want = Threshold - Live;
  if (Want > MaxCount)
    Want = MaxCount;
  if (Live + Want > ActiveLimit)
    growToFit(Live + Want);

  // Each claim runs the exact allocate() probe discipline, so the i-th
  // claimed slot is uniform over the slots free after the first i-1 claims
  // — the same process as i consecutive allocate() calls.
  uint64_t Probes = 0, Fallbacks = 0;
  size_t N = 0;
  while (N < Want) {
    size_t Index = claimCleanSlot(Probes, Fallbacks);
    if (Index == Slots)
      break; // Unreachable below the threshold; stay defensive.
    if (MeshedCount.load(std::memory_order_relaxed) != 0 &&
        !unmeshForSlot(Index)) {
      // See allocate(): a slot on a page that cannot be unmeshed must not
      // be handed out. End the batch with what was claimed so far.
      IsAllocated.tryClear(Index);
      break;
    }
    if (ReleasedPages.load(std::memory_order_relaxed) != 0)
      clearReleasedForSlot(Index);
    Out[N++] = Base + Index * ObjectSize;
  }
  Stats.Probes += Probes;
  Stats.ProbeFallbacks += Fallbacks;
  Stats.ClaimedSlots += N;
  InUse.fetch_add(N, std::memory_order_relaxed);
  LiveBytes.fetch_add(N * ObjectSize, std::memory_order_relaxed);

  // Shuffle so the order a cache hands slots out is independent of the
  // order they were claimed (Fisher-Yates from this partition's stream).
  for (size_t I = N; I > 1; --I) {
    size_t J = Rand.nextBounded(static_cast<uint32_t>(I));
    void *Tmp = Out[I - 1];
    Out[I - 1] = Out[J];
    Out[J] = Tmp;
  }
  if (FillOnAllocate)
    for (size_t I = 0; I < N; ++I)
      randomFill(Out[I], ObjectSize);
  return N;
}

void RandomizedPartition::reclaimSlots(void *const *Ptrs, size_t Count) {
  for (size_t I = 0; I < Count; ++I) {
    assert(contains(Ptrs[I]) && "reclaimed slot must be in this partition");
    size_t Offset =
        static_cast<size_t>(static_cast<char *>(Ptrs[I]) - Base);
    assert(Offset % ObjectSize == 0 && "reclaimed slot must be aligned");
    bool WasSet = IsAllocated.tryClear(Offset / ObjectSize);
    assert(WasSet && "reclaimed slot must still be claimed");
    (void)WasSet;
  }
  Stats.ReturnedSlots += Count;
  InUse.fetch_sub(Count, std::memory_order_relaxed);
  LiveBytes.fetch_sub(Count * ObjectSize, std::memory_order_relaxed);
}

size_t RandomizedPartition::deallocateBatch(void *const *Ptrs,
                                            size_t Count) {
  size_t Freed = 0;
  for (size_t I = 0; I < Count; ++I)
    if (deallocate(Ptrs[I]))
      ++Freed;
  return Freed;
}

void RandomizedPartition::remoteFree(void *Ptr) {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset = static_cast<size_t>(static_cast<char *>(Ptr) - Base);
  if (Offset % ObjectSize != 0) {
    // Validity check 1 (a correct slot offset) needs only immutable
    // geometry, so the invalid free is detected right here, lock-free.
    RemoteRejects.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto Slot = static_cast<uint32_t>(Offset / ObjectSize);

  // Claim the slot's link word. Failure means the slot is already pending:
  // a second free of the same object raced in before the owner drained the
  // first — a double free, detected at push time. (The claim is also what
  // makes concurrent double frees unable to corrupt the chain.)
  std::atomic_ref<uint32_t> Link(sidecarLink(Slot));
  uint32_t Expected = 0;
  if (!Link.compare_exchange_strong(Expected, SidecarTail,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    RemoteRejects.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Treiber push: point the claimed link at the current chain and swing
  // the head. The release CAS publishes the link word (and the pusher's
  // prior writes) to the draining owner's acquire exchange.
  uint32_t Head = SidecarHead.load(std::memory_order_relaxed);
  do {
    Link.store(Head == 0 ? SidecarTail : Head, std::memory_order_relaxed);
  } while (!SidecarHead.compare_exchange_weak(Head, Slot + 1,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  RemotePushes.fetch_add(1, std::memory_order_relaxed);
}

size_t RandomizedPartition::drainRemoteFrees() {
  if (SidecarHead.load(std::memory_order_relaxed) == 0)
    return 0; // Cheap empty check: one relaxed load on the common path.
  uint32_t Head = SidecarHead.exchange(0, std::memory_order_acquire);
  size_t N = 0;
  while (Head != 0) {
    uint32_t Slot = Head - 1;
    std::atomic_ref<uint32_t> Link(sidecarLink(Slot));
    uint32_t Next = Link.load(std::memory_order_relaxed);
    // Validity checks 2 and 3 (live slot, not already freed) run exactly
    // as for a locked free — detection deferred to drain time, not lost.
    deallocate(Base + static_cast<size_t>(Slot) * ObjectSize);
    // Reopen the link only AFTER the free materializes: a double free
    // racing this drain then fails its claim and is rejected at push
    // time, instead of entering the sidecar as a pending entry for a
    // slot this lock hold may immediately reallocate — which would make
    // the next drain free the slot's NEXT occupant. A push landing after
    // the reopen finds the bit already clear and is rejected by the next
    // drain's validation; claimCleanSlot() refuses to hand out any slot
    // whose link is still claimed, so a stale push cannot alias a
    // reallocation. (What remains is the ambiguity every allocator has:
    // a free of an address whose slot was already freed, drained AND
    // re-handed-out is indistinguishable from a valid free of the new
    // object.)
    Link.store(0, std::memory_order_release);
    ++N;
    Head = Next == SidecarTail ? 0 : Next;
  }
  RemoteDrained.fetch_add(N, std::memory_order_relaxed);
  ++Stats.SidecarDrains;
  return N;
}

void RandomizedPartition::clearReleasedForSlot(size_t Index) {
  // Pages the slot's bytes overlap, clamped to the releasable data pages.
  // A slot straddling a page boundary un-marks both sides: any page about
  // to hold live data must be considered resident again so a later scan
  // can re-advise it once the neighbourhood goes quiet.
  const size_t Page = MmapRegion::pageSize();
  auto First = reinterpret_cast<uintptr_t>(FirstPage);
  uintptr_t SlotBegin = reinterpret_cast<uintptr_t>(Base) + Index * ObjectSize;
  uintptr_t SlotLast = SlotBegin + ObjectSize - 1;
  if (SlotLast < First)
    return;
  size_t P0 = SlotBegin > First ? (SlotBegin - First) / Page : 0;
  size_t P1 = (SlotLast - First) / Page;
  if (P1 >= NumDataPages)
    P1 = NumDataPages - 1; // Caller guarantees NumDataPages != 0.
  for (size_t P = P0; P <= P1 && P < NumDataPages; ++P) {
    uint64_t Mask = uint64_t(1) << (P % 64);
    uint64_t &Word = releasedWord(P);
    if (Word & Mask) {
      Word &= ~Mask;
      ReleasedPages.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void RandomizedPartition::scanAndReleaseSpans(MaintainOutcome &Out) {
  const size_t Page = MmapRegion::pageSize();
  auto First = reinterpret_cast<uintptr_t>(FirstPage);
  auto RegionBegin = reinterpret_cast<uintptr_t>(Base);
  size_t Pages = 0, Spans = 0;
  // Only the active prefix can hold set bits or touched pages; the final
  // free run ends at the prefix, and its inward clip keeps every released
  // page inside it.
  const size_t End = active();
  size_t SlotFrom = 0;
  while (SlotFrom < End) {
    size_t RunBegin = IsAllocated.findNextClear(SlotFrom, End);
    if (RunBegin == End)
      break;
    size_t RunEnd = IsAllocated.findNextSet(RunBegin, End);
    SlotFrom = RunEnd;
    // Clip the free run's byte range inward to whole pages. A page
    // overlapped by any set slot (live, cache-claimed, or sidecar-pending)
    // lies inside no clear run, so objects straddling page boundaries are
    // respected by construction.
    uintptr_t ByteBegin = RegionBegin + RunBegin * ObjectSize;
    uintptr_t ByteEnd = RegionBegin + RunEnd * ObjectSize;
    uintptr_t PageBegin = (ByteBegin + Page - 1) & ~(Page - 1);
    uintptr_t PageEnd = ByteEnd & ~(Page - 1);
    if (PageBegin >= PageEnd)
      continue;
    size_t P = (PageBegin - First) / Page;
    size_t RunPagesEnd = (PageEnd - First) / Page;
    if (RunPagesEnd > NumDataPages)
      RunPagesEnd = NumDataPages;
    // Advise each maximal sub-run of not-yet-released pages in one call.
    // The summary keeps the scan idempotent per span: an idle partition's
    // next sweep finds every bit set and issues no syscall. Meshed pages
    // are filtered here so ranges handed to releaseDataPages() contain
    // none (the released-bit accounting below relies on a prefix release)
    // — a fully-dead meshed pair keeps its one frame resident until reuse
    // dissolves the mesh, after which these scans reclaim it normally.
    while (P < RunPagesEnd) {
      while (P < RunPagesEnd && (releasedBit(P) || meshedDataPage(P)))
        ++P;
      size_t SubBegin = P;
      while (P < RunPagesEnd && !releasedBit(P) && !meshedDataPage(P))
        ++P;
      if (P == SubBegin)
        continue;
      size_t Bytes = releaseDataPages(SubBegin, P - SubBegin);
      if (Bytes == 0)
        continue; // Policy off or the kernel refused: nothing to record.
      size_t N = Bytes / Page;
      for (size_t I = SubBegin; I < SubBegin + N; ++I)
        releasedWord(I) |= uint64_t(1) << (I % 64);
      ReleasedPages.fetch_add(N, std::memory_order_relaxed);
      Pages += N;
      ++Spans;
    }
  }
  if (Pages != 0) {
    ++Stats.PartialReturns;
    Stats.PagesReturned += Pages;
    Stats.SpansReleased += Spans;
  }
  Out.PagesReturned += Pages;
  Out.SpansReleased += Spans;
}

RandomizedPartition::MaintainOutcome RandomizedPartition::maintain() {
  MaintainOutcome Out;
  Out.Drained = drainRemoteFrees();
  Stats.SweeperDrained += Out.Drained;
  // Partial page return. The bitmap walk is gated on the free-stamp: an
  // unchanged stamp means no bit has been cleared since the last scan, so
  // there is nothing new to release — repeated sweeps of an idle heap cost
  // two relaxed loads here and no syscall. Replicated-fill partitions skip
  // data-page return entirely (a demand-zero refault would destroy the
  // pre-randomized contents FillOnAllocate hands out).
  if (NumDataPages != 0 && !FillOnAllocate) {
    uint64_t Stamp = Stats.Frees + Stats.ReturnedSlots;
    if (Stamp != LastScanFreeStamp.load(std::memory_order_relaxed)) {
      scanAndReleaseSpans(Out);
      LastScanFreeStamp.store(Stamp, std::memory_order_relaxed);
    }
  }
  // Page meshing, same free-stamp gating — plus the armed flag, which a
  // scan sets when it saw pages whose occupancy changed since the last
  // pass: the quiet-page criterion needs two consecutive identical
  // observations, so one more pass may pair what this one only snapshot.
  if (MeshBacking != nullptr && NumDataPages != 0) {
    uint64_t Stamp = Stats.Frees + Stats.ReturnedSlots;
    if (MeshArmed.load(std::memory_order_relaxed) ||
        Stamp != LastMeshFreeStamp.load(std::memory_order_relaxed)) {
      meshScan(Out);
      LastMeshFreeStamp.store(Stamp, std::memory_order_relaxed);
    }
  }
  return Out;
}

bool RandomizedPartition::bindMeshBacking(MmapRegion *Backing) {
  const size_t Page = MmapRegion::pageSize();
  // Meshing preconditions: a meshable backing covering our data pages, no
  // replica random fill (a punched frame refaults zero, destroying the
  // pre-randomized contents; and fill-on-free writes object bytes under
  // the partition lock, which meshing's copy discipline excludes), masks
  // sized for the system page, and a class whose page masks can ever be
  // disjoint — an object size of a page or more fills every mask it
  // touches, so such classes simply never mesh.
  if (Backing == nullptr || !Backing->meshable() || NumDataPages == 0 ||
      FillOnAllocate || FillOnFree || ObjectSize >= Page ||
      Page / 8 / 64 > MeshMaskWords || !Backing->contains(FirstPage))
    return false;
  if (!MeshPartners.map(NumDataPages * sizeof(uint32_t)))
    return false;
  if (!MeshSnapshots.map(NumDataPages * sizeof(uint64_t))) {
    MeshPartners.unmap();
    return false;
  }
  MeshPageBase =
      static_cast<size_t>(FirstPage -
                          static_cast<char *>(Backing->base())) /
      Page;
  MeshedCount.store(0, std::memory_order_relaxed);
  MeshArmed.store(false, std::memory_order_relaxed);
  LastMeshFreeStamp.store(0, std::memory_order_relaxed);
  MeshBacking = Backing;
  return true;
}

size_t RandomizedPartition::releaseDataPages(size_t First, size_t Count) {
  if (MeshBacking != nullptr)
    return MeshBacking->releasePages(MeshPageBase + First, Count);
  const size_t Page = MmapRegion::pageSize();
  return MmapRegion::releasePageRange(FirstPage + First * Page,
                                      Count * Page);
}

size_t RandomizedPartition::buildPageMask(size_t PageIndex,
                                          uint64_t *Mask) const {
  const size_t Page = MmapRegion::pageSize();
  for (size_t W = 0; W < MeshMaskWords; ++W)
    Mask[W] = 0;
  auto RegionBegin = reinterpret_cast<uintptr_t>(Base);
  uintptr_t PB = reinterpret_cast<uintptr_t>(FirstPage) + PageIndex * Page;
  uintptr_t PE = PB + Page;
  // First slot whose bytes can reach the page: the one containing PB (a
  // straddler from the previous page starts before PB but owns bytes on
  // this one). Walk set slots from there until one starts past the page.
  size_t S0 = PB > RegionBegin ? (PB - RegionBegin) / ObjectSize : 0;
  size_t Units = 0;
  const size_t End = active();
  for (size_t S = IsAllocated.findNextSet(S0, End); S < End;
       S = IsAllocated.findNextSet(S + 1, End)) {
    uintptr_t OB = RegionBegin + S * ObjectSize;
    if (OB >= PE)
      break;
    uintptr_t OE = OB + ObjectSize;
    uintptr_t B = OB > PB ? OB : PB;
    uintptr_t E = OE < PE ? OE : PE;
    if (B >= E)
      continue;
    // Object sizes are multiples of 8 and slot 0 is 8-aligned, so the
    // clipped range falls on 8-byte unit boundaries exactly.
    size_t U0 = (B - PB) / 8, U1 = (E - PB) / 8;
    for (size_t U = U0; U < U1; ++U)
      Mask[U / 64] |= uint64_t(1) << (U % 64);
    Units += U1 - U0;
  }
  return Units;
}

void RandomizedPartition::meshScan(MaintainOutcome &Out) {
  struct Candidate {
    uint32_t PageIndex;
    uint32_t Units;
    uint64_t Mask[MeshMaskWords];
  };
  Candidate Cands[MaxMeshCandidates];
  size_t NumCands = 0;
  bool Rearm = false;
  const size_t ScanPages = activeDataPages();
  for (size_t P = 0; P < ScanPages; ++P) {
    if (meshPartner(P) != 0)
      continue; // Already meshed (either side); reuse dissolves it.
    uint64_t Mask[MeshMaskWords];
    size_t Units = buildPageMask(P, Mask);
    if (Units == 0 || Units == MeshMaskWords * 64) {
      // Empty pages are the span scanner's business; full pages can never
      // pair. Drop any stale snapshot.
      meshSnapshot(P) = 0;
      continue;
    }
    uint64_t H = hashMask(Mask, MeshMaskWords);
    if (meshSnapshot(P) != H) {
      // Not quiet yet: a page must show the same occupancy on two
      // consecutive scans before it may mesh. Snapshot and re-check.
      meshSnapshot(P) = H;
      Rearm = true;
      continue;
    }
    if (NumCands == MaxMeshCandidates) {
      Rearm = true; // More quiet pages than one pass examines.
      break;
    }
    Cands[NumCands].PageIndex = static_cast<uint32_t>(P);
    Cands[NumCands].Units = static_cast<uint32_t>(Units);
    for (size_t W = 0; W < MeshMaskWords; ++W)
      Cands[NumCands].Mask[W] = Mask[W];
    ++NumCands;
  }

  // Greedy first-fit pairing of disjoint masks; the sparser page donates
  // (fewer bytes to copy, and its frame is the one punched out).
  size_t Meshed = 0;
  bool Used[MaxMeshCandidates] = {};
  for (size_t I = 0; I + 1 < NumCands && Meshed < MaxMeshPairsPerPass; ++I) {
    if (Used[I])
      continue;
    for (size_t J = I + 1; J < NumCands; ++J) {
      if (Used[J])
        continue;
      uint64_t Overlap = 0;
      for (size_t W = 0; W < MeshMaskWords; ++W)
        Overlap |= Cands[I].Mask[W] & Cands[J].Mask[W];
      if (Overlap != 0)
        continue;
      Used[I] = Used[J] = true;
      ++Stats.MeshCandidates;
      size_t Donor = Cands[I].Units <= Cands[J].Units ? I : J;
      size_t Survivor = Donor == I ? J : I;
      if (meshPair(Cands[Donor].PageIndex, Cands[Survivor].PageIndex,
                   Cands[Donor].Mask))
        ++Meshed;
      break;
    }
  }
  if (Meshed == MaxMeshPairsPerPass)
    Rearm = true;
  MeshArmed.store(Rearm, std::memory_order_relaxed);
  if (Meshed != 0) {
    Stats.PagesMeshed += Meshed;
    Stats.MeshedBytes += Meshed * MmapRegion::pageSize();
  }
  Out.PagesMeshed += Meshed;
}

bool RandomizedPartition::meshPair(size_t Donor, size_t Survivor,
                                   const uint64_t *DonorMask) {
  const size_t Page = MmapRegion::pageSize();
  char *DonorAddr = FirstPage + Donor * Page;
  char *SurvivorAddr = FirstPage + Survivor * Page;
  // Quiesce user writes to the donor for the copy: a concurrent writer
  // faults into the guard's handler, spins until the guard drops, and
  // retries — by then the donor's virtual page is remapped read/write
  // onto the survivor's frame, where the copied object lives.
  if (!MmapRegion::beginMeshGuard(DonorAddr))
    return false; // Another mesh in flight process-wide: next pass.
  copyMaskedUnits(SurvivorAddr, DonorAddr, DonorMask, MeshMaskWords);
  if (!MeshBacking->remapPageTo(MeshPageBase + Donor,
                                MeshPageBase + Survivor)) {
    MmapRegion::abortMeshGuard(DonorAddr);
    return false;
  }
  MmapRegion::endMeshGuard();
  meshPartner(Donor) = static_cast<uint32_t>(Survivor) + 1;
  meshPartner(Survivor) = static_cast<uint32_t>(Donor) + 1;
  MeshedCount.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RandomizedPartition::unmeshForSlot(size_t Index) {
  if (MeshBacking == nullptr || NumDataPages == 0)
    return true;
  const size_t Page = MmapRegion::pageSize();
  auto First = reinterpret_cast<uintptr_t>(FirstPage);
  uintptr_t SlotBegin =
      reinterpret_cast<uintptr_t>(Base) + Index * ObjectSize;
  uintptr_t SlotLast = SlotBegin + ObjectSize - 1;
  if (SlotLast < First)
    return true;
  size_t P0 = SlotBegin > First ? (SlotBegin - First) / Page : 0;
  size_t P1 = (SlotLast - First) / Page;
  if (P1 >= NumDataPages)
    P1 = NumDataPages - 1;
  for (size_t P = P0; P <= P1 && P < NumDataPages; ++P) {
    uint32_t Partner = meshPartner(P);
    if (Partner == 0)
      continue;
    // Either side of the pair must dissolve: a new object on the donor
    // would be written through the remap onto the survivor's frame, and a
    // new object on the survivor could overwrite units the donor's live
    // objects occupy there. Which side is the donor is recorded in the
    // backing's remap table.
    size_t Other = static_cast<size_t>(Partner) - 1;
    bool PIsDonor =
        MeshBacking->meshTargetOf(MeshPageBase + P) != MeshPageBase + P;
    if (!unmeshPage(PIsDonor ? P : Other, PIsDonor ? Other : P))
      return false;
  }
  return true;
}

bool RandomizedPartition::unmeshPage(size_t Donor, size_t Survivor) {
  const size_t Page = MmapRegion::pageSize();
  char *DonorAddr = FirstPage + Donor * Page;
  // Rebuild the donor's punched-out frame through a scratch mapping while
  // the donor's virtual page still reads the shared frame.
  void *Scratch = MeshBacking->mapFrameScratch(MeshPageBase + Donor);
  if (Scratch == nullptr)
    return false;
  uint64_t Mask[MeshMaskWords];
  buildPageMask(Donor, Mask);
  // The process-wide guard may be briefly held by the sweeper meshing a
  // different partition; a mesh is one page copy long, so wait it out
  // (bounded, in case of a stuck holder).
  bool Guarded = false;
  for (int Spin = 0; Spin < (1 << 22); ++Spin)
    if ((Guarded = MmapRegion::beginMeshGuard(DonorAddr)))
      break;
  if (!Guarded) {
    MmapRegion::unmapFrameScratch(Scratch);
    return false;
  }
  copyMaskedUnits(static_cast<char *>(Scratch), DonorAddr, Mask,
                  MeshMaskWords);
  bool Ok =
      MeshBacking->remapPageTo(MeshPageBase + Donor, MeshPageBase + Donor);
  if (Ok)
    MmapRegion::endMeshGuard();
  else
    MmapRegion::abortMeshGuard(DonorAddr);
  MmapRegion::unmapFrameScratch(Scratch);
  if (!Ok)
    return false;
  meshPartner(Donor) = 0;
  meshPartner(Survivor) = 0;
  // Occupancy is about to change (the caller claimed a slot here); force
  // both pages back through the two-scan quiet criterion.
  meshSnapshot(Donor) = 0;
  meshSnapshot(Survivor) = 0;
  MeshedCount.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool RandomizedPartition::deallocate(void *Ptr) {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset = static_cast<size_t>(static_cast<char *>(Ptr) - Base);
  // Validity check 1: the offset must be an exact multiple of the object
  // size. Validity check 2: the slot must currently be allocated. Anything
  // else is an invalid or double free and is ignored.
  if (Offset % ObjectSize != 0) {
    ++Stats.IgnoredFrees;
    return false;
  }
  size_t Index = Offset / ObjectSize;
  if (!IsAllocated.tryClear(Index)) {
    ++Stats.IgnoredFrees;
    return false;
  }
  assert(InUse.load(std::memory_order_relaxed) > 0 &&
         "bitmap and counter out of sync");
  InUse.fetch_sub(1, std::memory_order_relaxed);
  ++Stats.Frees;
  LiveBytes.fetch_sub(ObjectSize, std::memory_order_relaxed);
  if (FillOnFree)
    randomFill(Ptr, ObjectSize);
  return true;
}

size_t RandomizedPartition::objectSize(const void *Ptr) const {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset =
      static_cast<size_t>(static_cast<const char *>(Ptr) - Base);
  size_t Index = Offset / ObjectSize;
  return IsAllocated.test(Index) ? ObjectSize : 0;
}

void *RandomizedPartition::objectStart(const void *Ptr) const {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset =
      static_cast<size_t>(static_cast<const char *>(Ptr) - Base);
  size_t Index = Offset / ObjectSize;
  return IsAllocated.test(Index) ? Base + Index * ObjectSize : nullptr;
}

} // namespace diehard
