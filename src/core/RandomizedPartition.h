//===- core/RandomizedPartition.h - one size-class miniheap -----*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One size class's randomized region, extracted from the DieHardHeap
/// monolith. The paper's safety argument (Sections 3-4) is stated per
/// partition: each power-of-two region is an independent M-approximation of
/// an infinite heap with its own allocation bitmap, 1/M fill bound, and
/// uniform random placement. Materializing that unit as a class gives the
/// layers above a natural locking granularity — two threads touching
/// different size classes of the same heap share no partition state — and
/// gives each partition its own RNG stream, derived from the heap seed, so
/// partitions can be driven concurrently without serializing on a shared
/// generator.
///
/// A partition is a slab of `Slots` objects of one rounded size inside the
/// owning heap's reservation. It owns the allocation bitmap (stored far from
/// the heap, Section 4.1), the live count, the 1/M threshold, live-byte
/// accounting, the probe/fallback placement logic of Figure 2, and the
/// replicated-mode random-fill behaviour for its objects.
///
/// The partition grows from a small *active prefix* of its slots, as the
/// paper's Section 9 proposes ("grows memory regions dynamically as objects
/// are allocated"). Probes and the fallback scan draw only from
/// [0, active()); whenever a locked allocation or a cache refill would push
/// the live count past active()/M, the prefix doubles (capped at the slot
/// count). The refusal threshold stays slots/M, so overflow routing and the
/// final 1/M bound are those of the fixed heap, and slot indices never
/// move, so the bitmap, sidecar links and page summaries need no remapping.
/// Only the pages of the prefix are ever touched, so the footprint follows
/// the live data instead of the reservation. A prefix equal to the slot
/// count is the paper's fixed heap.
///
/// Thread safety: none by itself, by design — the sharded layer wraps each
/// partition in its own cache-line-padded lock. The live count is a
/// RelaxedCounter: written only under that lock (a plain load and store,
/// no locked read-modify-write), so overflow routing and stats reporting
/// may *read* it without taking the partition's lock.
///
/// The one concurrent structure a partition does own is the remote-free
/// sidecar: a lock-free MPSC intrusive stack of slot indices (Treiber push
/// from any thread, owner-side drain under the partition lock) that lets a
/// cross-thread free hand a slot back without ever touching the owner's
/// lock. A batch of frees is chained locally and spliced onto the stack
/// with one compare-and-swap. Pushed slots stay bit-set and counted in the
/// live gauge until the owner drains them, so the 1/M fill invariant holds
/// with frees in flight, and the drain runs the ordinary free validation
/// per slot, so double-/invalid-free detection is preserved — it just
/// happens at drain time (or at push time, when the same slot is pushed
/// twice before a drain).
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_CORE_RANDOMIZEDPARTITION_H
#define DIEHARD_CORE_RANDOMIZEDPARTITION_H

#include "support/Bitmap.h"
#include "support/MmapRegion.h"
#include "support/Rng.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace diehard {

/// A counter mutated only under an external lock (the partition lock in
/// concurrent configurations) but readable by anyone without it. The store
/// and load are relaxed atomics — on mainstream hardware a plain move — so
/// the mutation stays as cheap as a non-atomic increment while unlocked
/// readers (statsApprox(), the shim's stats dump) stay race-free. NOT an
/// atomic counter: concurrent unsynchronized writers would lose updates,
/// which is exactly why writes require the owner's lock.
class RelaxedCounter {
public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter &) = delete;
  RelaxedCounter &operator=(const RelaxedCounter &) = delete;

  RelaxedCounter &operator++() {
    add(1);
    return *this;
  }
  RelaxedCounter &operator+=(uint64_t N) {
    add(N);
    return *this;
  }
  RelaxedCounter &operator-=(uint64_t N) {
    Value.store(Value.load(std::memory_order_relaxed) - N,
                std::memory_order_relaxed);
    return *this;
  }
  /// Lock-free read.
  operator uint64_t() const { return Value.load(std::memory_order_relaxed); }

private:
  void add(uint64_t N) {
    Value.store(Value.load(std::memory_order_relaxed) + N,
                std::memory_order_relaxed);
  }
  std::atomic<uint64_t> Value{0};
};

/// Behaviour counters of a single partition. Mutated only by the partition's
/// owner (under the partition lock in concurrent configurations); each field
/// is a RelaxedCounter so lock-free snapshots may read them concurrently.
struct PartitionStats {
  RelaxedCounter Allocations;       ///< Successful allocations.
  RelaxedCounter Frees;             ///< Successful frees.
  RelaxedCounter FailedAllocations; ///< Requests refused (1/M bound reached).
  RelaxedCounter IgnoredFrees;      ///< Invalid/double frees ignored.
  RelaxedCounter Probes;            ///< Bitmap probes across all allocations.
  RelaxedCounter ProbeFallbacks;    ///< Times the linear fallback scan ran.
  RelaxedCounter ClaimedSlots;      ///< Slots handed to thread caches.
  RelaxedCounter ReturnedSlots;     ///< Unused cached slots handed back.
  RelaxedCounter SidecarDrains;     ///< Non-empty remote-free drains.
  RelaxedCounter SweeperDrained;    ///< Sidecar entries drained by maintain().
  RelaxedCounter PagesReturned;     ///< Object-free data pages handed back to
                                    ///< the OS by the span scanner.
  RelaxedCounter PartialReturns;    ///< maintain() scans that released pages.
  RelaxedCounter SpansReleased;     ///< Contiguous page runs advised away
                                    ///< (one madvise call each).
};

/// Claims a free slot among the first \p Slots bits of \p Bits: up to 64
/// uniform random probes, then a linear fallback scan from a random start
/// (Figure 2's termination guarantee without measurably biasing
/// placement). The claimed bit is set before returning. \returns the slot
/// index, or \p Slots if every one of those bits is set. \p Probes and
/// \p Fallbacks are incremented in place so callers can keep their own
/// counter domains.
size_t claimRandomSlot(Bitmap &Bits, Rng &Rand, size_t Slots,
                       uint64_t &Probes, uint64_t &Fallbacks);

/// Fills \p Bytes bytes at \p Ptr from \p Rand in 32-bit units, as in
/// Figure 2 of the paper (the replicated-mode fill; callers pass sizes
/// already rounded to a multiple of 4). Shared by the partitions and both
/// heaps' large-object paths.
void randomFillWords(Rng &Rand, void *Ptr, size_t Bytes);

/// One size class's randomized region: bitmap, 1/M threshold, RNG stream,
/// and accounting. See the file comment for the design rationale.
class RandomizedPartition {
public:
  RandomizedPartition() = default;
  RandomizedPartition(const RandomizedPartition &) = delete;
  RandomizedPartition &operator=(const RandomizedPartition &) = delete;

  /// Binds the partition to the \p NumSlots objects of \p ObjectBytes each
  /// starting at \p RegionBase, installs the 1/M threshold, and seeds the
  /// partition's RNG with \p StreamSeed (a per-class stream derived from
  /// the heap seed). \p FillOnAllocate / \p FillOnFree select the
  /// replicated-mode random-fill behaviour (Section 3.2). \p InitialActive
  /// is the first active prefix in slots; 0 (or any value >= \p NumSlots)
  /// makes every slot active from the start, the paper's fixed heap.
  /// \returns false if the bitmap mapping failed, in which case the
  /// partition is unusable.
  bool init(void *RegionBase, size_t ObjectBytes, size_t NumSlots, double M,
            uint64_t StreamSeed, bool FillOnAllocate, bool FillOnFree,
            size_t InitialActive = 0);

  /// Random-probe allocation of one object (Figure 2), doubling the active
  /// prefix first if the new object would push the live count past
  /// active()/M. \returns nullptr when the partition is at its 1/M
  /// threshold.
  void *allocate();

  /// Batch claim for the thread-cache tier: claims up to \p MaxCount slots,
  /// each chosen by the same uniform probe discipline as allocate() (so a
  /// refill draws from exactly the distribution a sequence of allocate()
  /// calls would), and writes their object pointers to \p Out in shuffled
  /// order. Claimed slots are counted as live immediately — they occupy
  /// bitmap bits and the InUse gauge, so the 1/M bound holds with slots
  /// sitting in caches — but are NOT counted as Allocations (the cache
  /// layer counts the user-visible pop). \returns the number of slots
  /// claimed: fewer than \p MaxCount when the 1/M threshold is near, 0 when
  /// the partition is saturated (without counting a FailedAllocation — the
  /// caller decides whether the request as a whole failed). Grows the
  /// active prefix first, like allocate(), so the whole batch fits under
  /// active()/M.
  size_t claimRandomSlots(void **Out, size_t MaxCount);

  /// Returns \p Count slots previously obtained from claimRandomSlots() and
  /// never handed to a user: clears their bits and live accounting without
  /// touching the Allocations/Frees counters or the free-fill behaviour.
  void reclaimSlots(void *const *Ptrs, size_t Count);

  /// Validated free. The pointer must lie inside this partition's region;
  /// wrong slot offsets, double frees and dead slots are counted and
  /// ignored. \returns true if an object was actually freed.
  bool deallocate(void *Ptr);

  /// Validated batch free of \p Count pointers (all of which must lie in
  /// this partition's region), in one pass: each pointer gets deallocate()'s
  /// checks and free-fill in order, and the Frees/IgnoredFrees counters and
  /// the live gauge are updated once for the whole batch. deallocate() is
  /// the one-element call. \returns the number of objects actually freed.
  size_t deallocateBatch(void *const *Ptrs, size_t Count);

  /// Lock-free cross-thread free of \p Count pointers (all inside this
  /// partition's region): claims each slot's sidecar link, chains the
  /// claimed slots locally, and splices the chain onto the partition's MPSC
  /// remote-free sidecar with one release CAS, without taking any lock.
  /// The slots stay bit-set and counted live until the owner drains them,
  /// so the 1/M bound is unaffected by frees in flight. Misaligned pointers
  /// and slots already pending in the sidecar (a double free racing a
  /// drain, or a duplicate inside the batch) are rejected and counted once
  /// each; everything else is validated like deallocate() when the owner
  /// drains. Callable from any thread, with or without the partition lock.
  void remoteFreeBatch(void *const *Ptrs, size_t Count);

  /// remoteFreeBatch() of the single pointer \p Ptr.
  void remoteFree(void *Ptr) { remoteFreeBatch(&Ptr, 1); }

  /// Owner-side drain of the remote-free sidecar: detaches the pushed chain
  /// in one atomic exchange and runs deallocate()'s validation for every
  /// entry, updating the counters once for the whole chain. Callers hold
  /// the partition lock in concurrent configurations (any lock holder may
  /// drain — "owner" means the lock, not a thread).
  /// \returns the number of entries processed (freed or rejected as
  /// double/invalid frees).
  size_t drainRemoteFrees();

  /// Result of one maintain() pass.
  struct MaintainOutcome {
    size_t Drained = 0;       ///< Sidecar entries processed.
    size_t PagesReturned = 0; ///< Whole pages handed back to the OS.
    size_t SpansReleased = 0; ///< Contiguous page runs advised away.
  };

  /// Epoch-maintenance entry for the background sweeper. Drains the
  /// remote-free sidecar through the validated deallocate() path (so
  /// double-free detection fires exactly as an owner drain would), then
  /// runs the free-span scanner over the active prefix (slots past it were
  /// never handed out, so their pages were never touched): every maximal
  /// run of clear bits is mapped to the pages lying entirely inside it
  /// (a page overlapped by any bit-set slot — live, cache-claimed, or
  /// sidecar-pending — is never touched, which handles objects straddling
  /// page boundaries for free),
  /// and each not-yet-released sub-run of those pages is returned to the OS
  /// through MmapRegion::releasePageRange under the process page-return
  /// policy. Only demand-zero object pages are dropped; the bitmap, live
  /// gauges, and threshold are untouched, so the 1/M bound and free
  /// validation never consult residency. The scan is gated on a free-stamp
  /// (no frees since the last scan means no new clear bits, so repeated
  /// sweeps of an idle heap cost two relaxed loads and no bitmap walk) and
  /// skipped entirely for replicated-fill partitions (FillOnAllocate),
  /// whose pre-randomized contents a refault would destroy. Callers hold
  /// the partition lock in concurrent configurations.
  MaintainOutcome maintain();

  /// True while any of the partition's data pages are returned to the OS
  /// (set by maintain()'s span scanner, cleared per page by allocations
  /// landing on it). Lock-free gauge.
  bool pagesReleased() const {
    return ReleasedPages.load(std::memory_order_relaxed) != 0;
  }

  /// Number of data pages currently returned to the OS. Lock-free gauge.
  size_t releasedPages() const {
    return ReleasedPages.load(std::memory_order_relaxed);
  }

  /// True if a maintain() call now could plausibly release pages: the
  /// partition has releasable geometry, frees have happened since the last
  /// span scan, and the fill level is at or below \p FillGate (the sweeper
  /// skips hot partitions — scanning a bitmap that is mostly set walks
  /// memory for nothing). Lock-free pre-check; the authoritative re-check
  /// happens under the partition lock inside maintain().
  bool pageScanPending(double FillGate) const {
    if (NumDataPages == 0 || FillOnAllocate)
      return false;
    uint64_t Stamp = Stats.Frees + Stats.ReturnedSlots;
    if (Stamp == LastScanFreeStamp.load(std::memory_order_relaxed))
      return false;
    return fill() <= FillGate;
  }

  /// Successful sidecar pushes so far. Lock-free gauge.
  uint64_t remoteFrees() const {
    return RemotePushes.load(std::memory_order_relaxed);
  }

  /// Pushes rejected without entering the sidecar (misaligned offset, or
  /// the slot was already pending — a double free caught at push time).
  /// Lock-free gauge.
  uint64_t remoteFreeRejects() const {
    return RemoteRejects.load(std::memory_order_relaxed);
  }

  /// Pushes not yet drained. Lock-free gauge; clamped against transiently
  /// reordered counter reads.
  uint64_t pendingRemoteFrees() const {
    uint64_t P = RemotePushes.load(std::memory_order_relaxed);
    uint64_t D = RemoteDrained.load(std::memory_order_relaxed);
    return P > D ? P - D : 0;
  }

  /// True if the sidecar has a pushed (undrained) chain. One relaxed load —
  /// cheap enough for allocation-path gauge pre-checks.
  bool hasPendingRemoteFrees() const {
    return SidecarHead.load(std::memory_order_relaxed) != 0;
  }

  /// Usable (rounded) size of the live object containing \p Ptr — interior
  /// pointers allowed — or 0 if the slot is not live.
  size_t objectSize(const void *Ptr) const;

  /// Start of the live object containing \p Ptr (interior pointers
  /// allowed), or nullptr if the slot is not live.
  void *objectStart(const void *Ptr) const;

  /// True if \p Ptr lies anywhere inside the partition's region.
  bool contains(const void *Ptr) const {
    const char *P = static_cast<const char *>(Ptr);
    return P >= Base && P < Base + Slots * ObjectSize;
  }

  /// Visits every live object as (slot index, pointer), slot ascending.
  /// The deterministic order is what the heap-differencing debugger keys
  /// its snapshots on. Walks only the active prefix.
  template <typename Visitor> void forEachLive(Visitor &&Visit) const {
    const size_t End = active();
    for (size_t Slot = IsAllocated.findNextSet(0, End); Slot < End;
         Slot = IsAllocated.findNextSet(Slot + 1, End))
      Visit(Slot, static_cast<const void *>(Base + Slot * ObjectSize));
  }

  /// Number of live objects. Relaxed-atomic gauge: safe to read without the
  /// partition lock (overflow routing ranks sibling partitions with it).
  size_t live() const { return InUse; }

  /// Bytes live in this partition (rounded sizes). Lock-free gauge.
  size_t liveBytes() const { return live() * ObjectSize; }

  /// Fill level relative to the final 1/M threshold (slots/M, not the
  /// active prefix's share), in [0, 1]. 1.0 means the partition refuses
  /// further allocations. Measuring against the final threshold keeps the
  /// sweeper's fill gate and overflow ranking exactly as for the fixed
  /// heap. Lock-free gauge.
  double fill() const {
    return Threshold == 0
               ? 1.0
               : static_cast<double>(live()) / static_cast<double>(Threshold);
  }

  /// Slot capacity (before applying the 1/M bound).
  size_t slots() const { return Slots; }

  /// Maximum live objects allowed (the 1/M threshold).
  size_t threshold() const { return Threshold; }

  /// Slots in the active prefix [0, active()): the only slots probes draw
  /// from and the only bits that are ever set. Never shrinks; equals
  /// slots() once fully grown (and from the start for a fixed partition).
  /// Lock-free gauge.
  size_t active() const { return Active.load(std::memory_order_relaxed); }

  /// The rounded object size this partition serves.
  size_t objectBytes() const { return ObjectSize; }

  /// First byte of the partition's region.
  const void *base() const { return Base; }

  /// The seed of this partition's RNG stream.
  uint64_t streamSeed() const { return StreamSeed; }

  /// Behaviour counters. Mutated only under the partition lock in
  /// concurrent configurations; every field is a RelaxedCounter, so
  /// lock-free readers (statsApprox(), the shim's stats dump) may snapshot
  /// them concurrently — individual fields are exact, cross-field
  /// consistency requires the lock.
  const PartitionStats &stats() const { return Stats; }

private:
  /// Fills \p Bytes bytes at \p Ptr from this partition's RNG stream, in
  /// 32-bit units as in Figure 2 (object sizes are multiples of 8).
  void randomFill(void *Ptr, size_t Bytes);

  /// deallocate()'s per-pointer work without the counters: the offset
  /// check, the bitmap clear, and the free-fill. \returns true if an
  /// object was freed.
  bool releaseSlot(void *Ptr);

  /// Books \p Freed frees out of \p Attempted validated ones: Frees,
  /// IgnoredFrees and the live gauge, once per batch.
  void countFrees(size_t Attempted, size_t Freed);

  /// Doubles the active prefix (capped at Slots) until \p Live live
  /// objects fit under its 1/M share. Requires the partition lock.
  void growToFit(size_t Live);

  /// claimRandomSlot, then reject-and-reprobe any slot that still has an
  /// in-flight sidecar entry (a stale double free of its previous life),
  /// draining the sidecar so the stale entry is consumed harmlessly
  /// before the slot can be reused. Probes only the active prefix.
  /// \returns the slot index, or Slots.
  size_t claimCleanSlot(uint64_t &Probes, uint64_t &Fallbacks);

  /// Lazily un-marks released pages the freshly claimed slot \p Index
  /// overlaps, so the next span scan can re-release them once they go
  /// quiet again. Called only when ReleasedPages != 0 (the hot allocation
  /// path pays one relaxed load to find that out); runs under the
  /// partition lock like every other mutation.
  void clearReleasedForSlot(size_t Index);

  /// The span scanner behind maintain(): walks maximal clear-bit runs,
  /// clips each inward to page boundaries, and releases the not-yet-
  /// released page sub-runs. Accumulates into \p Out and the partition
  /// counters. Requires the partition lock.
  void scanAndReleaseSpans(MaintainOutcome &Out);

  /// Word/bit accessors of the released-page summary (one bit per data
  /// page; bit set = page currently advised away).
  uint64_t &releasedWord(size_t PageIndex) const {
    return static_cast<uint64_t *>(ReleasedSummary.base())[PageIndex / 64];
  }
  bool releasedBit(size_t PageIndex) const {
    return (releasedWord(PageIndex) >> (PageIndex % 64)) & 1;
  }

  // --- Remote-free sidecar encoding ---------------------------------------
  // SidecarHead: 0 = empty, else slot + 1 of the most recent push.
  // Link word of slot s (in SidecarLinks): 0 = s is not in the sidecar;
  // SidecarTail = s is pending and ends the chain; else next slot + 1.
  // A push claims its link word with a CAS from 0 — the claim doubles as
  // push-time double-free detection — then splices onto the head; the drain
  // detaches the whole chain with one exchange and walks it. Links live in
  // their own demand-zero mapping (4 bytes per slot, committed only for
  // slots that actually see remote frees), accessed through atomic_ref.
  static constexpr uint32_t SidecarTail = UINT32_MAX;

  /// The link word of slot \p Slot.
  uint32_t &sidecarLink(size_t Slot) const {
    return static_cast<uint32_t *>(SidecarLinks.base())[Slot];
  }

  char *Base = nullptr;
  size_t ObjectSize = 0;
  size_t Slots = 0;
  size_t Threshold = 0;
  double Expansion = 2.0; ///< M, for the prefix's 1/M share.
  /// The active prefix. Written only under the partition lock; relaxed so
  /// gauges and the sweeper's pre-checks may read it lock-free.
  std::atomic<size_t> Active{0};
  /// floor(Active / M): live objects the prefix admits before it must
  /// grow (Threshold once fully grown). Read and written under the lock.
  size_t ActiveLimit = 0;
  uint64_t StreamSeed = 0;
  bool FillOnAllocate = false;
  bool FillOnFree = false;
  Rng Rand;
  Bitmap IsAllocated;
  /// Live objects (bit-set slots). Written only under the partition lock;
  /// live bytes are always InUse * ObjectSize.
  RelaxedCounter InUse;
  PartitionStats Stats;

  // --- Partial page return ------------------------------------------------
  // The data pages lying entirely inside the region: [FirstPage, FirstPage
  // + NumDataPages * page size). Edge bytes outside that range share pages
  // with neighbouring partitions (or metadata) and are never released. The
  // released-page summary has one bit per data page, lives in its own
  // demand-zero mapping (committed only when pages actually get released),
  // and is mutated only under the partition lock; ReleasedPages mirrors its
  // popcount as a relaxed atomic so the hot allocation path and lock-free
  // gauges need exactly one relaxed load.
  char *FirstPage = nullptr;
  size_t NumDataPages = 0;
  MmapRegion ReleasedSummary;
  std::atomic<size_t> ReleasedPages{0};

  /// Free-stamp (Stats.Frees + Stats.ReturnedSlots, both monotonic) at the
  /// end of the last span scan. An unchanged stamp means no bit has been
  /// cleared since, so the scan is skipped. Written under the partition
  /// lock, relaxed so pageScanPending() may read it lock-free.
  std::atomic<uint64_t> LastScanFreeStamp{0};

  /// Remote-free sidecar state. The link array and head are mutated
  /// lock-free by pushers; RemoteDrained and the drain walk are owner-only
  /// (under the partition lock), but every counter is lock-free readable.
  MmapRegion SidecarLinks;
  std::atomic<uint32_t> SidecarHead{0};
  std::atomic<uint64_t> RemotePushes{0};
  std::atomic<uint64_t> RemoteRejects{0};
  std::atomic<uint64_t> RemoteDrained{0};
};

} // namespace diehard

#endif // DIEHARD_CORE_RANDOMIZEDPARTITION_H
