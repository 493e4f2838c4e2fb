//===- core/DieHardHeap.h - the randomized DieHard heap ---------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The randomized memory manager at the heart of DieHard (Section 4),
/// composed from twelve RandomizedPartition objects — one per power-of-two
/// size class (8 B .. 16 KB) — plus the mmap-backed LargeObjectManager.
/// Objects are placed uniformly at random within their class's partition,
/// each partition may become at most 1/M full, all metadata (one bit per
/// object) lives far from the heap, and free validates every address it is
/// given. Larger objects go to the large-object manager.
///
/// The paper states its safety argument per partition, and the class
/// structure mirrors that: DieHardHeap owns the contiguous reservation and
/// the large-object path, routes each request to the partition that covers
/// it, and aggregates accounting; everything class-specific — bitmap,
/// threshold, probe logic, RNG stream — lives in RandomizedPartition. Each
/// partition draws from its own RNG stream derived from the heap seed, so
/// the sharded layer can lock partitions independently.
///
/// This M-approximation of an infinite heap is what provides probabilistic
/// memory safety: overflows probably land on free space, and prematurely
/// freed objects are probably not reused for a long time.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_CORE_DIEHARDHEAP_H
#define DIEHARD_CORE_DIEHARDHEAP_H

#include "core/LargeObjectManager.h"
#include "core/RandomizedPartition.h"
#include "core/SizeClass.h"
#include "support/MmapRegion.h"
#include "support/Rng.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace diehard {

/// Configuration for a DieHardHeap.
struct DieHardOptions {
  /// Total bytes reserved across all twelve size-class partitions. Reserved
  /// pages are committed lazily, so a large default is cheap. The paper's
  /// experiments use 384 MB.
  size_t HeapSize = 384 * 1024 * 1024;

  /// The heap expansion factor M: each partition may become at most 1/M
  /// full. M = 2 means the heap is twice the maximum live size.
  double M = 2.0;

  /// Slots in each partition's first active prefix (see
  /// RandomizedPartition). Probes draw only from the prefix, and it doubles
  /// whenever the live count would pass its 1/M share, so a process touches
  /// pages in proportion to its live data rather than to HeapSize (the
  /// growing heap of Section 9). 0 makes every slot active from the start:
  /// the paper's fixed heap, with full placement entropy from the first
  /// allocation. The default of 256 is 2 * M * K for M = 4 and the thread
  /// cache's K = 32, so at the shipped M = 2 one cache refill never has to
  /// grow twice. It is a multiple of 64 so the prefix covers whole bitmap
  /// words, and small enough that the 8-byte class starts inside one page.
  size_t InitialActiveSlots = 256;

  /// RNG seed. Zero selects a truly random seed (from /dev/urandom), which
  /// is what the replicated framework wants; tests pass a fixed seed. Each
  /// partition derives its own stream from this seed.
  uint64_t Seed = 0;

  /// Replicated mode: fill each allocated object with random values so that
  /// uninitialized reads return different data in every replica
  /// (Section 3.2). Stand-alone mode leaves objects untouched.
  bool RandomFillObjects = false;

  /// Replicated mode: additionally fill freed objects with fresh random
  /// values, so reads through dangling pointers also diverge across
  /// replicas.
  bool RandomFillOnFree = false;

  /// Replicated mode, Figure 2's initialization: fill the *entire* heap
  /// with random values up front, so reads beyond object bounds also
  /// return replica-divergent data. Commits every page of the
  /// reservation, so it trades the lazy-initialization space saving for
  /// maximal detection (the paper enables it only in replicated mode).
  bool RandomFillHeapOnInit = false;

  /// Page meshing: back the reservation with a memfd (MAP_SHARED) so the
  /// sweeper's maintain() passes can remap pairs of sparse pages with
  /// disjoint occupancy onto one physical frame — RSS drops, every
  /// virtual address, bitmap bit, and validation path is untouched.
  /// Incompatible with the random-fill options (a meshed frame's punch
  /// refaults zero) — the constructor ignores Meshing when any fill
  /// option is set, and falls back to a private mapping (meshing off,
  /// heap fully functional) when the kernel lacks memfd support.
  bool Meshing = false;
};

/// Running counters describing heap behaviour; used by tests, benches, and
/// the experiment harness. Aggregated over the partitions on each stats()
/// call.
struct DieHardStats {
  uint64_t Allocations = 0;       ///< Successful small allocations.
  /// Successful small frees. NOT monotonic while frees are in flight:
  /// aggregations count parked deferred-buffer entries and undrained
  /// sidecar pushes as Frees (the user's free already happened), and an
  /// in-flight entry that fails validation when it materializes is
  /// reclassified to IgnoredFrees — so sampling Frees as a monotonic
  /// event counter can see a small negative delta across a flush/drain.
  /// Exact at quiescence.
  uint64_t Frees = 0;
  uint64_t LargeAllocations = 0;  ///< Successful large allocations.
  uint64_t LargeFrees = 0;        ///< Successful large frees.
  uint64_t FailedAllocations = 0; ///< Requests refused (partition full).
  uint64_t IgnoredFrees = 0;      ///< Invalid/double frees ignored.
  uint64_t ReallocRejects = 0;    ///< realloc() of a pointer that is not a
                                  ///< live heap object, refused (nullptr
                                  ///< returned, no state touched) — the
                                  ///< realloc-entry analogue of
                                  ///< IgnoredFrees.
  uint64_t Probes = 0;            ///< Bitmap probes across all allocations.
  uint64_t ProbeFallbacks = 0;    ///< Times the linear fallback scan ran.
  uint64_t OverflowAllocations = 0; ///< Allocations served by a sibling
                                    ///< shard (sharded layer only; always 0
                                    ///< for a lone DieHardHeap).

  // Thread-cache tier (sharded layer only; always 0 for a lone heap).
  uint64_t CachedSlots = 0;   ///< Slots currently claimed into caches.
  uint64_t CacheRefills = 0;  ///< Batch refills taken from partitions.
  uint64_t CacheFlushes = 0;  ///< Deferred-free / full cache flushes.

  // Remote-free sidecar (pushed only by the sharded layer's cross-shard
  // frees; always 0 for a lone heap).
  uint64_t RemoteFrees = 0;   ///< Lock-free sidecar pushes accepted.
  uint64_t SidecarDrains = 0; ///< Non-empty owner-side sidecar drains.

  // Epoch sweeper (sharded layer only; always 0 for a lone heap or with
  // the sweeper disabled).
  uint64_t SweepPasses = 0;          ///< Completed sweeper passes.
  uint64_t SweeperDrainedRemote = 0; ///< Sidecar entries drained by sweeps.
  uint64_t AgedCaches = 0;           ///< Quiet thread caches aged out.
  uint64_t PagesReturned = 0;        ///< Object-free data pages returned to
                                     ///< the OS by the span scanner.
  uint64_t PartialReturns = 0;       ///< maintain() scans that released
                                     ///< pages from a partition.
  uint64_t SpansReleased = 0;        ///< Contiguous page runs advised away
                                     ///< (one madvise call each).
  uint64_t MeshCandidates = 0;       ///< Disjoint page pairs found by mesh
                                     ///< scans (attempted meshes).
  uint64_t PagesMeshed = 0;          ///< Donor pages remapped onto a
                                     ///< survivor's physical frame.
  uint64_t MeshedBytes = 0;          ///< Physical bytes reclaimed by
                                     ///< meshing.
};

/// Folds one partition's counters into \p Total: the PartitionStats
/// fields, the sidecar gauges (push-time rejects into IgnoredFrees), and
/// the in-flight (undrained) sidecar entries into Frees — those are frees
/// the user already performed, so Allocations == Frees holds at
/// quiescence with entries still parked. The ONE fold every aggregation
/// path (lone heap, sharded locked stats, sharded lock-free approx) goes
/// through, so the layers' books cannot silently diverge.
void addPartitionStats(DieHardStats &Total, const RandomizedPartition &P);

/// The randomized DieHard memory manager.
///
/// Not thread-safe by itself; concurrent users must wrap calls in locks.
/// Because every small-object operation touches exactly one partition, the
/// sharded layer locks at partition granularity: two threads are free to
/// operate on *different* size classes of the same DieHardHeap
/// concurrently, as long as each class is serialized (see ShardedHeap for
/// the lock table; partitionIndexOf() is the pre-lock routing query). The
/// large-object path and the whole-heap queries (stats(), bytesLive(),
/// forEachLiveObject()) are not covered by that scheme and remain
/// single-threaded-or-externally-serialized.
///
/// The heap never throws and never aborts on bad input: allocation failure
/// returns nullptr and invalid frees are silently ignored, exactly as the
/// paper specifies.
class DieHardHeap {
public:
  /// Number of size-class partitions.
  static constexpr int NumPartitions = SizeClass::NumClasses;

  /// Creates a heap per \p Options. On mmap failure the heap is unusable and
  /// every allocation returns nullptr (isValid() reports false).
  explicit DieHardHeap(const DieHardOptions &Options = DieHardOptions());

  DieHardHeap(const DieHardHeap &) = delete;
  DieHardHeap &operator=(const DieHardHeap &) = delete;
  ~DieHardHeap();

  /// Returns true if the backing reservation succeeded.
  bool isValid() const { return Heap.base() != nullptr; }

  /// DieHardMalloc (Figure 2): random-probe allocation for small sizes,
  /// mmap with guard pages for large ones. \returns nullptr when the size
  /// class is at its 1/M threshold or the request cannot be satisfied.
  void *allocate(size_t Size);

  /// DieHardFree (Figure 2): frees \p Ptr if and only if it is a currently
  /// live object at a correct slot offset; otherwise the request is ignored.
  void deallocate(void *Ptr);

  /// C realloc semantics on top of allocate/deallocate.
  void *reallocate(void *Ptr, size_t NewSize);

  /// Zero-initialized allocation (C calloc semantics, overflow-checked).
  void *allocateZeroed(size_t Count, size_t Size);

  /// Returns the usable size of the object containing \p Ptr: the rounded
  /// size-class size for small objects (for any interior pointer of a live
  /// object), the requested size for large objects, and 0 if \p Ptr is not a
  /// live heap object. This is the query the checked libc functions
  /// (Section 4.4) use to clamp writes.
  size_t getObjectSize(const void *Ptr) const;

  /// Returns the start of the live object containing \p Ptr (interior
  /// pointers allowed), or nullptr if \p Ptr is not inside a live small
  /// object. Large objects are matched only by their exact base address.
  void *getObjectStart(const void *Ptr) const;

  /// Returns true if \p Ptr lies anywhere inside the small-object heap
  /// reservation (live or not).
  bool isInHeap(const void *Ptr) const { return Heap.contains(Ptr); }

  /// Base address of the small-object reservation (nullptr if invalid).
  /// The sharded layer registers [heapBase(), heapBase() + heapBytes()) in
  /// its address-range registry to route frees to the owning shard.
  const void *heapBase() const { return Heap.base(); }

  /// Size in bytes of the small-object reservation (0 if invalid).
  size_t heapBytes() const { return Heap.size(); }

  /// Index of the partition (= size class) covering \p Ptr, or -1 if \p Ptr
  /// is outside the small-object reservation. This is the pre-lock routing
  /// query concurrent layers use to pick the partition lock before calling
  /// deallocate()/getObjectSize(); it reads only construction-time state.
  int partitionIndexOf(const void *Ptr) const;

  /// Thread-cache batch claim: up to \p MaxCount uniformly chosen slots of
  /// size class \p Class, written to \p Out in shuffled order and counted
  /// as live (see RandomizedPartition::claimRandomSlots). Callers hold the
  /// class's partition lock in concurrent configurations.
  size_t claimCachedSlots(int Class, void **Out, size_t MaxCount);

  /// Returns never-handed-out cached slots of class \p Class to their
  /// partition (see RandomizedPartition::reclaimSlots). Same locking rule.
  void reclaimCachedSlots(int Class, void *const *Ptrs, size_t Count);

  /// Validated batch free of \p Count pointers, all inside class \p Class's
  /// partition, under one lock acquisition. \returns the number freed.
  size_t deallocateBatch(int Class, void *const *Ptrs, size_t Count);

  /// Lock-free cross-thread free: pushes \p Ptr (inside class \p Class's
  /// partition) onto that partition's remote-free sidecar without taking
  /// any lock (see RandomizedPartition::remoteFree). Callable from any
  /// thread concurrently with lock-holding operations on the partition.
  void remoteFree(int Class, void *Ptr);

  /// Drains class \p Class's remote-free sidecar through the validated
  /// free path. Callers hold the class's partition lock in concurrent
  /// configurations. \returns the number of entries processed.
  size_t drainRemoteFrees(int Class);

  /// Epoch-maintenance pass over class \p Class's partition: sidecar drain
  /// plus empty-partition page return (see RandomizedPartition::maintain).
  /// Callers hold the class's partition lock in concurrent configurations.
  RandomizedPartition::MaintainOutcome maintain(int Class);

  /// Read-only access to partition \p Class: per-partition stats, fill
  /// gauges, and the live-object walk. The lock-free gauges (live(),
  /// liveBytes(), fill()) are safe to read concurrently; the rest follows
  /// the partition's locking discipline.
  const RandomizedPartition &partition(int Class) const;

  /// Number of live small objects in size class \p Class.
  size_t liveInClass(int Class) const { return partition(Class).live(); }

  /// Slot capacity of size class \p Class (before applying the 1/M bound).
  size_t slotsInClass(int Class) const { return partition(Class).slots(); }

  /// Maximum live objects allowed in \p Class (the 1/M threshold).
  size_t thresholdForClass(int Class) const {
    return partition(Class).threshold();
  }

  /// Bytes currently live (rounded sizes; includes large objects).
  size_t bytesLive() const;

  /// The heap options this instance was built with.
  const DieHardOptions &options() const { return Opts; }

  /// True when the reservation is memfd-backed and at least one partition
  /// accepted mesh binding — i.e. maintain() passes may actually mesh.
  /// False when Meshing was requested but the kernel refused memfd (the
  /// constructor fell back to a private mapping).
  bool meshingActive() const { return MeshingActive; }

  /// Behaviour counters, aggregated across the partitions and the
  /// large-object path. Not synchronized: call single-threaded or use the
  /// sharded layer's locked aggregation.
  DieHardStats stats() const;

  /// The seed actually used (after resolving Seed == 0 to a random one).
  uint64_t seed() const { return ResolvedSeed; }

  /// Visits every live small object as (size class, slot index, pointer,
  /// rounded size). Iteration order is deterministic (class-major, slot
  /// ascending), which the heap-differencing debugger relies on.
  void forEachLiveObject(
      const std::function<void(int Class, size_t Slot, const void *Ptr,
                               size_t Size)> &Visit) const;

private:
  /// Fills \p Size bytes at \p Ptr with values from the heap-level RNG
  /// (whole-heap init fill and large-object fill; partitions fill their own
  /// objects from their own streams).
  void randomFill(void *Ptr, size_t Size);

  DieHardOptions Opts;
  uint64_t ResolvedSeed = 0;
  Rng Rand; ///< Heap-level stream: init fill and large-object fill only.
  MmapRegion Heap;
  size_t PartitionSize = 0; ///< Bytes per size-class partition.
  bool MeshingActive = false; ///< Meshable backing up and bound.

  RandomizedPartition Partitions[NumPartitions];

  LargeObjectManager LargeObjects;

  // Large-object and foreign-pointer accounting. These live at the heap
  // level (not in any partition) and are only touched by the stand-alone
  // large path and by frees of pointers outside the reservation — paths the
  // sharded layer never routes into a shard, so they need no lock there.
  uint64_t LargeAllocationCount = 0;
  uint64_t LargeFreeCount = 0;
  uint64_t LargeFailedCount = 0;
  uint64_t ForeignIgnoredFrees = 0;
  uint64_t ReallocRejectCount = 0;
  size_t LargeLiveBytes = 0;
};

} // namespace diehard

#endif // DIEHARD_CORE_DIEHARDHEAP_H
