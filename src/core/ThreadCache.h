//===- core/ThreadCache.h - per-thread randomized slot cache ----*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-free malloc fast path: a per-thread, per-size-class buffer of
/// pre-claimed randomly chosen slots plus a bounded deferred-free buffer,
/// layered in front of the partitioned sharded heap (the Hoard-lineage
/// per-thread tier the paper's allocator family builds on).
///
/// A ThreadCache never chooses placement itself — every slot it holds was
/// claimed by RandomizedPartition::claimRandomSlots under the partition
/// lock, drawn by exactly the uniform probe discipline of Figure 2, so the
/// paper's randomization argument is preserved by construction. Cached
/// slots keep their bitmap bits set and stay counted in the partition's
/// live gauge, so the 1/M fill bound holds with slots sitting in caches.
/// The steady-state malloc/free is then a plain TLS array pop/push: no
/// mutex, and no shared-memory atomics (the cache's own counters are
/// relaxed atomics on thread-private cache lines, so unlocked stats
/// snapshots stay race-free at zero practical cost).
///
/// Frees — including cross-thread frees of objects owned by any shard —
/// park in the freeing thread's deferred buffer, already grouped: each
/// size class has its own segment, and the cache remembers which classes
/// hold frees and, per segment, the one owner shard its frees share (or
/// that they mix owners). When the buffer's total reaches its capacity it
/// flushes segment by segment, straight from the cache's mapping: a
/// locked batch free per home-shard segment, a lock-free sidecar splice
/// per segment owned by another shard, and a stable split by owner only
/// for a mixed segment. Free validation (double/invalid frees) still
/// happens, by the owning partition, at flush or drain time.
///
/// Lifetime: caches are created lazily on a thread's first malloc/free
/// against a caching heap, registered with the owning ShardedHeap, and
/// flushed + destroyed by a process-global pthread-key destructor at thread
/// exit. A heap that is destroyed first retires its caches (marks them
/// dead); dead caches are pruned lazily by their owner thread. All cache
/// storage is a private anonymous mapping — cache management never calls
/// malloc, so the tier is safe inside the interposition shim.
///
/// Lock hierarchy: the process-global cache registry lock may be held while
/// taking partition locks (thread-exit flush); nothing that holds a
/// partition lock ever takes the registry lock.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_CORE_THREADCACHE_H
#define DIEHARD_CORE_THREADCACHE_H

#include "core/SizeClass.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace diehard {

class ShardedHeap;
class ThreadCache;

/// Head of a heap's registry of live caches. Embedded in ShardedHeap;
/// guarded by the process-global cache registry lock in ThreadCache.cpp.
struct ThreadCacheAnchor {
  ThreadCache *Head = nullptr;
};

/// Snapshot of a heap's cache tier, taken under the registry lock.
struct ThreadCacheTally {
  uint64_t CachedSlots = 0;   ///< Claimed slots sitting in caches.
  uint64_t PendingPops = 0;   ///< Cache-served allocations not yet folded.
  uint64_t DeferredFrees = 0; ///< User frees parked in deferred buffers.
};

/// Per-thread cache bound to one (thread, heap) pair. The owner thread is
/// the only mutator; the relaxed-atomic gauges may be read by anyone. The
/// object lives in its own anonymous mapping (see create()/destroy()) and
/// holds no heap-allocated state.
///
/// This class is a dumb container: refill, flush and all locking live in
/// ShardedHeap, which is the only caller of these methods.
class ThreadCache {
public:
  /// Hard cap on K, bounding the refill and full-flush stack buffers.
  static constexpr uint32_t MaxSlotsPerClass = 256;
  /// Hard cap on the deferred buffer's total capacity. Every class segment
  /// is sized to the whole capacity (all parked frees may share one
  /// class), and a mixed segment's owner split uses one stack buffer of
  /// this many pointers.
  static constexpr uint32_t MaxDeferred = 256;

  /// deferredOwner() of a segment holding frees of more than one owner.
  static constexpr uint32_t MixedOwners = UINT32_MAX;

  /// Maps and initializes a cache for the calling thread. \p SlotsPerClass
  /// (K) sizes the per-class buffers. \returns nullptr if the mapping
  /// fails.
  static ThreadCache *create(ShardedHeap *Heap, ThreadCacheAnchor *Anchor,
                             uint64_t HeapId, uint32_t HomeShard,
                             uint32_t SlotsPerClass,
                             uint32_t DeferredCapacity);

  /// Unmaps the cache. The caller must have unlinked it from the thread
  /// list and the heap registry first.
  void destroy();

  /// Pops one cached slot of \p Class, or nullptr when the class's buffer
  /// is empty. Counts the pop.
  void *pop(int Class) {
    uint32_t N = Counts[Class].load(std::memory_order_relaxed);
    if (N == 0)
      return nullptr;
    void *Ptr = classSlots(Class)[N - 1];
    Counts[Class].store(N - 1, std::memory_order_relaxed);
    Pops.store(Pops.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    return Ptr;
  }

  /// Installs a freshly claimed batch into \p Class's (empty) buffer.
  void put(int Class, void *const *Ptrs, size_t Count);

  /// Drains \p Class's buffer into \p Out (capacity >= slotsPerClass());
  /// \returns the number of slots removed.
  size_t take(int Class, void **Out);

  /// Parks a user free of \p Ptr, owned by shard \p Owner, in class
  /// \p Class's segment. \returns false when the buffer's total is at
  /// capacity (the caller flushes and retries; a push after a flush cannot
  /// fail).
  bool pushDeferred(void *Ptr, uint32_t Owner, int Class) {
    uint32_t Used = DeferredUsed.load(std::memory_order_relaxed);
    if (Used >= DeferredCap)
      return false;
    Segment &Seg = Segments[Class];
    *Seg.End++ = Ptr;
    if (Seg.Owner != Owner)
      noteOwner(Class, Owner);
    DeferredUsed.store(Used + 1, std::memory_order_relaxed);
    return true;
  }

  /// Bit C set when class C's segment holds parked frees.
  uint32_t deferredClasses() const { return DeferredClasses; }

  /// Class \p Class's parked frees, in push order; deferredCount(Class)
  /// entries. The flush may reorder them in place.
  void **deferredSegment(int Class) {
    return DeferredBase + static_cast<size_t>(Class) * DeferredCap;
  }
  size_t deferredCount(int Class) {
    return static_cast<size_t>(Segments[Class].End - deferredSegment(Class));
  }

  /// The owner shard every free in class \p Class's segment shares, or
  /// MixedOwners. Meaningful only while the segment is non-empty.
  uint32_t deferredOwner(int Class) const { return Segments[Class].Owner; }

  /// Empties every segment (after the flush has returned their frees).
  void clearDeferred();

  /// Returns and zeroes the unfolded pop count (owner thread only; the
  /// caller folds it into the heap's aggregate).
  uint64_t takePops() {
    uint64_t N = Pops.load(std::memory_order_relaxed);
    Pops.store(0, std::memory_order_relaxed);
    return N;
  }

  /// Racy gauges for stats snapshots.
  uint64_t pendingPops() const {
    return Pops.load(std::memory_order_relaxed);
  }
  uint32_t cached(int Class) const {
    return Counts[Class].load(std::memory_order_relaxed);
  }
  size_t cachedTotal() const;
  uint32_t deferredUsed() const {
    return DeferredUsed.load(std::memory_order_relaxed);
  }

  uint32_t homeShard() const { return Home; }
  uint32_t slotsPerClass() const { return SlotCapacity; }
  uint32_t deferredCapacity() const { return DeferredCap; }

  // --- Sweeper handshake and epoch stamp (active only with the epoch
  // --- sweeper on; see ShardedHeap's sweeper documentation) ---------------

  /// Owner side, bracket entry: marks a cache operation in flight. The
  /// seq_cst store forms a Dekker pair with the sweeper's seq_cst
  /// Seized-store/InOp-load in threadCacheAgeQuiet(): either the sweeper
  /// observes the op and backs off, or the owner observes the seizure and
  /// serializes through the registry lock. Never called on the default
  /// (sweeper-off) configuration, so the lock-free fast path is untouched.
  void beginOp() { InOp.store(1, std::memory_order_seq_cst); }

  /// Owner side: true when the sweeper has (or may still hold) this cache
  /// seized; the owner must pass through threadCacheUnseize() before
  /// touching its buffers.
  bool seizedBySweeper() const {
    return Seized.load(std::memory_order_seq_cst) != 0;
  }

  /// Owner side, bracket exit.
  void endOp() { InOp.store(0, std::memory_order_release); }

  /// Stamps the owner's last-activity epoch (called at the owning heap's
  /// cache-lookup boundary, never inside pop/push themselves).
  void stampEpoch(uint64_t Epoch) {
    LastEpoch.store(Epoch, std::memory_order_relaxed);
  }
  uint64_t lastEpoch() const {
    return LastEpoch.load(std::memory_order_relaxed);
  }

private:
  ThreadCache(ShardedHeap *OwningHeap, ThreadCacheAnchor *HeapAnchor,
              uint64_t OwningHeapId, uint32_t HomeShard,
              uint32_t SlotsEachClass, uint32_t DeferredCapacity,
              size_t MappedBytes);

  friend ThreadCache *threadCacheLookup(uint64_t HeapId);
  friend ThreadCache *threadCacheInstall(ShardedHeap &Heap,
                                         ThreadCacheAnchor &Anchor,
                                         uint64_t HeapId, uint32_t HomeShard,
                                         uint32_t SlotsPerClass,
                                         uint32_t DeferredCapacity);
  friend void threadCacheRetireHeap(ThreadCacheAnchor &Anchor);
  friend ThreadCacheTally threadCacheTally(const ThreadCacheAnchor &Anchor);
  friend void threadCacheExitFlush(void *);
  friend size_t threadCacheAgeQuiet(ThreadCacheAnchor &Anchor,
                                    uint64_t Epoch);
  friend void threadCacheUnseize(ThreadCache &TC);

  /// The trailing per-class slot arrays and deferred segments live
  /// directly after the object inside its mapping.
  void **classSlots(int Class) {
    return reinterpret_cast<void **>(this + 1) +
           static_cast<size_t>(Class) * SlotCapacity;
  }
  const void *const *classSlots(int Class) const {
    return const_cast<ThreadCache *>(this)->classSlots(Class);
  }

  ShardedHeap *Heap;          ///< Valid while !HeapDead.
  ThreadCacheAnchor *Anchor;  ///< The heap's registry head.
  uint64_t HeapId;            ///< Unique per heap instance, never reused.
  uint32_t Home;              ///< The owner thread's home shard.
  uint32_t SlotCapacity;      ///< K: cached slots per size class.
  uint32_t DeferredCap;       ///< Deferred-free buffer capacity.
  size_t MapBytes;            ///< Size of the backing mapping.
  ThreadCache *NextInThread = nullptr; ///< Owner thread's cache list.
  ThreadCache *RegPrev = nullptr;      ///< Heap registry links (guarded by
  ThreadCache *RegNext = nullptr;      ///< the registry lock).

  /// Set (release, under the registry lock) when the heap is destroyed
  /// before the owner thread exits; the owner prunes dead caches lazily.
  std::atomic<bool> HeapDead{false};

  /// Cache-served allocations since the last fold into the heap aggregate.
  std::atomic<uint64_t> Pops{0};

  /// Per-class cached-slot counts. Owner-written, racy-readable.
  std::atomic<uint32_t> Counts[SizeClass::NumClasses];

  /// Occupancy of the deferred-free buffer, over all segments: the flush
  /// trigger. Owner-written, racy-readable.
  std::atomic<uint32_t> DeferredUsed{0};

  /// First deferred segment (class 0's), after the slot arrays.
  void **DeferredBase;

  /// Non-empty segments, one bit per class. Owner-only.
  uint32_t DeferredClasses = 0;

  /// deferredOwner() of an empty segment.
  static constexpr uint32_t NoOwner = UINT32_MAX - 1;

  /// Per-class segment fill cursor (one past the last parked free) and
  /// shared owner. Owner-only.
  struct Segment {
    void **End;
    uint32_t Owner;
  };
  Segment Segments[SizeClass::NumClasses];

  /// A push's owner differs from its segment's: the segment was empty (it
  /// joins DeferredClasses) or now mixes owners.
  void noteOwner(int Class, uint32_t Owner) {
    Segment &Seg = Segments[Class];
    if (Seg.Owner == NoOwner) {
      Seg.Owner = Owner;
      DeferredClasses |= 1u << Class;
    } else {
      Seg.Owner = MixedOwners;
    }
  }

  // Sweeper handshake state (quiescent zeroes with the sweeper off).
  /// Last sweep epoch at which the owner made an allocator call.
  std::atomic<uint64_t> LastEpoch{0};
  /// Owner-op-in-flight flag for the Dekker handshake with the sweeper.
  std::atomic<uint32_t> InOp{0};
  /// Set by the sweeper while it owns the cache's buffers (under the
  /// registry lock); the owner re-synchronizes through the registry lock
  /// when it observes the flag.
  std::atomic<uint32_t> Seized{0};
};

/// Returns the calling thread's cache for heap \p HeapId, or nullptr if
/// none exists yet. Prunes caches of destroyed heaps along the way.
ThreadCache *threadCacheLookup(uint64_t HeapId);

/// Creates, registers and returns the calling thread's cache for \p Heap.
/// \returns nullptr on mapping failure or re-entry (a nested allocation
/// made while the cache is being installed must take the uncached path).
ThreadCache *threadCacheInstall(ShardedHeap &Heap, ThreadCacheAnchor &Anchor,
                                uint64_t HeapId, uint32_t HomeShard,
                                uint32_t SlotsPerClass,
                                uint32_t DeferredCapacity);

/// Marks every cache registered on \p Anchor dead and empties the registry.
/// Called by ~ShardedHeap; owner threads prune the corpses lazily (their
/// slots need no flushing — the heap they point into is gone).
void threadCacheRetireHeap(ThreadCacheAnchor &Anchor);

/// Sums the live caches' gauges under the registry lock. Exact while the
/// heap is quiescent; a racy-but-race-free approximation otherwise.
ThreadCacheTally threadCacheTally(const ThreadCacheAnchor &Anchor);

/// The process-global pthread-key destructor: flushes and destroys every
/// cache of the exiting thread. Exposed only so the key can point at it.
void threadCacheExitFlush(void *);

/// Sweeper side: ages out every cache on \p Anchor whose owner has been
/// quiet for at least two sweep epochs and which still holds cached slots
/// or deferred frees — the whole cache is flushed through the owning heap's
/// ordinary full-flush path (deferred frees included) without the owner
/// thread exiting. Runs under the registry lock; each candidate is seized
/// with the Dekker handshake and skipped (not waited for) when its owner is
/// mid-operation. \returns the number of caches aged.
size_t threadCacheAgeQuiet(ThreadCacheAnchor &Anchor, uint64_t Epoch);

///// Owner side: clears this cache's seized flag, serializing with any
/// in-flight sweeper flush via the registry lock. Called when a bracketed
/// cache operation observes seizedBySweeper().
void threadCacheUnseize(ThreadCache &TC);

} // namespace diehard

#endif // DIEHARD_CORE_THREADCACHE_H
