//===- core/ShardedHeap.h - per-thread DieHard heap shards ------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-scalable front end over N independent DieHardHeap shards. The
/// paper's probabilistic-safety argument (Section 3) only requires that each
/// randomized heap place objects uniformly within its own partitions, so the
/// heap can be sharded per thread without weakening the miss-probability
/// bounds: every shard is a full M-approximation of an infinite heap for the
/// threads it serves, and the analysis in src/analysis applies per shard
/// unchanged.
///
/// Each thread is pinned to a home shard by a cheap thread-local token
/// (round-robin assignment on first allocation), so the common malloc/free
/// pattern — free on the thread that allocated — touches exactly one lock.
/// Locking is *per partition*, not per shard: a shard's DieHardHeap is
/// twelve independent RandomizedPartition objects, and each gets its own
/// cache-line-padded mutex, so two threads sharing a home shard but
/// allocating different size classes do not contend at all. (The paper's
/// analysis is stated per partition; the lock granularity just follows it.)
///
/// Frees, reallocs and size queries of pointers owned by *another* shard
/// are routed to the owner by address: shard reservations are immutable
/// after construction, so they are matched against a lock-free array of
/// ranges — and the partition index within the owner is derived from the
/// offset, again lock-free — before exactly one partition lock is taken.
/// A pointer no shard range covers goes to the large-object path. Objects
/// above SizeClass::MaxObjectSize go through shard 0's own DieHardHeap
/// large path under one LargeLock: its LargeObjectManager table is the only
/// large-object registry, and it decides whether such a pointer is a live
/// large object or a foreign one. That path touches only shard 0's
/// heap-level state (its large-object table, heap RNG and large counters),
/// never a partition, so large-object traffic never serializes small-object
/// traffic.
///
/// Overflow routing (DIEHARD_OVERFLOW): when the calling thread's home
/// partition is at its 1/M bound, the allocation is routed to the same
/// class's partition on the least-loaded sibling shard (a bounded probe in
/// ascending fill order) instead of failing. The 1/M invariant still holds
/// partition by partition — the object simply lives in a sibling's
/// M-approximated region, and frees find it through the range array like
/// any cross-thread free. Disabled, the strict per-shard bound applies and
/// saturation returns nullptr as in a lone DieHardHeap.
///
/// With NumShards == 1, behaviour is bit-identical to a lone DieHardHeap
/// with the same options: one shard, same seed, same per-class RNG streams,
/// same slots, and the same heap-level stream filling large objects in
/// replicated mode (unit tests enforce both; overflow routing never engages
/// with no siblings). Replicas run one shard so scheduling cannot perturb
/// their allocation order.
///
/// Thread-cache tier (ThreadCacheSlots > 0 / DIEHARD_TCACHE): each thread
/// fronts its home shard with a per-size-class buffer of K pre-claimed,
/// uniformly chosen slots (one locked batch claim per refill) and a bounded
/// deferred-free buffer kept grouped by size class and flushed back in
/// owner-grouped batches straight from the cache (see flushDeferred()),
/// so the steady-state malloc/free takes no lock at all. Cached slots stay
/// counted against the owning partition's 1/M bound; refills draw from
/// exactly allocate()'s distribution, so the paper's invariants survive
/// unchanged (see ThreadCache.h). ShardedHeap owns cache registration,
/// refill/flush, thread-exit flush and the cache-aware stats.
///
/// Remote-free sidecars: every small-object free owned by a shard other
/// than the freeing thread's home — a deferred-flush group with the cache
/// tier on, or an individual uncached free with it off — is NOT returned
/// under the remote partition's lock. It is pushed onto the owning
/// partition's lock-free MPSC sidecar instead — a flush group as one chain
/// spliced in with a single CAS (RandomizedPartition::remoteFreeBatch) —
/// so a cross-shard free performs zero acquisitions of any remote mutex.
/// Whoever next takes that partition's lock for its own reasons — a
/// refill, a locked allocation, a same-shard flush batch, a sweeper pass,
/// an explicit drainRemoteFrees() — drains the sidecar through the
/// ordinary validated free path. Same-shard frees
/// keep the locked path (the home locks are the cheap, mostly-uncontended
/// ones).
///
/// Epoch sweeper (Sweeper / DIEHARD_SWEEPER): an optional background
/// maintenance thread that wakes every SweepIntervalMs and runs one pass
/// over all four layers. A pass (1) ages out thread caches whose owners
/// have been quiet for two full epochs — the whole cache (deferred frees
/// included) flushes through the ordinary full-flush path without the
/// owner thread exiting; and (2) runs RandomizedPartition::maintain() on
/// every partition with pending sidecar entries, or with frees since its
/// last span scan and a fill at or below PartialReturnFillGate. In-flight
/// cross-shard frees materialize, and the span scanner hands the data
/// pages lying wholly inside runs of free slots back to the OS (the bitmap
/// metadata is untouched, so the 1/M bound and free validation are
/// unchanged).
///
/// Safety of foreign-cache aging rests on a Dekker-style handshake, active
/// only when the sweeper is configured: every owner cache operation is
/// bracketed by a seq_cst InOp store and a Seized check, and the sweeper
/// (under the registry lock) publishes Seized with seq_cst before reading
/// InOp — whichever side loses the race backs off (the sweeper skips the
/// cache; the owner serializes through the registry lock). The default
/// configuration never executes the bracket, and the pop/push operations
/// themselves never stamp epochs — activity stamps happen at the
/// cache-lookup boundary around them — so the lock-free fast path is
/// untouched either way. The sweeper allocates nothing (its state is
/// embedded in the heap; glibc mmaps the thread stack), making it safe
/// under the malloc shim, and fork is handled with pthread_atfork: the
/// prepare hook holds every sweeper's pass gate across the fork, so the
/// child inherits no mid-pass state; the child simply has no sweeper
/// thread (it is not respawned — a documented limitation matching the
/// usual fork-then-exec pattern).
///
/// Lock ordering: sweeper list lock -> sweeper pass gate -> cache registry
/// lock -> partition lock, and LargeLock is a leaf lock (the
/// registry lock is only ever combined with partition locks, by the
/// thread-exit flush and the sweeper's cache aging; stats() takes it and
/// releases it before touching partitions; the sweeper's pass gate is held
/// across a whole pass, and the list lock only by start/stop/fork
/// handlers). A thread holds at most one partition lock at a time — the
/// sweeper included — with one exception:
/// the stats()/aggregation paths may hold several partition locks *of the
/// same shard* acquired in ascending class order (never locks of two
/// different shards). Overflow routing takes sibling partition locks only
/// after releasing the home partition's lock. Sidecar pushes and the
/// pending gauges are lock-free and sit outside the hierarchy entirely;
/// sidecar drains happen only under the drained partition's lock. The
/// sweeper never holds any lock across a blocking call: its
/// pthread_cond_timedwait releases the pass gate, and every lock it takes
/// during a pass is released before the next wait. LargeLock is a leaf:
/// nothing that runs under it takes another heap lock or allocates through
/// the global allocator — the large-object validity table is mmap-backed
/// precisely so that, under the malloc shim, the locked large path can
/// never re-enter itself.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_CORE_SHARDEDHEAP_H
#define DIEHARD_CORE_SHARDEDHEAP_H

#include "core/DieHardHeap.h"
#include "core/ThreadCache.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include <pthread.h>

namespace diehard {

/// Configuration for a ShardedHeap.
struct ShardedHeapOptions {
  /// Per-heap options applied to every shard. Each shard reserves the full
  /// HeapSize, so a thread keeps the configured capacity no matter how
  /// allocations distribute across threads; the cost is virtual address
  /// space (MAP_NORESERVE) and lazily-committed bitmap pages, not physical
  /// memory. Seed seeds shard 0 exactly; shard i derives a decorrelated
  /// stream (Seed of 0 still draws true randomness per shard).
  DieHardOptions Heap;

  /// Number of shards. 0 selects one shard per online CPU. Values are
  /// clamped to [1, MaxShards].
  size_t NumShards = 0;

  /// When a thread's home partition is at its 1/M bound, route the
  /// allocation to the least-loaded sibling shard's same-class partition
  /// instead of failing (see the file comment). No effect with one shard.
  /// The shim maps DIEHARD_OVERFLOW onto this.
  bool OverflowRouting = true;

  /// K: per-thread, per-size-class cached slot count. 0 (default) disables
  /// the thread-cache tier entirely, leaving every operation on the locked
  /// paths — and small-object placement bit-identical to a lone
  /// DieHardHeap in the single-shard configuration. Nonzero enables the
  /// lock-free fast path: batches of K uniformly chosen slots per refill,
  /// and a deferred-free buffer of 2K entries (clamped to
  /// [ThreadCache minimums, ThreadCache::Max*]). The shim maps
  /// DIEHARD_TCACHE onto this.
  size_t ThreadCacheSlots = 0;

  /// Start the background epoch sweeper (see the file comment): periodic
  /// sidecar drains, quiet-cache aging, and the span scanner's page return
  /// on partitions at or below PartialReturnFillGate.
  /// Off by default — and the shim forces it off for replicas, whose
  /// per-seed determinism a concurrent maintenance thread would perturb.
  /// The shim maps DIEHARD_SWEEPER onto this.
  bool Sweeper = false;

  /// Milliseconds between sweeper passes. The shim maps DIEHARD_SWEEP_MS
  /// onto this; clamped to >= 1.
  uint32_t SweepIntervalMs = 100;
};

/// Thread-scalable sharded DieHard heap.
///
/// All public methods are thread-safe. Per-partition behaviour (placement
/// randomization, 1/M thresholds, free validation) is delegated to
/// DieHardHeap's RandomizedPartition objects; this layer only adds routing
/// and locking.
class ShardedHeap {
public:
  /// Upper bound on NumShards; keeps token arithmetic and the per-shard
  /// reservation split sane on absurd inputs.
  static constexpr size_t MaxShards = 64;

  /// Overflow routing probes at most this many sibling shards (least
  /// loaded first) before giving up. Bounds the worst-case work of an
  /// allocation at saturation.
  static constexpr size_t MaxOverflowProbes = 8;

  /// Creates the shards per \p Options. As with DieHardHeap, a reservation
  /// failure leaves the heap unusable rather than throwing: isValid() turns
  /// false and every allocation returns nullptr.
  explicit ShardedHeap(
      const ShardedHeapOptions &Options = ShardedHeapOptions());

  ShardedHeap(const ShardedHeap &) = delete;
  ShardedHeap &operator=(const ShardedHeap &) = delete;
  ~ShardedHeap();

  /// True if every shard's backing reservation succeeded.
  bool isValid() const { return Valid; }

  /// Allocates \p Size bytes from the calling thread's home shard — or, if
  /// the home partition is saturated and overflow routing is on, from the
  /// least-loaded sibling shard's same-class partition — or from shard 0's
  /// large-object path when \p Size exceeds SizeClass::MaxObjectSize.
  /// \returns nullptr on failure, as DieHardHeap.
  void *allocate(size_t Size);

  /// Frees \p Ptr on whichever shard owns it, regardless of which thread
  /// allocated it. Invalid, double and foreign frees are validated by the
  /// owner and ignored, exactly as in DieHardHeap.
  void deallocate(void *Ptr);

  /// C realloc semantics. The object may migrate between shards (the new
  /// block comes from the calling thread's home shard) and across the
  /// small/large boundary.
  void *reallocate(void *Ptr, size_t NewSize);

  /// Zero-initialized allocation (C calloc semantics, overflow-checked).
  void *allocateZeroed(size_t Count, size_t Size);

  /// Usable size of the object containing \p Ptr (see
  /// DieHardHeap::getObjectSize), 0 if \p Ptr is not a live object of any
  /// shard.
  size_t getObjectSize(const void *Ptr) const;

  /// Number of shards (resolved; never 0).
  size_t numShards() const { return Shards.size(); }

  /// Read-only access to shard \p Index's heap, for tests and diagnostics.
  /// The partition fill gauges (live()/liveBytes()/fill()) are safe
  /// concurrently; everything else only when no other thread is mutating
  /// the heap.
  const DieHardHeap &shard(size_t Index) const;

  /// Index of the shard owning \p Ptr, numShards() for the base address of
  /// a live large object, or SIZE_MAX otherwise (interior pointers into
  /// large objects included).
  size_t shardIndexOf(const void *Ptr) const;

  /// The calling thread's home shard index.
  size_t homeShardIndex() const { return homeShard(); }

  /// Pins the calling thread's shard token so its home shard becomes
  /// Token % numShards() on every ShardedHeap, replacing whatever token
  /// the thread had (or would have been handed by the process-global
  /// round-robin). Replay harnesses call this — tokens are normally
  /// assigned first-come-first-served across the whole process, so a
  /// thread's home shard depends on how many threads allocated before it
  /// since process start; pinning removes that ambient history from the
  /// placement sequence and makes (input, seed) a complete replay key.
  static void pinThreadToken(uint32_t Token);

  /// Behaviour counters aggregated across every shard, the large-object
  /// path and the thread-cache tier (including OverflowAllocations and the
  /// Cache* fields). Takes each partition lock briefly plus the cache
  /// registry lock; intended for tests and reporting, not hot paths. Exact
  /// when the heap is quiescent; Allocations includes cache-served pops and
  /// Frees includes deferred (not-yet-flushed) frees, so the
  /// Allocations == Frees invariant holds whenever every user object has
  /// been freed, flushed or not.
  DieHardStats stats() const;

  /// Lock-free approximation of stats(): every field is assembled from
  /// relaxed-atomic gauges without taking any partition lock or the cache
  /// registry lock, so observability never contends with allocation. With
  /// the cache tier active, Allocations lags stats() by at most the pops
  /// not yet folded (one refill per thread), Frees by the deferred buffers'
  /// occupancy, and CachedSlots is an overestimate clamped at 0 under
  /// concurrent refills. Equal to stats() when the heap is quiescent and
  /// every cache has been flushed.
  DieHardStats statsApprox() const;

  /// Slots currently claimed into thread caches (exact, under the cache
  /// registry lock). The satellite gauge for "no leaked cached slots":
  /// after every caching thread has exited (or flushed), this is 0.
  size_t cachedSlots() const {
    return threadCacheTally(Caches).CachedSlots;
  }

  /// Flushes the calling thread's cache for this heap, if any: deferred
  /// frees are returned to their owning partitions and unused cached slots
  /// are reclaimed. The cache stays installed (and refills on next use).
  void flushThreadCache();

  /// Drains every partition's remote-free sidecar (one partition lock at a
  /// time), materializing all in-flight cross-shard frees. Allocation
  /// paths drain opportunistically, so this is only needed to force
  /// quiescence — tests, teardown audits, the stats dump. \returns the
  /// number of entries drained.
  size_t drainRemoteFrees();

  /// Sidecar pushes accepted across all partitions. Lock-free read.
  uint64_t remoteFrees() const;

  /// Sidecar pushes not yet drained, across all partitions. Lock-free.
  uint64_t pendingRemoteFrees() const;

  /// Push-time sidecar rejects (double/invalid cross-shard frees caught at
  /// the CAS, before ever reaching a partition lock), across all
  /// partitions. Already folded into stats().IgnoredFrees; exposed
  /// separately so tests can pin down *which* path caught an injected
  /// error. Lock-free read.
  uint64_t remoteFreeRejects() const;

  /// Internal: full flush of a cache whose owner is not running it — on
  /// behalf of the thread-exit destructor (threadCacheExitFlush) or the
  /// sweeper's aging of a seized cache (threadCacheAgeQuiet), both under
  /// the cache registry lock. Not part of the public surface.
  void flushCacheFromRegistry(ThreadCache &TC) { flushCacheFully(TC); }

  /// Runs one synchronous sweeper pass on the calling thread (serialized
  /// with the background thread through the pass gate). Only meaningful
  /// with Options.Sweeper on; tests pair it with a long SweepIntervalMs to
  /// drive deterministic epochs. The caller must hold no heap lock.
  /// \returns the number of sidecar entries the pass drained.
  size_t sweepNow();

  /// Completed sweeper passes (the epoch counter). Lock-free read.
  uint64_t sweepPasses() const {
    return SweepPassCount.load(std::memory_order_relaxed);
  }

  /// Quiet thread caches aged out by the sweeper. Lock-free read.
  uint64_t agedCaches() const {
    return AgedCacheCount.load(std::memory_order_relaxed);
  }

  /// Object-free data pages returned to the OS by the span scanner, across
  /// all shards. Lock-free read.
  uint64_t pagesReturned() const;

  /// Fill-ratio gate for the sweeper's partial page return: partitions
  /// fuller than this are skipped by the pass (a mostly-set bitmap walk
  /// finds few releasable pages for its cost; the partition will be
  /// scanned once it quiets down). Exposed so tests can pin workloads on
  /// either side of the gate.
  static constexpr double PartialReturnFillGate = 0.5;

  /// True when the epoch sweeper is configured and its thread started.
  bool sweeperEnabled() const { return SweeperOn; }

  /// Allocations that were served by a sibling shard because the home
  /// partition was at its 1/M bound. Lock-free read.
  uint64_t overflowAllocations() const {
    return OverflowCount.load(std::memory_order_relaxed);
  }

  /// Small allocations that failed outright with overflow routing on (home
  /// and every probed sibling saturated). Folded into
  /// stats().FailedAllocations; exposed separately for exactly-once
  /// counter tests. Lock-free read.
  uint64_t overflowFailedAllocations() const {
    return OverflowFailedCount.load(std::memory_order_relaxed);
  }

  /// Wild reallocs refused: reallocate() of a pointer no shard or large
  /// object owns returns nullptr without touching any state, and counts
  /// here (and in stats().ReallocRejects). Lock-free read.
  uint64_t reallocRejects() const {
    return ReallocRejectCount.load(std::memory_order_relaxed);
  }

  /// Fill level of class \p Class on shard \p ShardIndex relative to its
  /// 1/M threshold, in [0, 1]. Lock-free gauge (see
  /// RandomizedPartition::fill).
  double partitionFill(size_t ShardIndex, int Class) const {
    return shard(ShardIndex).partition(Class).fill();
  }

  /// Bytes currently live across all shards and large objects.
  size_t bytesLive() const;

  /// Number of live large objects.
  size_t liveLargeObjects() const;

  /// The resolved seed of shard 0 (equal to DieHardHeap::seed() of a
  /// single-shard heap with the same options).
  uint64_t seed() const;

  /// The options this instance was built with (NumShards as passed, possibly
  /// 0; numShards() reports the resolved count).
  const ShardedHeapOptions &options() const { return Opts; }

  /// One shard per online CPU, clamped to [1, MaxShards].
  static size_t defaultShardCount();

private:
  /// A mutex alone on its cache lines so partition locks never false-share
  /// with each other or with the heap they guard.
  struct alignas(64) PaddedMutex {
    mutable std::mutex M;
  };

  /// A DieHardHeap plus one lock per size-class partition.
  struct Shard {
    explicit Shard(const DieHardOptions &HeapOpts) : Heap(HeapOpts) {}
    PaddedMutex Locks[DieHardHeap::NumPartitions];
    DieHardHeap Heap;
  };

  /// The lock guarding partition \p Class of \p S.
  static std::mutex &partitionLock(const Shard &S, int Class) {
    return S.Locks[Class].M;
  }

  /// Returns the calling thread's home shard index (assigning a token on
  /// first use).
  uint32_t homeShard() const;

  /// Resolves the owner of \p Ptr: a shard index, or LargeOwner when no
  /// shard reservation covers it (a large object or a foreign pointer, which
  /// the large path tells apart). Lock-free: shard reservations are matched
  /// against the immutable range array.
  uint32_t ownerOf(const void *Ptr) const;

  /// getObjectSize / deallocate against an already-resolved owner.
  size_t sizeOfOwned(const void *Ptr, uint32_t Owner) const;
  void deallocateOwned(void *Ptr, uint32_t Owner);

  /// Free with an already-resolved owner, parking small-object frees in
  /// the calling thread's deferred buffer when the cache tier is on;
  /// everything else (large, foreign, no cache) goes to deallocateOwned.
  void deferOrDeallocate(void *Ptr, uint32_t Owner);

  /// The calling thread's cache, created on first use; nullptr when the
  /// tier is disabled or installation failed (callers use the locked
  /// paths).
  ThreadCache *cacheForThread();

  /// Refills \p TC's class-\p Class buffer with one locked batch claim of
  /// K slots from the home partition (draining the partition's sidecar
  /// first, since the lock is held anyway) and pops the first slot.
  /// \returns nullptr if the home partition is saturated (the
  /// caller falls back to the locked path, which may route overflow to a
  /// sibling).
  void *refillAndPop(ThreadCache &TC, int Class);

  /// Returns every deferred free to its owning partition, walking the
  /// cache's non-empty class segments. A segment whose frees share one
  /// owner goes straight from the cache's mapping to returnDeferred(); only
  /// a mixed-owner segment is split, stably, by owner first.
  void flushDeferred(ThreadCache &TC);

  /// Returns class \p Class's mixed-owner segment (\p N frees at \p Seg),
  /// split stably by owner, one returnDeferred() per owner. Out of line so
  /// that its stack buffer deepens the stack only when a segment mixes
  /// owners, not on every flush.
  [[gnu::noinline]] void returnMixedDeferred(uint32_t Home, int Class,
                                             void **Seg, size_t N);

  /// Returns one (owner, class) group of deferred frees: a locked batch
  /// free when \p Owner is the flushing thread's \p Home shard, one
  /// lock-free sidecar splice otherwise.
  void returnDeferred(uint32_t Home, uint32_t Owner, int Class,
                      void *const *Ptrs, size_t Count);

  /// flushDeferred plus reclamation of all unused cached slots and a fold
  /// of the cache's counters into the heap aggregates.
  void flushCacheFully(ThreadCache &TC);

  /// The heap-level relaxed gauges common to stats() and statsApprox()
  /// (shard 0's large path and foreign frees, overflow, cache refill/flush
  /// counters, folded pops). Lock-free.
  DieHardStats sharedCounterSnapshot() const;

  /// Locks class \p Class of shard \p Index and allocates \p Size bytes.
  void *allocateSmallIn(uint32_t Index, int Class, size_t Size);

  /// The overflow slow path: \p Home's class-\p Class partition refused the
  /// allocation; probe up to MaxOverflowProbes sibling shards in ascending
  /// fill order, ranked from the live gauges net of pending sidecar
  /// entries. \returns nullptr if every probed sibling is saturated too.
  void *allocateOverflow(uint32_t Home, int Class, size_t Size);

  // --- Epoch sweeper (see the file comment) -------------------------------

  /// Starts/stops the background sweeper thread (constructor tail /
  /// destructor head; the stop precedes cache retirement so the sweeper
  /// can never touch a dying registry).
  void startSweeper();
  void stopSweeper();

  /// One maintenance pass: age quiet caches, maintain every pressured
  /// partition (one partition lock at a time), advance the epoch. Runs
  /// with the pass gate held. \returns sidecar entries drained.
  size_t sweepOnce();

  /// The sweeper thread body: timed waits on the pass gate interleaved
  /// with sweepOnce() until stop is requested.
  static void *sweeperMain(void *Arg);

  /// Fork handlers: prepare holds the list lock and every sweeper's pass
  /// gate across the fork (no sweeper is mid-pass in the child); the child
  /// marks every sweeper thread as gone — sweepers are not respawned after
  /// fork.
  static void sweeperAtforkPrepare();
  static void sweeperAtforkParent();
  static void sweeperAtforkChild();

  /// Large-object path through shard 0's DieHardHeap under LargeLock
  /// (allocateLarge: caller verified Size > SizeClass::MaxObjectSize).
  void *allocateLarge(size_t Size);
  void deallocateLarge(void *Ptr);

  ShardedHeapOptions Opts;
  bool Valid = false;
  std::vector<std::unique_ptr<Shard>> Shards;

  /// Owner id meaning "owned by no shard" (== numShards()).
  uint32_t LargeOwner = 0;

  /// One [begin, end) per shard, fixed at construction and read without
  /// locks by ownerOf().
  struct ShardRange {
    uintptr_t Begin;
    uintptr_t End;
  };
  std::vector<ShardRange> ShardRanges;

  /// Serializes shard 0's heap-level members (large-object table, heap RNG,
  /// large counters); the only path that touches them.
  mutable std::mutex LargeLock;

  // --- Thread-cache tier ---------------------------------------------------

  /// Unique id of this heap instance (never reused), the key thread-local
  /// cache memos match against.
  uint64_t Id = 0;

  /// Resolved per-class cache batch size K (0 = tier disabled) and
  /// deferred buffer capacity.
  uint32_t CacheSlotsPerClass = 0;
  uint32_t CacheDeferredCap = 0;

  /// Registry of this heap's live caches (guarded by the process-global
  /// cache registry lock in ThreadCache.cpp).
  ThreadCacheAnchor Caches;

  /// Cache-tier aggregates. Pops fold in at refill/flush boundaries so the
  /// per-allocation fast path touches no shared atomics. Every thread writes
  /// them at each refill and flush, so they start a cache line of their
  /// own: on the line of Id and CacheSlotsPerClass, which every malloc and
  /// free reads, they would bounce that line between cores.
  alignas(64) std::atomic<uint64_t> FoldedPops{0};
  std::atomic<uint64_t> CacheRefillCount{0};
  std::atomic<uint64_t> CacheFlushCount{0};

  /// Allocations served by a sibling shard (home partition saturated).
  std::atomic<uint64_t> OverflowCount{0};

  /// Small allocations that failed outright with routing on (home and
  /// every viable sibling saturated). Saturated partitions are skipped by
  /// gauge on this path, so their FailedAllocations counters stay
  /// meaningful ("refusals the caller saw"), and the whole-request
  /// failure is recorded here instead.
  std::atomic<uint64_t> OverflowFailedCount{0};

  /// Wild reallocs refused (pointer owned by no shard or large object).
  std::atomic<uint64_t> ReallocRejectCount{0};

  // --- Epoch sweeper state -------------------------------------------------

  /// Embedded sweeper thread state: no allocation anywhere in sweeper
  /// bookkeeping (shim-safe). The pass gate (Lock) is held for the whole
  /// of every pass and released inside the timed wait between passes,
  /// which is exactly what the fork prepare handler and sweepNow()
  /// serialize against.
  struct SweeperState {
    pthread_t Thread{};
    pthread_mutex_t Lock = PTHREAD_MUTEX_INITIALIZER;
    pthread_cond_t Wake = PTHREAD_COND_INITIALIZER;
    /// The thread exists and must be joined. Cleared only by stopSweeper()
    /// and by the atfork child handler (the thread does not survive fork).
    bool Running = false;
    bool StopRequested = false;
  };
  SweeperState Sweep;

  /// True once the sweeper thread started; constant afterwards. Gates the
  /// owner-side op brackets, so the default configuration pays nothing.
  bool SweeperOn = false;

  /// Intrusive link in the process-global list of sweeper-enabled heaps
  /// (for the fork handlers). Guarded by the list lock in ShardedHeap.cpp.
  ShardedHeap *SweeperNext = nullptr;

  /// Completed sweeper passes; doubles as the cache-aging epoch.
  std::atomic<uint64_t> SweepPassCount{0};

  /// Quiet caches aged out by the sweeper.
  std::atomic<uint64_t> AgedCacheCount{0};

  /// RAII owner-side bracket for the sweeper handshake; a no-op until the
  /// sweeper is on.
  class CacheOpGuard {
  public:
    CacheOpGuard(const ShardedHeap &H, ThreadCache &Cache)
        : Active(H.SweeperOn), TC(Cache) {
      if (!Active)
        return;
      TC.beginOp();
      if (TC.seizedBySweeper())
        threadCacheUnseize(TC);
    }
    ~CacheOpGuard() {
      if (Active)
        TC.endOp();
    }
    CacheOpGuard(const CacheOpGuard &) = delete;
    CacheOpGuard &operator=(const CacheOpGuard &) = delete;

  private:
    bool Active;
    ThreadCache &TC;
  };
};

} // namespace diehard

#endif // DIEHARD_CORE_SHARDEDHEAP_H
