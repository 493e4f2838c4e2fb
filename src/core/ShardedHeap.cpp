//===- core/ShardedHeap.cpp -----------------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the sharded heap: thread-token assignment, owner lookup
/// through the range array, per-partition locking, the overflow routing slow
/// path, and the large-object path through shard 0. See the header for the
/// locking discipline.
///
//===----------------------------------------------------------------------===//

#include "core/ShardedHeap.h"

#include "core/SizeClass.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>

#include <time.h>
#include <unistd.h>

namespace diehard {

namespace {

/// Monotonic source of heap-instance ids (starting at 1; 0 is the memo's
/// "empty" key). Ids are never reused, so a thread's cache memo can never
/// alias a later heap.
std::atomic<uint64_t> NextHeapId{1};

/// Monotonic source of thread tokens. Process-global (not per heap): a
/// thread keeps one token for its lifetime and maps it onto any instance's
/// shard count with a modulo, which round-robins threads across shards and
/// wraps naturally when threads outnumber shards.
std::atomic<uint32_t> NextThreadToken{0};

/// The token, offset by one so zero means "unassigned". Constant-initialized
/// POD with initial-exec TLS: reading it never allocates, which matters
/// inside the malloc shim.
#if defined(__GNUC__)
thread_local uint32_t ThreadToken __attribute__((tls_model("initial-exec"))) =
    0;
#else
thread_local uint32_t ThreadToken = 0;
#endif

/// Guards the process-global intrusive list of sweeper-enabled heaps the
/// fork handlers walk. Ordering: list lock -> sweeper pass gate; nothing
/// that holds a pass gate ever takes the list lock.
pthread_mutex_t SweeperListLock = PTHREAD_MUTEX_INITIALIZER;
ShardedHeap *SweeperListHead = nullptr;
pthread_once_t SweeperAtforkOnce = PTHREAD_ONCE_INIT;

} // namespace

size_t ShardedHeap::defaultShardCount() {
  long Cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (Cpus < 1)
    Cpus = 1;
  return static_cast<size_t>(Cpus) < MaxShards ? static_cast<size_t>(Cpus)
                                               : MaxShards;
}

ShardedHeap::ShardedHeap(const ShardedHeapOptions &Options) : Opts(Options) {
  size_t N = Opts.NumShards != 0 ? Opts.NumShards : defaultShardCount();
  if (N > MaxShards)
    N = MaxShards;

  // Every shard reserves the full configured heap size (Hoard-style). The
  // reservation is MAP_NORESERVE virtual space and the bitmaps are
  // demand-zero mappings, so unused shards cost nothing physical — while a
  // process that allocates from a single thread keeps the full capacity it
  // was configured for instead of 1/N of it.
  DieHardOptions PerShard = Opts.Heap;

  Shards.reserve(N);
  Valid = true;
  for (size_t I = 0; I < N; ++I) {
    DieHardOptions O = PerShard;
    if (Opts.Heap.Seed != 0)
      O.Seed = Rng::deriveStream(Opts.Heap.Seed, static_cast<uint64_t>(I),
                                 Rng::ShardStreamGamma);
    Shards.push_back(std::make_unique<Shard>(O));
    Valid = Valid && Shards.back()->Heap.isValid();
  }
  LargeOwner = static_cast<uint32_t>(N);

  if (Valid) {
    // Record each shard's contiguous small-object reservation; the array is
    // immutable from here on, so ownerOf() reads it without locks.
    ShardRanges.reserve(N);
    for (size_t I = 0; I < N; ++I) {
      const DieHardHeap &H = Shards[I]->Heap;
      auto Begin = reinterpret_cast<uintptr_t>(H.heapBase());
      ShardRanges.push_back(ShardRange{Begin, Begin + H.heapBytes()});
    }
  }

  Id = NextHeapId.fetch_add(1, std::memory_order_relaxed);
  if (Opts.ThreadCacheSlots != 0) {
    size_t K = Opts.ThreadCacheSlots;
    if (K > ThreadCache::MaxSlotsPerClass)
      K = ThreadCache::MaxSlotsPerClass;
    CacheSlotsPerClass = static_cast<uint32_t>(K);
    size_t D = 2 * K;
    if (D < 16)
      D = 16;
    if (D > ThreadCache::MaxDeferred)
      D = ThreadCache::MaxDeferred;
    CacheDeferredCap = static_cast<uint32_t>(D);
  }

  if (Opts.SweepIntervalMs == 0)
    Opts.SweepIntervalMs = 1;
  if (Opts.Sweeper && Valid)
    startSweeper();
}

ShardedHeap::~ShardedHeap() {
  // Join the sweeper before anything it walks (caches, partitions) goes
  // away. After this returns no other thread touches this instance.
  stopSweeper();
  // Threads using this heap are contractually done; their caches hold only
  // pointers into reservations that are about to vanish, so there is
  // nothing to flush — just orphan them. Owner threads prune the corpses
  // lazily (or at their exit).
  threadCacheRetireHeap(Caches);
}

const DieHardHeap &ShardedHeap::shard(size_t Index) const {
  return Shards[Index]->Heap;
}

uint32_t ShardedHeap::ownerOf(const void *Ptr) const {
  auto P = reinterpret_cast<uintptr_t>(Ptr);
  for (size_t I = 0; I < ShardRanges.size(); ++I)
    if (P >= ShardRanges[I].Begin && P < ShardRanges[I].End)
      return static_cast<uint32_t>(I);
  return LargeOwner;
}

size_t ShardedHeap::shardIndexOf(const void *Ptr) const {
  uint32_t Owner = ownerOf(Ptr);
  if (Owner != LargeOwner)
    return Owner;
  return sizeOfOwned(Ptr, Owner) != 0 ? numShards() : SIZE_MAX;
}

uint32_t ShardedHeap::homeShard() const {
  uint32_t T = ThreadToken;
  if (T == 0) {
    T = NextThreadToken.fetch_add(1, std::memory_order_relaxed) + 1;
    ThreadToken = T;
  }
  return (T - 1) % static_cast<uint32_t>(Shards.size());
}

void ShardedHeap::pinThreadToken(uint32_t Token) {
  // Offset by one: zero is homeShard()'s "unassigned" sentinel, so a pin
  // of token 0 must still stick (and map to shard 0).
  ThreadToken = Token + 1;
}

void *ShardedHeap::allocateSmallIn(uint32_t Index, int Class, size_t Size) {
  Shard &S = *Shards[Index];
  std::lock_guard<std::mutex> Guard(partitionLock(S, Class));
  // Opportunistic sidecar drain — the allocate-slow-path boundary. Free on
  // the common path (one relaxed load when empty), and it means a
  // partition driven to its 1/M bound recovers capacity from in-flight
  // cross-shard frees before refusing work.
  S.Heap.drainRemoteFrees(Class);
  return S.Heap.allocate(Size);
}

void *ShardedHeap::allocate(size_t Size) {
  if (!Valid || Size == 0)
    return nullptr;
  if (Size > SizeClass::MaxObjectSize)
    return allocateLarge(Size);
  int Class = SizeClass::sizeToClass(Size);

  // The lock-free fast path: pop a pre-claimed slot from the calling
  // thread's cache. On an empty class buffer, one locked batch refill; if
  // even that finds the home partition saturated, fall through to the
  // ordinary locked path, which knows how to route overflow to a sibling.
  if (CacheSlotsPerClass != 0) {
    ThreadCache *TC = cacheForThread();
    if (TC != nullptr) {
      // The guard is the owner half of the sweeper handshake; it compiles
      // to nothing when the sweeper is off.
      CacheOpGuard Bracket(*this, *TC);
      void *Ptr = TC->pop(Class);
      if (Ptr != nullptr)
        return Ptr;
      Ptr = refillAndPop(*TC, Class);
      if (Ptr != nullptr)
        return Ptr;
    }
  }

  uint32_t Home = homeShard();
  bool Route = Opts.OverflowRouting && Shards.size() > 1;

  // With routing on, a saturated home partition is a detour, not a
  // failure, so keep its FailedAllocations meaningful: skip the locked
  // attempt when the lock-free gauge already shows the 1/M bound. A stale
  // gauge read can still let a doomed attempt through — the partition
  // re-checks under its lock and counts that refusal — so remember
  // whether home already recorded this request before counting the
  // whole-request failure below.
  void *Ptr = nullptr;
  bool HomeCounted = false;
  const RandomizedPartition &HomePart = Shards[Home]->Heap.partition(Class);
  if (!Route || HomePart.live() < HomePart.threshold() ||
      HomePart.hasPendingRemoteFrees()) {
    // (A saturated gauge with sidecar entries pending still takes the
    // locked attempt: the drain inside may recover capacity.)
    Ptr = allocateSmallIn(Home, Class, Size);
    HomeCounted = Ptr == nullptr;
  }
  if (Ptr != nullptr || !Route)
    return Ptr;
  // Home partition at its 1/M bound: steal capacity from a sibling.
  Ptr = allocateOverflow(Home, Class, Size);
  if (Ptr == nullptr && !HomeCounted) {
    // The request failed as a whole (home and every viable sibling
    // saturated) and no partition counter recorded a refusal — the
    // saturated partitions were skipped by gauge — so record the failed
    // malloc here. One failed request thus counts once in the common
    // path; the only residual imprecision is a stale-gauge race letting
    // a refusal through whose request a sibling then serves, which
    // leaves a spurious partition-level count behind (benign, rare, and
    // only possible under concurrent saturation).
    OverflowFailedCount.fetch_add(1, std::memory_order_relaxed);
  }
  return Ptr;
}

void *ShardedHeap::allocateOverflow(uint32_t Home, int Class, size_t Size) {
  // Rank siblings by the target partition's fill, skipping ones whose
  // gauge already shows saturation. The gauges are relaxed atomics, so
  // this snapshot can be stale — harmless, because the chosen partition
  // re-checks its 1/M bound under its own lock. All shards share one
  // threshold (same options), so the live count alone orders fills.
  struct Candidate {
    size_t Live;
    uint32_t Index;
  };
  Candidate Candidates[MaxShards];
  size_t N = 0;
  for (uint32_t I = 0; I < Shards.size(); ++I) {
    if (I == Home)
      continue;
    const RandomizedPartition &P = Shards[I]->Heap.partition(Class);
    // Rank by live net of undrained sidecar entries: those slots free the
    // moment the candidate's lock is taken (allocateSmallIn drains first),
    // so a gauge-saturated partition with pending frees is still viable.
    size_t Live = P.live();
    uint64_t Pending = P.pendingRemoteFrees();
    Live = Pending < Live ? Live - static_cast<size_t>(Pending) : 0;
    if (Live < P.threshold())
      Candidates[N++] = {Live, I};
  }
  std::sort(Candidates, Candidates + N,
            [](const Candidate &A, const Candidate &B) {
              return A.Live < B.Live;
            });

  size_t Probes = N < MaxOverflowProbes ? N : MaxOverflowProbes;
  for (size_t K = 0; K < Probes; ++K) {
    void *Ptr = allocateSmallIn(Candidates[K].Index, Class, Size);
    if (Ptr != nullptr) {
      OverflowCount.fetch_add(1, std::memory_order_relaxed);
      return Ptr;
    }
  }
  return nullptr; // Every probed sibling is at its 1/M bound too.
}

ThreadCache *ShardedHeap::cacheForThread() {
  ThreadCache *TC = threadCacheLookup(Id);
  if (TC == nullptr)
    TC = threadCacheInstall(*this, Caches, Id, homeShard(),
                            CacheSlotsPerClass, CacheDeferredCap);
  // Activity stamp for the sweeper's aging scan: every cache operation
  // passes through here, so a thread is "quiet" exactly when it has made
  // no allocator call for two full sweep intervals. Two relaxed accesses,
  // only when the sweeper is on.
  if (TC != nullptr && SweeperOn)
    TC->stampEpoch(SweepPassCount.load(std::memory_order_relaxed));
  return TC;
}

void *ShardedHeap::refillAndPop(ThreadCache &TC, int Class) {
  Shard &S = *Shards[TC.homeShard()];
  // Lock-free gauge pre-check, mirroring the locked path's: when the home
  // partition already shows its 1/M bound, skip the doomed lock
  // round-trip — otherwise a saturated class would re-serialize every
  // same-class thread on exactly the mutex this tier exists to avoid. A
  // stale read is harmless: claimCachedSlots re-checks under the lock.
  // Pending sidecar entries override the skip: the drain below may
  // recover capacity from in-flight cross-shard frees.
  const RandomizedPartition &Part = S.Heap.partition(Class);
  if (Part.live() >= Part.threshold() && !Part.hasPendingRemoteFrees())
    return nullptr;
  void *Batch[ThreadCache::MaxSlotsPerClass];
  size_t N;
  {
    std::lock_guard<std::mutex> Guard(partitionLock(S, Class));
    // The refill boundary is a sidecar drain point: the lock is held
    // anyway, and draining first lets the claim below reuse slots that
    // cross-shard frees just returned.
    S.Heap.drainRemoteFrees(Class);
    N = S.Heap.claimCachedSlots(Class, Batch, CacheSlotsPerClass);
  }
  if (N == 0)
    return nullptr; // Home partition at its 1/M bound.
  CacheRefillCount.fetch_add(1, std::memory_order_relaxed);
  // Refill boundaries double as fold points, keeping the per-pop fast path
  // free of shared atomics while the aggregates stay at most K behind.
  FoldedPops.fetch_add(TC.takePops(), std::memory_order_relaxed);
  TC.put(Class, Batch, N);
  return TC.pop(Class);
}

void ShardedHeap::flushDeferred(ThreadCache &TC) {
  if (TC.deferredUsed() == 0)
    return;
  // The cache parked each free in its class's segment, so the groups are
  // already formed: a segment whose frees share one owner goes back as it
  // stands, with no copy. Each (owner, class) group keeps buffer order, so
  // the owning partition sees its frees — and draws its free-fill words —
  // in the order they were made; only the order across partitions differs
  // from the buffer's, and no partition's state depends on that.
  const uint32_t Home = TC.homeShard();
  for (uint32_t Mask = TC.deferredClasses(); Mask != 0; Mask &= Mask - 1) {
    const int Class = std::countr_zero(Mask);
    void **Seg = TC.deferredSegment(Class);
    size_t N = TC.deferredCount(Class);
    const uint32_t Owner = TC.deferredOwner(Class);
    if (Owner != ThreadCache::MixedOwners)
      returnDeferred(Home, Owner, Class, Seg, N);
    else
      returnMixedDeferred(Home, Class, Seg, N);
  }
  TC.clearDeferred();
  CacheFlushCount.fetch_add(1, std::memory_order_relaxed);
}

void ShardedHeap::returnMixedDeferred(uint32_t Home, int Class, void **Seg,
                                      size_t N) {
  // Split stably, one owner per pass in order of first appearance: that
  // owner's frees move to Group, the rest close up at the front of the
  // segment for the next pass.
  void *Group[ThreadCache::MaxDeferred];
  while (N != 0) {
    const uint32_t First = ownerOf(Seg[0]);
    size_t Taken = 0, Kept = 0;
    for (size_t I = 0; I < N; ++I) {
      if (ownerOf(Seg[I]) == First)
        Group[Taken++] = Seg[I];
      else
        Seg[Kept++] = Seg[I];
    }
    returnDeferred(Home, First, Class, Group, Taken);
    N = Kept;
  }
}

void ShardedHeap::returnDeferred(uint32_t Home, uint32_t Owner, int Class,
                                 void *const *Ptrs, size_t Count) {
  // A home-shard group goes back as one locked batch — those locks are the
  // cheap, rarely-contended ones, and holding one drains the sidecar for
  // free. A group owned by ANOTHER shard never touches the remote mutex:
  // it is chained and spliced onto the owning partition's lock-free
  // sidecar in one CAS, to be materialized by whoever holds that lock
  // next. Cross-shard flushing thus contends with nobody.
  Shard &S = *Shards[Owner];
  if (Owner == Home) {
    std::lock_guard<std::mutex> Guard(partitionLock(S, Class));
    S.Heap.drainRemoteFrees(Class);
    S.Heap.deallocateBatch(Class, Ptrs, Count);
  } else {
    S.Heap.remoteFreeBatch(Class, Ptrs, Count);
  }
}

void ShardedHeap::flushCacheFully(ThreadCache &TC) {
  flushDeferred(TC);
  Shard &S = *Shards[TC.homeShard()];
  void *Slots[ThreadCache::MaxSlotsPerClass];
  for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
    size_t N = TC.take(C, Slots);
    if (N == 0)
      continue;
    std::lock_guard<std::mutex> Guard(partitionLock(S, C));
    S.Heap.drainRemoteFrees(C);
    S.Heap.reclaimCachedSlots(C, Slots, N);
  }
  FoldedPops.fetch_add(TC.takePops(), std::memory_order_relaxed);
  CacheFlushCount.fetch_add(1, std::memory_order_relaxed);
}

void ShardedHeap::flushThreadCache() {
  if (CacheSlotsPerClass == 0)
    return;
  ThreadCache *TC = threadCacheLookup(Id);
  if (TC != nullptr) {
    CacheOpGuard Bracket(*this, *TC);
    flushCacheFully(*TC);
  }
}

size_t ShardedHeap::drainRemoteFrees() {
  size_t Drained = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
      if (!S->Heap.partition(C).hasPendingRemoteFrees())
        continue; // Lock-free skip; a push racing past lands next drain.
      std::lock_guard<std::mutex> Guard(partitionLock(*S, C));
      Drained += S->Heap.drainRemoteFrees(C);
    }
  return Drained;
}

uint64_t ShardedHeap::remoteFrees() const {
  uint64_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C)
      Total += S->Heap.partition(C).remoteFrees();
  return Total;
}

uint64_t ShardedHeap::pendingRemoteFrees() const {
  uint64_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C)
      Total += S->Heap.partition(C).pendingRemoteFrees();
  return Total;
}

uint64_t ShardedHeap::remoteFreeRejects() const {
  uint64_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C)
      Total += S->Heap.partition(C).remoteFreeRejects();
  return Total;
}

void *ShardedHeap::allocateLarge(size_t Size) {
  std::lock_guard<std::mutex> Guard(LargeLock);
  return Shards[0]->Heap.allocate(Size);
}

void ShardedHeap::deallocate(void *Ptr) {
  if (Ptr == nullptr)
    return;
  deferOrDeallocate(Ptr, ownerOf(Ptr));
}

void ShardedHeap::deferOrDeallocate(void *Ptr, uint32_t Owner) {
  // Small-object frees — home or cross-thread alike — park in the calling
  // thread's deferred buffer with their owner pre-resolved; validation
  // happens at flush time by the owning partition, exactly as it would
  // have at free time. Large and foreign pointers keep their locked path.
  if (CacheSlotsPerClass != 0 && Owner != LargeOwner) {
    ThreadCache *TC = cacheForThread();
    if (TC != nullptr) {
      CacheOpGuard Bracket(*this, *TC);
      int Class = Shards[Owner]->Heap.partitionIndexOf(Ptr);
      if (!TC->pushDeferred(Ptr, Owner, Class)) {
        flushDeferred(*TC);
        TC->pushDeferred(Ptr, Owner, Class); // Cannot fail after a flush.
      }
      return;
    }
  }
  deallocateOwned(Ptr, Owner);
}

void ShardedHeap::deallocateOwned(void *Ptr, uint32_t Owner) {
  if (Owner == LargeOwner) {
    deallocateLarge(Ptr);
    return;
  }
  Shard &S = *Shards[Owner];
  // The partition index derives from immutable construction-time geometry,
  // so routing to the right lock needs no lock itself.
  int Class = S.Heap.partitionIndexOf(Ptr);
  if (Owner != homeShard()) {
    // Uncached cross-shard free (cache tier off, or its install failed):
    // push onto the owning partition's lock-free sidecar instead of taking
    // a remote mutex — the same contention-free route the deferred-flush
    // path uses. Push-time validation still catches double frees; whoever
    // holds the owner's lock next (or the sweeper) materializes it.
    S.Heap.remoteFree(Class, Ptr);
    return;
  }
  std::lock_guard<std::mutex> Guard(partitionLock(S, Class));
  S.Heap.deallocate(Ptr);
}

void ShardedHeap::deallocateLarge(void *Ptr) {
  // Shard 0's large-object table validates the pointer: a live large object
  // is unmapped; an interior pointer, a double free or a foreign pointer is
  // counted once in IgnoredFrees and ignored.
  std::lock_guard<std::mutex> Guard(LargeLock);
  Shards[0]->Heap.deallocate(Ptr);
}

void *ShardedHeap::reallocate(void *Ptr, size_t NewSize) {
  if (Ptr == nullptr)
    return allocate(NewSize);
  if (NewSize == 0) {
    deallocate(Ptr);
    return nullptr;
  }
  // Resolve the owner once; the size query, the in-place check and the
  // final free all work against the same resolution.
  uint32_t Owner = ownerOf(Ptr);
  size_t OldSize = sizeOfOwned(Ptr, Owner);
  if (OldSize == 0) {
    ReallocRejectCount.fetch_add(1, std::memory_order_relaxed);
    return nullptr; // Not one of ours; refuse rather than corrupt.
  }

  // Same in-place rule as DieHardHeap: small objects may shrink (or re-grow)
  // within their rounded size class.
  if (Owner != LargeOwner && NewSize <= OldSize && NewSize > OldSize / 2)
    return Ptr;

  void *Fresh = allocate(NewSize);
  if (Fresh == nullptr)
    return nullptr;
  std::memcpy(Fresh, Ptr, OldSize < NewSize ? OldSize : NewSize);
  deferOrDeallocate(Ptr, Owner);
  return Fresh;
}

void *ShardedHeap::allocateZeroed(size_t Count, size_t Size) {
  if (Count != 0 && Size > SIZE_MAX / Count)
    return nullptr;
  size_t Total = Count * Size;
  void *Ptr = allocate(Total);
  if (Ptr != nullptr)
    std::memset(Ptr, 0, Total);
  return Ptr;
}

size_t ShardedHeap::getObjectSize(const void *Ptr) const {
  if (Ptr == nullptr)
    return 0;
  return sizeOfOwned(Ptr, ownerOf(Ptr));
}

size_t ShardedHeap::sizeOfOwned(const void *Ptr, uint32_t Owner) const {
  if (Owner == LargeOwner) {
    std::lock_guard<std::mutex> Guard(LargeLock);
    return Shards[0]->Heap.getObjectSize(Ptr);
  }
  const Shard &S = *Shards[Owner];
  int Class = S.Heap.partitionIndexOf(Ptr);
  std::lock_guard<std::mutex> Guard(partitionLock(S, Class));
  return S.Heap.partition(Class).objectSize(Ptr);
}

DieHardStats ShardedHeap::sharedCounterSnapshot() const {
  // Everything both stats() and statsApprox() read the same way: the
  // heap-level relaxed gauges (no locks anywhere). Only shard 0 serves the
  // large path, so the other shards' heap-level counters stay zero.
  DieHardStats Total;
  Shards[0]->Heap.addHeapStats(Total);
  Total.Allocations = FoldedPops.load(std::memory_order_relaxed);
  Total.CacheRefills = CacheRefillCount.load(std::memory_order_relaxed);
  Total.CacheFlushes = CacheFlushCount.load(std::memory_order_relaxed);
  Total.OverflowAllocations = OverflowCount.load(std::memory_order_relaxed);
  Total.FailedAllocations +=
      OverflowFailedCount.load(std::memory_order_relaxed);
  Total.ReallocRejects += ReallocRejectCount.load(std::memory_order_relaxed);
  Total.SweepPasses = SweepPassCount.load(std::memory_order_relaxed);
  Total.AgedCaches = AgedCacheCount.load(std::memory_order_relaxed);
  return Total;
}

DieHardStats ShardedHeap::stats() const {
  // Cache tier first (registry lock taken and released before any
  // partition lock, per the hierarchy). Pops not yet folded and deferred
  // frees not yet flushed are folded into Allocations/Frees here, so the
  // totals describe user-visible events even mid-flight.
  ThreadCacheTally Tally = threadCacheTally(Caches);
  DieHardStats Total = sharedCounterSnapshot();
  Total.CachedSlots = Tally.CachedSlots;
  Total.Allocations += Tally.PendingPops;
  Total.Frees += Tally.DeferredFrees;

  for (const std::unique_ptr<Shard> &S : Shards) {
    // One partition lock at a time, ascending class order (the only place a
    // thread may take several locks of one shard; see the lock hierarchy).
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
      std::lock_guard<std::mutex> Guard(partitionLock(*S, C));
      addPartitionStats(Total, S->Heap.partition(C));
    }
  }
  return Total;
}

DieHardStats ShardedHeap::statsApprox() const {
  DieHardStats Total = sharedCounterSnapshot();
  uint64_t Folded = Total.Allocations; // FoldedPops, per the snapshot.

  uint64_t Claimed = 0, Returned = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
      // Relaxed-gauge reads only: no partition lock, no registry lock.
      const RandomizedPartition &P = S->Heap.partition(C);
      addPartitionStats(Total, P);
      Claimed += P.stats().ClaimedSlots;
      Returned += P.stats().ReturnedSlots;
    }
  }
  // Cached = claimed - returned - popped, using the folded pop count as the
  // (lagging) pop estimate. Unsynchronized counter reads can transiently
  // order against each other, so clamp instead of wrapping.
  int64_t Cached = static_cast<int64_t>(Claimed) -
                   static_cast<int64_t>(Returned) -
                   static_cast<int64_t>(Folded);
  Total.CachedSlots = Cached > 0 ? static_cast<uint64_t>(Cached) : 0;
  return Total;
}

size_t ShardedHeap::bytesLive() const {
  // Gauges all the way down (shard 0's large live bytes included): no locks
  // needed.
  size_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    Total += S->Heap.bytesLive();
  return Total;
}

size_t ShardedHeap::liveLargeObjects() const {
  std::lock_guard<std::mutex> Guard(LargeLock);
  return Shards[0]->Heap.liveLargeObjects();
}

uint64_t ShardedHeap::seed() const { return Shards[0]->Heap.seed(); }

//===----------------------------------------------------------------------===//
// Epoch sweeper
//===----------------------------------------------------------------------===//

uint64_t ShardedHeap::pagesReturned() const {
  uint64_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C)
      Total += S->Heap.partition(C).stats().PagesReturned;
  return Total;
}

size_t ShardedHeap::sweepOnce() {
  // Callers hold the pass gate (Sweep.Lock); the pass itself takes at most
  // one other lock at a time and never blocks while holding one.
  uint64_t Epoch = SweepPassCount.load(std::memory_order_relaxed) + 1;

  // Layer 2 first: aging a quiet thread's cache returns its claimed slots
  // and pushes its parked cross-shard frees into sidecars, so the
  // partition scan below materializes them within this same pass.
  size_t Aged = threadCacheAgeQuiet(Caches, Epoch);
  if (Aged != 0)
    AgedCacheCount.fetch_add(Aged, std::memory_order_relaxed);

  // Layer 1: drain pressured partitions and run the partial page-return
  // scan on quiet ones.
  size_t Drained = 0;
  for (uint32_t I = 0; I < Shards.size(); ++I) {
    Shard &S = *Shards[I];
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
      const RandomizedPartition &P = S.Heap.partition(C);
      // Lock only when there is work: pending sidecar entries to drain,
      // or frees since the last span scan on a partition at or below the
      // fill gate (hot partitions are skipped — their bitmaps are mostly
      // set and the scan would walk memory for little gain). Replica-
      // filled partitions never pass the pre-check (their data must stay
      // resident for the fill invariant).
      if (P.hasPendingRemoteFrees() ||
          P.pageScanPending(PartialReturnFillGate)) {
        std::lock_guard<std::mutex> Guard(partitionLock(S, C));
        Drained += S.Heap.maintain(C).Drained;
      }
    }
  }

  // Publishing the epoch last means a cache stamped during this pass reads
  // at worst Epoch - 1 and still survives the aging test at Epoch + 1.
  SweepPassCount.store(Epoch, std::memory_order_relaxed);
  return Drained;
}

size_t ShardedHeap::sweepNow() {
  if (!SweeperOn)
    return 0;
  pthread_mutex_lock(&Sweep.Lock);
  size_t Drained = sweepOnce();
  pthread_mutex_unlock(&Sweep.Lock);
  return Drained;
}

void *ShardedHeap::sweeperMain(void *Arg) {
  auto *H = static_cast<ShardedHeap *>(Arg);
  SweeperState &S = H->Sweep;
  // The pass gate is held for the thread's whole life except while parked
  // in the timed wait, so a fork handler that acquires it is guaranteed
  // the sweeper is between passes (holding no other lock).
  pthread_mutex_lock(&S.Lock);
  while (!S.StopRequested) {
    timespec Deadline;
    clock_gettime(CLOCK_MONOTONIC, &Deadline);
    uint64_t Ns = static_cast<uint64_t>(Deadline.tv_nsec) +
                  static_cast<uint64_t>(H->Opts.SweepIntervalMs) * 1000000u;
    Deadline.tv_sec += static_cast<time_t>(Ns / 1000000000u);
    Deadline.tv_nsec = static_cast<long>(Ns % 1000000000u);
    int Rc = 0;
    while (!S.StopRequested && Rc != ETIMEDOUT)
      Rc = pthread_cond_timedwait(&S.Wake, &S.Lock, &Deadline);
    if (S.StopRequested)
      break;
    H->sweepOnce();
  }
  pthread_mutex_unlock(&S.Lock);
  return nullptr;
}

void ShardedHeap::startSweeper() {
  // Construction-time only; no concurrent callers. All state is embedded
  // in the heap object — starting the sweeper allocates nothing, which
  // keeps it safe inside the malloc shim.
  pthread_once(&SweeperAtforkOnce, +[] {
    pthread_atfork(sweeperAtforkPrepare, sweeperAtforkParent,
                   sweeperAtforkChild);
  });
  pthread_condattr_t Attr;
  pthread_condattr_init(&Attr);
  pthread_condattr_setclock(&Attr, CLOCK_MONOTONIC);
  pthread_cond_init(&Sweep.Wake, &Attr);
  pthread_condattr_destroy(&Attr);
  // Link into the fork-handler list before the thread can take its gate,
  // so a concurrent fork elsewhere sees either no sweeper or a fully
  // registered one.
  pthread_mutex_lock(&SweeperListLock);
  if (pthread_create(&Sweep.Thread, nullptr, sweeperMain, this) == 0) {
    Sweep.Running = true;
    SweeperOn = true;
    SweeperNext = SweeperListHead;
    SweeperListHead = this;
  }
  pthread_mutex_unlock(&SweeperListLock);
}

void ShardedHeap::stopSweeper() {
  if (!SweeperOn)
    return;
  pthread_mutex_lock(&Sweep.Lock);
  Sweep.StopRequested = true;
  bool Join = Sweep.Running;
  pthread_cond_signal(&Sweep.Wake);
  pthread_mutex_unlock(&Sweep.Lock);
  // In a forked child Running is false — the thread did not survive the
  // fork and must not be joined.
  if (Join)
    pthread_join(Sweep.Thread, nullptr);
  // Unlink only after the join: the pass gate is free, and the fork
  // handlers must never walk into a destroyed heap. List lock and pass
  // gate are never held together here (see the lock hierarchy).
  pthread_mutex_lock(&SweeperListLock);
  for (ShardedHeap **Link = &SweeperListHead; *Link != nullptr;
       Link = &(*Link)->SweeperNext) {
    if (*Link == this) {
      *Link = SweeperNext;
      break;
    }
  }
  pthread_mutex_unlock(&SweeperListLock);
}

void ShardedHeap::sweeperAtforkPrepare() {
  // List lock first, then every registered pass gate (list order). With
  // all gates held, every sweeper thread is parked between passes and
  // holds no other lock, so the child's address space cannot inherit a
  // mutex frozen mid-pass.
  pthread_mutex_lock(&SweeperListLock);
  for (ShardedHeap *H = SweeperListHead; H != nullptr; H = H->SweeperNext)
    pthread_mutex_lock(&H->Sweep.Lock);
}

void ShardedHeap::sweeperAtforkParent() {
  for (ShardedHeap *H = SweeperListHead; H != nullptr; H = H->SweeperNext)
    pthread_mutex_unlock(&H->Sweep.Lock);
  pthread_mutex_unlock(&SweeperListLock);
}

void ShardedHeap::sweeperAtforkChild() {
  // Only the forking thread exists in the child: mark each sweeper as not
  // running (nothing to join) rather than respawning it. A child that
  // wants background sweeping builds its own heap.
  for (ShardedHeap *H = SweeperListHead; H != nullptr; H = H->SweeperNext) {
    H->Sweep.Running = false;
    pthread_mutex_unlock(&H->Sweep.Lock);
  }
  pthread_mutex_unlock(&SweeperListLock);
}

} // namespace diehard
