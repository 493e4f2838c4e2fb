//===- core/ThreadCache.cpp -----------------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadCache storage management and the process-global cache registry:
/// per-thread lookup with a one-entry memo, lazy installation, the
/// pthread-key thread-exit flush, and heap retirement. See the header for
/// the lifetime rules and the lock hierarchy.
///
//===----------------------------------------------------------------------===//

#include "core/ThreadCache.h"

#include "core/ShardedHeap.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <new>

#include <pthread.h>
#include <sys/mman.h>

namespace diehard {

namespace {

/// Guards every heap's cache registry (the ThreadCacheAnchor lists and the
/// HeapDead flags). Taken only on the cold paths — cache creation, thread
/// exit, heap destruction, stats — never on malloc/free themselves. May be
/// held while taking partition locks (exit flush); never the reverse.
pthread_mutex_t RegistryLock = PTHREAD_MUTEX_INITIALIZER;

/// One process-global key whose destructor flushes and destroys all of the
/// exiting thread's caches. Created once, never deleted, so there is no
/// key-reuse hazard across heap lifetimes.
pthread_key_t ExitKey;
pthread_once_t ExitKeyOnce = PTHREAD_ONCE_INIT;

// Constant-initialized POD TLS (initial-exec where available): reading it
// never allocates, which matters inside the malloc shim.
#if defined(__GNUC__)
#define DIEHARD_TLS_MODEL __attribute__((tls_model("initial-exec")))
#else
#define DIEHARD_TLS_MODEL
#endif

/// The calling thread's caches, one per heap it has touched (singly linked;
/// owner-thread access only).
thread_local ThreadCache *ThreadCaches DIEHARD_TLS_MODEL = nullptr;

/// One-entry memo making the common lookup (one heap per process, as under
/// the shim) a single TLS load + compare. Heap ids are unique per instance
/// and never reused, so a stale memo can never alias a new heap.
struct CacheMemo {
  uint64_t HeapId;
  ThreadCache *Cache;
};
thread_local CacheMemo Memo DIEHARD_TLS_MODEL = {0, nullptr};

/// Re-entry guard: an allocation made *while* a cache is being installed
/// (e.g. glibc's pthread_setspecific second-level block) must take the
/// uncached path instead of recursing into installation.
thread_local bool Installing DIEHARD_TLS_MODEL = false;

void createExitKey() {
  pthread_key_create(&ExitKey, threadCacheExitFlush);
}

} // namespace

void threadCacheExitFlush(void *) {
  pthread_mutex_lock(&RegistryLock);
  ThreadCache *TC = ThreadCaches;
  ThreadCaches = nullptr;
  Memo = {0, nullptr};
  while (TC != nullptr) {
    ThreadCache *Next = TC->NextInThread;
    if (!TC->HeapDead.load(std::memory_order_acquire)) {
      // The heap outlives us: return every cached slot and deferred free,
      // then drop out of its registry. Partition locks are taken under the
      // registry lock here — the documented hierarchy.
      TC->Heap->flushCacheFromRegistry(*TC);
      if (TC->RegPrev != nullptr)
        TC->RegPrev->RegNext = TC->RegNext;
      else
        TC->Anchor->Head = TC->RegNext;
      if (TC->RegNext != nullptr)
        TC->RegNext->RegPrev = TC->RegPrev;
    }
    TC->destroy();
    TC = Next;
  }
  pthread_mutex_unlock(&RegistryLock);
}

ThreadCache *ThreadCache::create(ShardedHeap *Heap,
                                 ThreadCacheAnchor *Anchor, uint64_t HeapId,
                                 uint32_t HomeShard, uint32_t SlotsPerClass,
                                 uint32_t DeferredCapacity) {
  assert(SlotsPerClass >= 1 && SlotsPerClass <= MaxSlotsPerClass);
  assert(DeferredCapacity >= 1 && DeferredCapacity <= MaxDeferred);
  size_t Bytes = sizeof(ThreadCache) +
                 static_cast<size_t>(SizeClass::NumClasses) *
                     (SlotsPerClass + DeferredCapacity) * sizeof(void *);
  Bytes = (Bytes + 4095) & ~size_t(4095);
  // A dedicated anonymous mapping: no malloc (shim-safe), demand-zero, and
  // naturally page-aligned for the trailing arrays.
  void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    return nullptr;
  return new (Mem) ThreadCache(Heap, Anchor, HeapId, HomeShard,
                               SlotsPerClass, DeferredCapacity, Bytes);
}

ThreadCache::ThreadCache(ShardedHeap *OwningHeap,
                         ThreadCacheAnchor *HeapAnchor,
                         uint64_t OwningHeapId, uint32_t HomeShard,
                         uint32_t SlotsEachClass,
                         uint32_t DeferredCapacity, size_t MappedBytes)
    : Heap(OwningHeap), Anchor(HeapAnchor), HeapId(OwningHeapId),
      Home(HomeShard), SlotCapacity(SlotsEachClass),
      DeferredCap(DeferredCapacity), MapBytes(MappedBytes),
      DeferredBase(classSlots(SizeClass::NumClasses)) {
  for (int C = 0; C < SizeClass::NumClasses; ++C)
    Segments[C] = {deferredSegment(C), NoOwner};
}

void ThreadCache::destroy() {
  size_t Bytes = MapBytes;
  this->~ThreadCache();
  ::munmap(this, Bytes);
}

void ThreadCache::put(int Class, void *const *Ptrs, size_t Count) {
  assert(Counts[Class].load(std::memory_order_relaxed) == 0 &&
         "refill only lands in an empty class buffer");
  assert(Count <= SlotCapacity);
  std::memcpy(classSlots(Class), Ptrs, Count * sizeof(void *));
  Counts[Class].store(static_cast<uint32_t>(Count),
                      std::memory_order_relaxed);
}

size_t ThreadCache::take(int Class, void **Out) {
  uint32_t N = Counts[Class].load(std::memory_order_relaxed);
  if (N != 0) {
    std::memcpy(Out, classSlots(Class), N * sizeof(void *));
    Counts[Class].store(0, std::memory_order_relaxed);
  }
  return N;
}

void ThreadCache::clearDeferred() {
  for (uint32_t Mask = DeferredClasses; Mask != 0; Mask &= Mask - 1) {
    int C = std::countr_zero(Mask);
    Segments[C] = {deferredSegment(C), NoOwner};
  }
  DeferredClasses = 0;
  DeferredUsed.store(0, std::memory_order_relaxed);
}

size_t ThreadCache::cachedTotal() const {
  size_t Total = 0;
  for (int C = 0; C < SizeClass::NumClasses; ++C)
    Total += Counts[C].load(std::memory_order_relaxed);
  return Total;
}

ThreadCache *threadCacheLookup(uint64_t HeapId) {
  if (Memo.HeapId == HeapId)
    return Memo.Cache;
  ThreadCache **Link = &ThreadCaches;
  while (*Link != nullptr) {
    ThreadCache *TC = *Link;
    if (TC->HeapDead.load(std::memory_order_acquire)) {
      // The heap died first; the corpse holds nothing worth flushing.
      // Unlink (owner-thread list, no lock needed) and unmap.
      *Link = TC->NextInThread;
      if (Memo.Cache == TC)
        Memo = {0, nullptr};
      TC->destroy();
      continue;
    }
    if (TC->HeapId == HeapId) {
      Memo = {HeapId, TC};
      return TC;
    }
    Link = &TC->NextInThread;
  }
  return nullptr;
}

ThreadCache *threadCacheInstall(ShardedHeap &Heap,
                                ThreadCacheAnchor &Anchor, uint64_t HeapId,
                                uint32_t HomeShard, uint32_t SlotsPerClass,
                                uint32_t DeferredCapacity) {
  if (Installing)
    return nullptr;
  Installing = true;
  pthread_once(&ExitKeyOnce, createExitKey);
  ThreadCache *TC = ThreadCache::create(&Heap, &Anchor, HeapId, HomeShard,
                                        SlotsPerClass, DeferredCapacity);
  if (TC != nullptr) {
    // Arm the exit destructor BEFORE publishing the cache anywhere: any
    // non-null value triggers it, and the destructor walks the
    // thread-local list, not this value. (glibc may allocate a
    // second-level TSD block here — the Installing guard routes that
    // nested malloc onto the uncached path.) If arming fails, a cache
    // would claim slots that no thread exit ever reclaims — permanently
    // eating into the 1/M bound — so abandon it and let this thread stay
    // on the locked paths.
    if (pthread_setspecific(ExitKey, TC) != 0) {
      TC->destroy();
      TC = nullptr;
    } else {
      pthread_mutex_lock(&RegistryLock);
      TC->RegNext = Anchor.Head;
      if (Anchor.Head != nullptr)
        Anchor.Head->RegPrev = TC;
      Anchor.Head = TC;
      pthread_mutex_unlock(&RegistryLock);

      TC->NextInThread = ThreadCaches;
      ThreadCaches = TC;
      Memo = {HeapId, TC};
    }
  }
  Installing = false;
  return TC;
}

void threadCacheRetireHeap(ThreadCacheAnchor &Anchor) {
  pthread_mutex_lock(&RegistryLock);
  ThreadCache *TC = Anchor.Head;
  Anchor.Head = nullptr;
  while (TC != nullptr) {
    ThreadCache *Next = TC->RegNext;
    TC->RegPrev = nullptr;
    TC->RegNext = nullptr;
    // Release so an owner thread that observes HeapDead (acquire) also
    // sees the unlinking above and can safely unmap the corpse.
    TC->HeapDead.store(true, std::memory_order_release);
    TC = Next;
  }
  pthread_mutex_unlock(&RegistryLock);
}

size_t threadCacheAgeQuiet(ThreadCacheAnchor &Anchor, uint64_t Epoch) {
  size_t Aged = 0;
  pthread_mutex_lock(&RegistryLock);
  for (ThreadCache *TC = Anchor.Head; TC != nullptr; TC = TC->RegNext) {
    // Aging horizon: the owner must have been quiet for two full epochs
    // (a stamp during epoch E survives the pass that opens E+1 and ages at
    // E+2), and the cache must actually hold something worth reclaiming.
    if (TC->LastEpoch.load(std::memory_order_relaxed) + 2 > Epoch)
      continue;
    if (TC->cachedTotal() == 0 && TC->deferredUsed() == 0)
      continue;
    // Dekker handshake with the owner's op bracket: publish the seizure,
    // then check for an op in flight. Both sides' first access is seq_cst,
    // so at least one of them observes the other; a mid-op owner makes the
    // sweeper roll back and skip — never wait — which also keeps a
    // descheduled owner from blocking the sweep.
    TC->Seized.store(1, std::memory_order_seq_cst);
    if (TC->InOp.load(std::memory_order_seq_cst) != 0) {
      TC->Seized.store(0, std::memory_order_relaxed);
      continue;
    }
    // The owner is parked outside any bracket and will serialize through
    // the registry lock if it wakes now: the cache is ours. Flush it
    // through the ordinary full-flush path — deferred frees return to
    // their owners (cross-shard via sidecars), cached slots reclaim via
    // reclaimSlots, pops fold — without the owner thread exiting.
    TC->Heap->flushCacheFromRegistry(*TC);
    // Release the buffers back to the owner: its next bracket entry
    // acquires this store (or takes the registry lock) before touching
    // them.
    TC->Seized.store(0, std::memory_order_release);
    ++Aged;
  }
  pthread_mutex_unlock(&RegistryLock);
  return Aged;
}

void threadCacheUnseize(ThreadCache &TC) {
  // Taking the registry lock waits out any sweeper flush in progress;
  // clearing an already-cleared flag is harmless.
  pthread_mutex_lock(&RegistryLock);
  TC.Seized.store(0, std::memory_order_relaxed);
  pthread_mutex_unlock(&RegistryLock);
}

ThreadCacheTally threadCacheTally(const ThreadCacheAnchor &Anchor) {
  ThreadCacheTally Tally;
  pthread_mutex_lock(&RegistryLock);
  for (const ThreadCache *TC = Anchor.Head; TC != nullptr;
       TC = TC->RegNext) {
    Tally.CachedSlots += TC->cachedTotal();
    Tally.PendingPops += TC->pendingPops();
    Tally.DeferredFrees += TC->deferredUsed();
  }
  pthread_mutex_unlock(&RegistryLock);
  return Tally;
}

} // namespace diehard
