//===- interpose/Interpose.cpp - malloc/free interposition ----------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The libdiehard.so shim (Section 5.1). Loading this library with
/// LD_PRELOAD redirects all malloc/free calls of an unmodified binary to a
/// process-global sharded DieHard heap — "DieHard works with binaries and
/// supports any language using explicit allocation". The replicated launcher
/// points LD_PRELOAD at this library for every replica.
///
/// Configuration via the environment:
///   DIEHARD_HEAP_SIZE   heap reservation in bytes (default 384 MB),
///                       reserved per shard and committed lazily. Probes
///                       draw from each class's active prefix, which
///                       doubles as live data demands (up to the class's
///                       whole 32 MB region at the default), so touched
///                       pages follow the live set: a two-thread larson
///                       run holding under 1 MB live peaks at ~16 MB RSS.
///   DIEHARD_M           expansion factor M (default 2)
///   DIEHARD_SEED        RNG seed; 0 or unset = truly random per process
///   DIEHARD_SHARDS      heap shard count; unset/0 = one per CPU, clamped to
///                       [1, 64]. Replicated mode defaults to 1 so a
///                       replica's allocation sequence stays deterministic
///                       per seed regardless of thread scheduling.
///   DIEHARD_REPLICATED  "1" enables random object fill (replica mode)
///   DIEHARD_OVERFLOW    "0" disables overflow routing (default on): with
///                       routing, a thread whose home shard's size-class
///                       partition is at its 1/M bound borrows capacity
///                       from the least-loaded sibling shard instead of
///                       failing the allocation
///   DIEHARD_TCACHE      K: per-thread, per-size-class cached slot count
///                       for the lock-free fast path (default 32 in
///                       sharded mode; 0 disables). Forced off in
///                       replicated mode — replicas must stay
///                       deterministic per seed regardless of thread
///                       timing — and under an explicit DIEHARD_SHARDS=1,
///                       where bit-identity with a lone DieHardHeap is
///                       being enforced.
///   DIEHARD_SWEEPER     "1" starts the background epoch sweeper: periodic
///                       passes drain idle partitions' remote-free
///                       sidecars, age out quiet threads' caches, return
///                       quiet partitions' object-free pages to the OS and
///                       publish the pressure table overflow routing ranks
///                       from. Off by default, and forced off in
///                       replicated mode — a concurrent maintenance thread
///                       would perturb a replica's per-seed determinism.
///   DIEHARD_SWEEP_MS    milliseconds between sweeper passes (default 100,
///                       clamped to >= 1); meaningless without the sweeper
///   DIEHARD_PAGE_RETURN "off" never releases pages; anything else (the
///                       default) hands released page spans back to the
///                       OS with MADV_DONTNEED, so RSS drops immediately.
///   DIEHARD_MESH        "1" lets sweeper passes mesh sparse pages onto
///                       shared physical frames. Off by default, forced
///                       off in replicated mode; no effect without the
///                       sweeper.
///   DIEHARD_STATS       "1" dumps a JSON stats line (the lock-free
///                       statsApprox() snapshot) at process exit to the
///                       process's startup stderr; any other value is
///                       taken as a file path to append the line to.
///
/// Locking: there is no global malloc lock. After initialization the
/// steady-state malloc/free is a thread-cache array pop/push with no lock
/// at all (DIEHARD_TCACHE); refills and same-shard deferred-free flushes
/// take exactly one *partition* lock (one size class of one shard) per
/// batch, and cross-shard flush batches take no remote lock at all — each
/// pointer is pushed onto the owning partition's lock-free remote-free
/// sidecar and materialized by the next thread holding that lock anyway.
/// With the cache off, every entry point goes straight into ShardedHeap's
/// per-partition locking — the calling thread's home shard for allocation,
/// the owner of the freed pointer for frees — or the dedicated
/// large-object lock. The one remaining global mutex is a narrow
/// constructor guard that serializes first-time heap construction and is
/// never touched again once the heap pointer is published.
///
/// Re-entrancy: constructing the heap allocates metadata (bitmaps and the
/// shard address registry), which re-enters malloc on the same thread. The
/// constructor guard is recursive, and those nested requests are served from
/// a static bootstrap arena; frees of bootstrap memory are ignored forever
/// after.
///
//===----------------------------------------------------------------------===//

#include "core/ShardedHeap.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

using diehard::DieHardOptions;
using diehard::ShardedHeap;
using diehard::ShardedHeapOptions;

namespace {

// Narrow constructor guard: recursive, because the nested (bootstrap)
// mallocs during heap construction run on the same thread that already
// holds it. Only taken while TheHeap is still null.
pthread_mutex_t ConstructionLock = PTHREAD_RECURSIVE_MUTEX_INITIALIZER_NP;

struct LockGuard {
  LockGuard() { pthread_mutex_lock(&ConstructionLock); }
  ~LockGuard() { pthread_mutex_unlock(&ConstructionLock); }
};

// Bootstrap arena for allocations made while the heap itself is being
// constructed (bitmap storage, registry nodes and friends).
constexpr size_t BootstrapBytes = 4 << 20;
alignas(16) char BootstrapArena[BootstrapBytes];
size_t BootstrapUsed = 0;
bool ConstructingHeap = false; // Guarded by ConstructionLock.

bool isBootstrapPointer(const void *Ptr) {
  const char *P = static_cast<const char *>(Ptr);
  return P >= BootstrapArena && P < BootstrapArena + BootstrapBytes;
}

void *bootstrapAllocate(size_t Size) {
  size_t Aligned = (Size + 15) & ~size_t(15);
  if (BootstrapUsed + Aligned > BootstrapBytes)
    return nullptr;
  void *Ptr = BootstrapArena + BootstrapUsed;
  BootstrapUsed += Aligned;
  return Ptr;
}

/// realloc support: bootstrap blocks have no recorded size, so copy the
/// requested size, clamped to the end of the arena so the read cannot run
/// past it.
void copyFromBootstrap(void *Fresh, const void *Ptr, size_t Size) {
  size_t Avail = static_cast<size_t>(BootstrapArena + BootstrapBytes -
                                     static_cast<const char *>(Ptr));
  std::memcpy(Fresh, Ptr, Size < Avail ? Size : Avail);
}

alignas(ShardedHeap) char HeapStorage[sizeof(ShardedHeap)];
std::atomic<ShardedHeap *> TheHeap{nullptr};

size_t envSize(const char *Name, size_t Default) {
  const char *V = std::getenv(Name);
  if (V == nullptr || *V == '\0')
    return Default;
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(V, &End, 10);
  return End != V ? static_cast<size_t>(Parsed) : Default;
}

double envDouble(const char *Name, double Default) {
  const char *V = std::getenv(Name);
  if (V == nullptr || *V == '\0')
    return Default;
  char *End = nullptr;
  double Parsed = std::strtod(V, &End);
  return End != V && Parsed > 1.0 ? Parsed : Default;
}

bool envFlag(const char *Name, bool Default) {
  const char *V = std::getenv(Name);
  if (V == nullptr || *V == '\0')
    return Default;
  return V[0] != '0';
}

/// Resolves the shard count: DIEHARD_SHARDS wins; otherwise replicas get a
/// single deterministic shard and stand-alone processes one shard per CPU
/// (0 lets ShardedHeap ask the OS).
size_t envShards(bool Replicated) {
  size_t Explicit = envSize("DIEHARD_SHARDS", 0);
  if (Explicit != 0)
    return Explicit < ShardedHeap::MaxShards ? Explicit
                                             : ShardedHeap::MaxShards;
  return Replicated ? 1 : 0;
}

/// Resolves the thread-cache size K: DIEHARD_TCACHE wins (0 disables),
/// default 32 — but forced off for replicas (per-seed determinism must not
/// depend on thread timing) and under an explicit DIEHARD_SHARDS=1 (the
/// bit-identity-with-a-lone-heap configuration).
size_t envThreadCache(bool Replicated) {
  if (Replicated || envSize("DIEHARD_SHARDS", 0) == 1)
    return 0;
  return envSize("DIEHARD_TCACHE", 32);
}

/// Where the DIEHARD_STATS dump goes: a load-time dup of stderr (or an
/// opened file), -1 when disabled. Dup'ed early because applications (the
/// coreutils close_stdout idiom among them) may close their streams from
/// their own atexit handlers, which run before our DSO destructor.
int StatsFd = -1;

/// DIEHARD_STATS exit hook: dump the lock-free stats snapshot without
/// calling anything that might allocate mid-teardown.
void dumpStatsAtExit() {
  diehard::ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr || StatsFd < 0)
    return;
  diehard::DieHardStats S = H->statsApprox();
  char Line[1024];
  int N = std::snprintf(
      Line, sizeof(Line),
      "{\"diehard_stats\":{\"allocations\":%llu,\"frees\":%llu,"
      "\"failed\":%llu,\"ignored_frees\":%llu,\"large_allocations\":%llu,"
      "\"large_frees\":%llu,\"overflow\":%llu,\"cached_slots\":%llu,"
      "\"cache_refills\":%llu,\"cache_flushes\":%llu,"
      "\"remote_frees\":%llu,\"sidecar_drains\":%llu,"
      "\"sweep_passes\":%llu,\"sweeper_drained\":%llu,"
      "\"aged_caches\":%llu,\"pages_returned\":%llu,"
      "\"partial_returns\":%llu,\"spans_released\":%llu,"
      "\"mesh_candidates\":%llu,\"pages_meshed\":%llu,"
      "\"meshed_bytes\":%llu,\"probes\":%llu,"
      "\"realloc_rejects\":%llu}}\n",
      static_cast<unsigned long long>(S.Allocations),
      static_cast<unsigned long long>(S.Frees),
      static_cast<unsigned long long>(S.FailedAllocations),
      static_cast<unsigned long long>(S.IgnoredFrees),
      static_cast<unsigned long long>(S.LargeAllocations),
      static_cast<unsigned long long>(S.LargeFrees),
      static_cast<unsigned long long>(S.OverflowAllocations),
      static_cast<unsigned long long>(S.CachedSlots),
      static_cast<unsigned long long>(S.CacheRefills),
      static_cast<unsigned long long>(S.CacheFlushes),
      static_cast<unsigned long long>(S.RemoteFrees),
      static_cast<unsigned long long>(S.SidecarDrains),
      static_cast<unsigned long long>(S.SweepPasses),
      static_cast<unsigned long long>(S.SweeperDrainedRemote),
      static_cast<unsigned long long>(S.AgedCaches),
      static_cast<unsigned long long>(S.PagesReturned),
      static_cast<unsigned long long>(S.PartialReturns),
      static_cast<unsigned long long>(S.SpansReleased),
      static_cast<unsigned long long>(S.MeshCandidates),
      static_cast<unsigned long long>(S.PagesMeshed),
      static_cast<unsigned long long>(S.MeshedBytes),
      static_cast<unsigned long long>(S.Probes),
      static_cast<unsigned long long>(S.ReallocRejects));
  if (N > 0)
    (void)!::write(StatsFd, Line, static_cast<size_t>(N));
}

/// Constructs the heap on first use. Must be called with ConstructionLock
/// held and ConstructingHeap false.
ShardedHeap *constructHeap() {
  ConstructingHeap = true;
  ShardedHeapOptions Options;
  Options.Heap.HeapSize = envSize("DIEHARD_HEAP_SIZE", Options.Heap.HeapSize);
  Options.Heap.M = envDouble("DIEHARD_M", Options.Heap.M);
  Options.Heap.Seed = envSize("DIEHARD_SEED", 0);
  const char *Replicated = std::getenv("DIEHARD_REPLICATED");
  bool IsReplica = Replicated != nullptr && Replicated[0] == '1';
  if (IsReplica) {
    Options.Heap.RandomFillObjects = true;
    Options.Heap.RandomFillOnFree = true;
  }
  Options.NumShards = envShards(IsReplica);
  Options.OverflowRouting = envFlag("DIEHARD_OVERFLOW", true);
  Options.ThreadCacheSlots = envThreadCache(IsReplica);
  // Replicas never run the sweeper: its thread would interleave with the
  // replica's allocation sequence and break per-seed determinism.
  Options.Sweeper = !IsReplica && envFlag("DIEHARD_SWEEPER", false);
  // Meshing is likewise replica-incompatible (random fill relies on pages
  // keeping their contents; a meshed donor's punched frame refaults zero).
  Options.Heap.Meshing = !IsReplica && envFlag("DIEHARD_MESH", false);
  size_t SweepMs = envSize("DIEHARD_SWEEP_MS", Options.SweepIntervalMs);
  Options.SweepIntervalMs =
      SweepMs > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(SweepMs);
  ShardedHeap *H = new (HeapStorage) ShardedHeap(Options);
  ConstructingHeap = false;
  TheHeap.store(H, std::memory_order_release);
  return H;
}

/// Static hook pair for the stats dump. The constructor resolves the sink
/// while the process's descriptors are still pristine; the destructor —
/// registered at shim load, hence run after the application's own atexit
/// handlers — emits the line. (Registering via atexit() from the lazily
/// constructed heap is not an option: the first malloc can come from the
/// dynamic loader, before atexit() works.)
struct StatsDumper {
  StatsDumper() {
    const char *V = std::getenv("DIEHARD_STATS");
    if (V == nullptr || V[0] == '\0' || (V[0] == '0' && V[1] == '\0'))
      return; // Disabled.
    if (V[0] == '1' && V[1] == '\0')
      StatsFd = ::fcntl(2, F_DUPFD_CLOEXEC, 100); // Startup stderr.
    else
      StatsFd = ::open(V, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  }
  ~StatsDumper() {
    dumpStatsAtExit();
    if (StatsFd >= 0)
      ::close(StatsFd);
  }
};
StatsDumper TheStatsDumper;

/// The slow path shared by the allocating entry points: either we are the
/// constructing thread re-entering malloc (serve from the arena, signalled
/// by returning null through \p FromBootstrap), or the heap needs to be
/// (raced to be) constructed.
ShardedHeap *getHeapSlow(bool &FromBootstrap) {
  LockGuard Guard;
  if (ConstructingHeap) {
    FromBootstrap = true;
    return nullptr;
  }
  FromBootstrap = false;
  ShardedHeap *H = TheHeap.load(std::memory_order_relaxed);
  return H != nullptr ? H : constructHeap();
}

} // namespace

extern "C" {

void *malloc(size_t Size) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr) {
    bool FromBootstrap;
    H = getHeapSlow(FromBootstrap);
    if (FromBootstrap)
      return bootstrapAllocate(Size);
  }
  void *Ptr = H->allocate(Size != 0 ? Size : 1);
  if (Ptr == nullptr)
    errno = ENOMEM;
  return Ptr;
}

void free(void *Ptr) {
  if (Ptr == nullptr || isBootstrapPointer(Ptr))
    return; // Bootstrap memory is permanent.
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr)
    return; // Pre-heap frees are foreign.
  H->deallocate(Ptr);
}

void *calloc(size_t Count, size_t Size) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr) {
    bool FromBootstrap;
    H = getHeapSlow(FromBootstrap);
    if (FromBootstrap) {
      if (Count != 0 && Size > SIZE_MAX / Count)
        return nullptr;
      void *Ptr = bootstrapAllocate(Count * Size);
      if (Ptr != nullptr)
        std::memset(Ptr, 0, Count * Size);
      return Ptr;
    }
  }
  void *Ptr = H->allocateZeroed(Count, Size != 0 ? Size : 1);
  if (Ptr == nullptr)
    errno = ENOMEM; // Covers the Count * Size overflow refusal too.
  return Ptr;
}

void *realloc(void *Ptr, size_t Size) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr) {
    bool FromBootstrap;
    H = getHeapSlow(FromBootstrap);
    if (FromBootstrap) {
      void *Fresh = bootstrapAllocate(Size);
      if (Fresh != nullptr && Ptr != nullptr && isBootstrapPointer(Ptr))
        copyFromBootstrap(Fresh, Ptr, Size);
      return Fresh;
    }
  }
  if (Ptr != nullptr && isBootstrapPointer(Ptr)) {
    void *Fresh = H->allocate(Size);
    if (Fresh != nullptr)
      copyFromBootstrap(Fresh, Ptr, Size);
    return Fresh;
  }
  void *Fresh = H->reallocate(Ptr, Size);
  // Size == 0 is the free-and-return-null contract, not a failure; a wild
  // pointer is refused with ENOMEM rather than the abort glibc would do.
  if (Fresh == nullptr && Size != 0)
    errno = ENOMEM;
  return Fresh;
}

int posix_memalign(void **Out, size_t Alignment, size_t Size) {
  if (Alignment < sizeof(void *) || (Alignment & (Alignment - 1)) != 0)
    return EINVAL;
  // Power-of-two size classes give natural alignment up to a page; larger
  // alignments are not supported by the randomized layout.
  if (Alignment > 4096)
    return ENOMEM;
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr) {
    bool FromBootstrap;
    H = getHeapSlow(FromBootstrap);
    if (FromBootstrap) {
      *Out = bootstrapAllocate(Size < Alignment ? Alignment : Size);
      return *Out != nullptr ? 0 : ENOMEM;
    }
  }
  size_t Request = Size < Alignment ? Alignment : Size;
  *Out = H->allocate(Request != 0 ? Request : 1);
  return *Out != nullptr ? 0 : ENOMEM;
}

void *aligned_alloc(size_t Alignment, size_t Size) {
  // Unlike posix_memalign, these report through errno.
  void *Ptr = nullptr;
  int Err = posix_memalign(&Ptr, Alignment, Size);
  if (Err == 0)
    return Ptr;
  errno = Err;
  return nullptr;
}

void *memalign(size_t Alignment, size_t Size) {
  void *Ptr = nullptr;
  int Err = posix_memalign(&Ptr, Alignment, Size);
  if (Err == 0)
    return Ptr;
  errno = Err;
  return nullptr;
}

size_t malloc_usable_size(void *Ptr) {
  if (Ptr == nullptr || isBootstrapPointer(Ptr))
    return 0;
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H == nullptr)
    return 0;
  return H->getObjectSize(Ptr);
}

// --- Observability hooks ----------------------------------------------------
// Looked up with dlsym() by test victims and available to applications that
// want cache-tier visibility without a dependency on DieHard headers.

/// Slots currently claimed into thread caches across the process heap
/// (0 with the cache tier off or before the heap exists).
size_t diehard_cached_slots(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? H->cachedSlots() : 0;
}

/// Flushes the calling thread's cache: deferred frees return to their
/// partitions, unused cached slots are reclaimed.
void diehard_flush_thread_cache(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  if (H != nullptr)
    H->flushThreadCache();
}

/// Cross-shard frees pushed through the lock-free remote-free sidecars so
/// far (0 before the heap exists). Lock-free.
size_t diehard_remote_frees(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->remoteFrees()) : 0;
}

/// Completed epoch-sweeper passes (see DIEHARD_SWEEPER); 0 with the
/// sweeper off or before the heap exists. Lock-free.
size_t diehard_sweep_passes(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->sweepPasses()) : 0;
}

/// Quiet thread caches the sweeper has aged out so far. Lock-free.
size_t diehard_aged_caches(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->agedCaches()) : 0;
}

/// Object-free data pages returned to the OS by the span scanner (see
/// DIEHARD_PAGE_RETURN). Lock-free.
size_t diehard_pages_returned(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->pagesReturned()) : 0;
}

/// Partition maintenance scans that released at least one page. Lock-free.
size_t diehard_partial_returns(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->partialReturns()) : 0;
}

/// Contiguous page runs advised away (one madvise call each). Lock-free.
size_t diehard_spans_released(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->spansReleased()) : 0;
}

/// Donor pages meshed onto a survivor's physical frame by the sweeper's
/// mesh passes (see DIEHARD_MESH). Lock-free.
size_t diehard_pages_meshed(void) {
  ShardedHeap *H = TheHeap.load(std::memory_order_acquire);
  return H != nullptr ? static_cast<size_t>(H->pagesMeshed()) : 0;
}

} // extern "C"
