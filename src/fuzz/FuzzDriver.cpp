//===- fuzz/FuzzDriver.cpp - differential API fuzzing core ----------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzDriver.h"

#include "core/ShardedHeap.h"
#include "core/SizeClass.h"
#include "support/Rng.h"

#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace diehard {
namespace fuzz {

namespace {

/// A static, never-heap address used as the always-available target for
/// foreign-free and wild-realloc injections (graveyard and synthesized
/// targets are only usable when they are provably dead).
alignas(16) uint8_t ForeignTarget[64];

/// Sequential reader over the input bytes. Reads past the end return 0 —
/// deterministic, and it lets short inputs still decode complete
/// operations (libFuzzer shrinks more effectively when truncation does
/// not change the meaning of the surviving prefix).
class ByteReader {
public:
  ByteReader(const uint8_t *Bytes, size_t Len) : Data(Bytes), Size(Len) {}

  bool done() const { return Pos >= Size; }

  uint8_t u8() { return Pos < Size ? Data[Pos++] : 0; }

  uint16_t u16() {
    uint16_t Lo = u8();
    return static_cast<uint16_t>(Lo | (static_cast<uint16_t>(u8()) << 8));
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// Deterministic content pattern: the object's bytes are the Rng stream of
/// its pattern seed. Filling and verifying regenerate the same stream, so
/// the model stores one word per object instead of a byte copy.
void fillPattern(void *Ptr, size_t Size, uint64_t Seed) {
  Rng R(Seed);
  uint8_t *P = static_cast<uint8_t *>(Ptr);
  size_t I = 0;
  for (; I + 4 <= Size; I += 4) {
    uint32_t V = R.next();
    std::memcpy(P + I, &V, 4);
  }
  if (I < Size) {
    uint32_t V = R.next();
    std::memcpy(P + I, &V, Size - I);
  }
}

/// Returns the first byte index where the object diverges from its
/// pattern, or SIZE_MAX when the contents round-trip exactly.
size_t findPatternMismatch(const void *Ptr, size_t Size, uint64_t Seed) {
  Rng R(Seed);
  const uint8_t *P = static_cast<const uint8_t *>(Ptr);
  size_t I = 0;
  for (; I + 4 <= Size; I += 4) {
    uint32_t V = R.next();
    if (std::memcmp(P + I, &V, 4) != 0) {
      for (size_t J = 0; J < 4; ++J)
        if (P[I + J] != reinterpret_cast<const uint8_t *>(&V)[J])
          return I + J;
    }
  }
  if (I < Size) {
    uint32_t V = R.next();
    for (size_t J = 0; I + J < Size; ++J)
      if (P[I + J] != reinterpret_cast<const uint8_t *>(&V)[J])
        return I + J;
  }
  return SIZE_MAX;
}

/// Worker threads for the cross-thread error classes. Every command is
/// executed synchronously — the driver blocks until the worker finishes —
/// so a sequence interleaves threads without introducing scheduling
/// nondeterminism into the replay. Workers pin their shard tokens
/// (worker i gets token i + 1; the driver runs on token 0) so home-shard
/// assignment comes from the input, not from process history.
class WorkerPool {
public:
  WorkerPool(ShardedHeap &H, size_t N) : Heap(H) {
    for (size_t I = 0; I < N; ++I) {
      Workers.push_back(std::make_unique<Worker>());
      // Hand the thread its Worker directly: indexing the vector from the
      // thread would race with the next push_back's reallocation.
      Worker *W = Workers.back().get();
      Workers.back()->T =
          std::thread([this, W, I] { workerMain(*W, I + 1); });
    }
  }

  ~WorkerPool() {
    for (std::unique_ptr<Worker> &W : Workers) {
      send(*W, Cmd::Exit, nullptr);
      W->T.join();
    }
  }

  size_t size() const { return Workers.size(); }

  /// Frees \p Ptr on worker \p I's thread; returns once the free happened.
  void freeOn(size_t I, void *Ptr) { send(*Workers[I], Cmd::Free, Ptr); }

  /// Flushes worker \p I's thread cache (deferred frees included).
  void flushOn(size_t I) { send(*Workers[I], Cmd::Flush, nullptr); }

  /// Flushes every worker's thread cache (deferred frees included).
  void flushAll() {
    for (std::unique_ptr<Worker> &W : Workers)
      send(*W, Cmd::Flush, nullptr);
  }

private:
  enum class Cmd { None, Free, Flush, Exit };

  struct Worker {
    std::thread T;
    std::mutex M;
    std::condition_variable CV;
    Cmd Pending = Cmd::None;
    void *Arg = nullptr;
  };

  void send(Worker &W, Cmd C, void *Arg) {
    std::unique_lock<std::mutex> Lock(W.M);
    W.Pending = C;
    W.Arg = Arg;
    W.CV.notify_all();
    W.CV.wait(Lock, [&] { return W.Pending == Cmd::None; });
  }

  void workerMain(Worker &W, size_t Token) {
    ShardedHeap::pinThreadToken(static_cast<uint32_t>(Token));
    std::unique_lock<std::mutex> Lock(W.M);
    for (;;) {
      W.CV.wait(Lock, [&] { return W.Pending != Cmd::None; });
      Cmd C = W.Pending;
      void *Arg = W.Arg;
      if (C == Cmd::Free)
        Heap.deallocate(Arg);
      else if (C == Cmd::Flush)
        Heap.flushThreadCache();
      W.Pending = Cmd::None;
      W.CV.notify_all();
      if (C == Cmd::Exit)
        return;
    }
  }

  ShardedHeap &Heap;
  std::vector<std::unique_ptr<Worker>> Workers;
};

/// One model entry: the requested size and the pattern-stream seed of the
/// bytes the driver wrote there.
struct ModelObject {
  size_t Size;
  uint64_t Pattern;
};

/// Executes one decoded sequence against a fresh heap, mirroring every
/// operation into the reference model and checking the differential
/// invariants (see FuzzDriver.h).
class Driver {
public:
  Driver(FuzzResult &Result, ShardedHeap &H, const uint8_t *Data,
         size_t Size)
      : R(Result), Cfg(Result.Config), Heap(H), Rd(Data, Size),
        Pool(new WorkerPool(H, Result.Config.Workers)) {
    for (size_t S = 0; S < Heap.numShards(); ++S)
      ShardBases.push_back(
          reinterpret_cast<uintptr_t>(Heap.shard(S).heapBase()));
  }

  void run() {
    // The 4-byte config header was consumed by decodeFuzzConfig; skip it.
    for (int I = 0; I < 4; ++I)
      Rd.u8();
    while (!Rd.done() && R.Ok) {
      step();
      ++OpIndex;
      ++R.OpsExecuted;
      if ((OpIndex & 63) == 0)
        periodicChecks();
    }
    if (R.Ok)
      audit();
  }

private:
  // --- failure reporting ---------------------------------------------------

  bool fail(const std::string &Msg) {
    if (R.Ok) {
      R.Ok = false;
      R.Message = "op " + std::to_string(OpIndex) + ": " + Msg;
    }
    return false;
  }

  static std::string hex(const void *Ptr) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "%p", Ptr);
    return Buf;
  }

  // --- placement trace -----------------------------------------------------

  void hashWord(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      R.TraceHash ^= (V >> (I * 8)) & 0xFF;
      R.TraceHash *= 1099511628211ULL;
    }
  }

  /// Hashes where an allocation landed. Small objects hash their
  /// shard-relative offset (ASLR-independent); large objects hash only
  /// their size, since mmap placement is the OS's choice, not the
  /// allocator's.
  void traceAlloc(const void *Ptr, size_t Size) {
    hashWord(OpIndex);
    size_t S = Heap.shardIndexOf(Ptr);
    if (S < ShardBases.size())
      hashWord((static_cast<uint64_t>(S) << 48) |
               (reinterpret_cast<uintptr_t>(Ptr) - ShardBases[S]));
    else
      hashWord(0xA11C000000000000ULL | Size);
  }

  // --- reference model -----------------------------------------------------

  uint64_t patternSeed() {
    return Rng::deriveStream(Cfg.Seed, OpIndex + 1, Rng::ClassStreamGamma);
  }

  bool verifyObject(uintptr_t Base, const ModelObject &MO) {
    size_t Bad = findPatternMismatch(reinterpret_cast<void *>(Base),
                                     MO.Size, MO.Pattern);
    if (Bad == SIZE_MAX)
      return true;
    return fail("content corrupted: object " +
                hex(reinterpret_cast<void *>(Base)) + " size " +
                std::to_string(MO.Size) + " diverges at byte " +
                std::to_string(Bad));
  }

  /// Admission check + model insert for a fresh allocation. \p MinAlign is
  /// the alignment the API contract promises for this call.
  bool admit(void *Ptr, size_t Requested, size_t MinAlign, bool Zeroed) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
    if (P % MinAlign != 0)
      return fail("allocation " + hex(Ptr) + " not aligned to " +
                  std::to_string(MinAlign));
    size_t Owner = Heap.shardIndexOf(Ptr);
    bool Large = Requested > SizeClass::MaxObjectSize;
    if (Large ? Owner != Heap.numShards() : Owner >= Heap.numShards())
      return fail("allocation " + hex(Ptr) + " has owner " +
                  std::to_string(Owner) + " for size " +
                  std::to_string(Requested));
    size_t Usable = Heap.getObjectSize(Ptr);
    if (Usable < Requested)
      return fail("usable size " + std::to_string(Usable) +
                  " < requested " + std::to_string(Requested));
    // Overlap against every live range: the left neighbour must end at or
    // before P, the right neighbour must start at or after P + Requested.
    auto Next = Live.lower_bound(P);
    if (Next != Live.begin()) {
      auto Prev = std::prev(Next);
      if (Prev->first + Prev->second.Size > P)
        return fail("allocation " + hex(Ptr) + " overlaps live object " +
                    hex(reinterpret_cast<void *>(Prev->first)));
    }
    if (Next != Live.end() && Next->first < P + Requested)
      return fail("allocation " + hex(Ptr) + " overlaps live object " +
                  hex(reinterpret_cast<void *>(Next->first)));
    if (Zeroed) {
      const uint8_t *B = static_cast<const uint8_t *>(Ptr);
      for (size_t I = 0; I < Requested; ++I)
        if (B[I] != 0)
          return fail("calloc memory not zeroed at byte " +
                      std::to_string(I));
    }
    ModelObject MO{Requested, patternSeed()};
    fillPattern(Ptr, Requested, MO.Pattern);
    Live.emplace(P, MO);
    Order.push_back(P);
    traceAlloc(Ptr, Requested);
    ++R.ModelAllocs;
    return true;
  }

  /// Verifies and removes Order[Idx] from the model; the caller performs
  /// the actual free. Returns the pointer, or nullptr on verify failure.
  void *modelTakeAt(size_t Idx) {
    uintptr_t Base = Order[Idx];
    auto It = Live.find(Base);
    if (!verifyObject(Base, It->second))
      return nullptr;
    Live.erase(It);
    Order[Idx] = Order.back();
    Order.pop_back();
    Graveyard[GravePos++ % GraveSlots] = Base;
    if (GraveCount < GraveSlots)
      ++GraveCount;
    return reinterpret_cast<void *>(Base);
  }

  /// A dead in-heap (or foreign) address to aim invalid frees and wild
  /// reallocs at, or nullptr when no candidate is provably dead right now
  /// (a freed slot still parked in a deferred buffer keeps its bitmap bit,
  /// so the heap would treat it as live — only allocation can revive a
  /// slot, so a zero answer here is stable for the injection that
  /// follows).
  void *deadTarget(uint8_t Variant, uint16_t Entropy) {
    switch (Variant % 3) {
    case 0:
      return ForeignTarget; // Never heap memory; always injectable.
    case 1: {
      if (GraveCount == 0)
        return ForeignTarget;
      void *T = reinterpret_cast<void *>(Graveyard[Entropy % GraveCount]);
      return Heap.getObjectSize(T) == 0 ? T : nullptr;
    }
    default: {
      // Synthesize an 8-aligned address inside a shard's reservation.
      size_t S = Entropy % Heap.numShards();
      size_t Bytes = Heap.shard(S).heapBytes();
      if (Bytes == 0)
        return ForeignTarget;
      uintptr_t Off =
          (static_cast<uintptr_t>(Entropy) * 2654435761u) % Bytes & ~7ULL;
      void *T = reinterpret_cast<void *>(ShardBases[S] + Off);
      return Heap.getObjectSize(T) == 0 ? T : nullptr;
    }
    }
  }

  // --- decoded operations --------------------------------------------------

  size_t decodeSize() {
    uint16_t V = Rd.u16();
    uint16_t Raw = static_cast<uint16_t>(V >> 2);
    switch (V & 3) {
    case 0:
      return 1 + Raw % 512; // The common small-object sizes.
    case 1: {
      // Size-class boundaries: 8 << c, one under and one over — the
      // rounding and in-place-realloc edge cases.
      size_t Base = static_cast<size_t>(8) << (Raw % 12);
      switch ((Raw / 12) % 3) {
      case 0:
        return Base;
      case 1:
        return Base + 1; // 16384 + 1 crosses into the large path.
      default:
        return Base - 1;
      }
    }
    case 2:
      return 1 + Raw % SizeClass::MaxObjectSize;
    default:
      return SizeClass::MaxObjectSize + 1 + static_cast<size_t>(Raw) * 4;
    }
  }

  void opMalloc() {
    if (Order.size() >= MaxLive)
      return;
    size_t Size = decodeSize();
    void *Ptr = Heap.allocate(Size);
    if (Ptr == nullptr) {
      ++R.FailedAllocs;
      return;
    }
    admit(Ptr, Size, 8, /*Zeroed=*/false);
  }

  void opCalloc() {
    if (Order.size() >= MaxLive)
      return;
    size_t Count = 1 + Rd.u8() % 8;
    size_t Unit = 1 + decodeSize() / Count;
    void *Ptr = Heap.allocateZeroed(Count, Unit);
    if (Ptr == nullptr) {
      ++R.FailedAllocs;
      return;
    }
    admit(Ptr, Count * Unit, 8, /*Zeroed=*/true);
  }

  void opMemalign() {
    if (Order.size() >= MaxLive)
      return;
    // The shim's posix_memalign strategy: power-of-two size classes give
    // natural alignment once the request is raised to the alignment.
    size_t Align = static_cast<size_t>(8) << (Rd.u8() % 10); // 8..4096.
    size_t Size = decodeSize();
    size_t Request = Size < Align ? Align : Size;
    void *Ptr = Heap.allocate(Request);
    if (Ptr == nullptr) {
      ++R.FailedAllocs;
      return;
    }
    admit(Ptr, Request, Align, /*Zeroed=*/false);
  }

  void opRealloc() {
    if (Order.empty())
      return;
    size_t Idx = Rd.u16() % Order.size();
    size_t NewSize = decodeSize();
    uintptr_t Base = Order[Idx];
    ModelObject Old = Live.find(Base)->second;
    if (!verifyObject(Base, Old))
      return;
    void *OldPtr = reinterpret_cast<void *>(Base);
    void *NewPtr = Heap.reallocate(OldPtr, NewSize);
    if (NewPtr == nullptr) {
      // Allocation failure inside realloc: the old object must survive
      // untouched (C semantics; both heap layers implement this).
      ++R.FailedAllocs;
      return;
    }
    // Remove the old entry first so the overlap check does not see it.
    Live.erase(Base);
    Order[Idx] = Order.back();
    Order.pop_back();
    if (NewPtr != OldPtr) {
      Graveyard[GravePos++ % GraveSlots] = Base;
      if (GraveCount < GraveSlots)
        ++GraveCount;
    }
    if (!admitRealloc(NewPtr, NewSize, Old))
      return;
  }

  /// Post-realloc admission: the prefix min(old, new) must carry the old
  /// pattern before the new pattern is laid down.
  bool admitRealloc(void *Ptr, size_t NewSize, const ModelObject &Old) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
    if (P % 8 != 0)
      return fail("realloc result " + hex(Ptr) + " misaligned");
    size_t Usable = Heap.getObjectSize(Ptr);
    if (Usable < NewSize)
      return fail("realloc usable size " + std::to_string(Usable) +
                  " < requested " + std::to_string(NewSize));
    auto Next = Live.lower_bound(P);
    if (Next != Live.begin()) {
      auto Prev = std::prev(Next);
      if (Prev->first + Prev->second.Size > P)
        return fail("realloc result overlaps live object " +
                    hex(reinterpret_cast<void *>(Prev->first)));
    }
    if (Next != Live.end() && Next->first < P + NewSize)
      return fail("realloc result overlaps live object " +
                  hex(reinterpret_cast<void *>(Next->first)));
    size_t Keep = Old.Size < NewSize ? Old.Size : NewSize;
    size_t Bad = findPatternMismatch(Ptr, Keep, Old.Pattern);
    if (Bad != SIZE_MAX)
      return fail("realloc lost contents at byte " + std::to_string(Bad));
    ModelObject MO{NewSize, patternSeed()};
    fillPattern(Ptr, NewSize, MO.Pattern);
    Live.emplace(P, MO);
    Order.push_back(P);
    traceAlloc(Ptr, NewSize);
    return true;
  }

  void opFree(bool CrossThread) {
    if (Order.empty())
      return;
    size_t Idx = Rd.u16() % Order.size();
    uint8_t W = Rd.u8();
    void *Ptr = modelTakeAt(Idx);
    if (Ptr == nullptr)
      return;
    if (CrossThread && Pool->size() > 0)
      Pool->freeOn(W % Pool->size(), Ptr);
    else
      Heap.deallocate(Ptr);
  }

  // --- error injections ----------------------------------------------------
  //
  // Every injection is designed to be *provably* detectable, so rejection
  // can be asserted exactly: double frees are back-to-back (no allocation
  // can revive the slot between the two frees, since only this driver
  // allocates); invalid-free and wild-realloc targets are checked dead
  // first (and only allocation revives a slot); misaligned offsets k in
  // 1..7 can never hit a slot base (every slot base is 8-aligned). The
  // post-reuse double free — free, slot legitimately reallocated, free
  // again — is deliberately NOT generated: the paper's bitmap validation
  // cannot distinguish it from a valid free of the newer object (that is
  // the probabilistic part of the safety story), so it has no oracle.
  //
  // With the cache tier on, the double-free and dead-slot injections are
  // additionally bracketed with cache flushes so each injected free is
  // *validated* before the driver's next allocation. This sidesteps a real
  // validation gap this harness found (tracked in ROADMAP.md): bitmap
  // validation cannot tell a cache-CLAIMED slot from a live one, so an
  // erroneous free parked in a deferred buffer while its (dead) slot gets
  // re-claimed by a refill materializes as a bogus "valid" free of the
  // claimed slot — Frees overcounts by one and the cache ends up holding a
  // freed slot. The lock-free sidecar path has no such window (every
  // allocation and refill drains the owner's sidecar under the same lock
  // *before* claiming slots); only the thread-local deferred buffer is
  // blind. Forcing the flush makes validation happen while the slot state
  // is still what the grammar proved, restoring an exact oracle; the
  // rejected totals are path-independent, so the bracket changes *when*
  // the error is caught, never how it is counted.

  void injectDoubleFree(bool CrossThread) {
    if (Order.empty())
      return;
    size_t Idx = Rd.u16() % Order.size();
    uint8_t W = Rd.u8();
    void *Ptr = modelTakeAt(Idx);
    if (Ptr == nullptr)
      return;
    if (CrossThread && Pool->size() > 0) {
      size_t A = W % Pool->size();
      size_t B = (W / 4) % Pool->size();
      Pool->freeOn(A, Ptr);
      if (Cfg.ThreadCacheSlots != 0)
        Pool->flushOn(A); // Validate free #1 before free #2 arrives.
      Pool->freeOn(B, Ptr);
      if (Cfg.ThreadCacheSlots != 0)
        Pool->flushOn(B);
      ++R.Injected[CrossThreadDoubleFree];
    } else {
      Heap.deallocate(Ptr);
      if (Cfg.ThreadCacheSlots != 0)
        Heap.flushThreadCache(); // Validate free #1 before free #2.
      Heap.deallocate(Ptr);
      if (Cfg.ThreadCacheSlots != 0)
        Heap.flushThreadCache();
      ++R.Injected[DoubleFree];
    }
    ++ExpectedIgnored;
  }

  void injectInvalidFree() {
    void *T = deadTarget(Rd.u8(), Rd.u16());
    if (T == nullptr)
      return; // No provably-dead candidate; skip rather than guess.
    Heap.deallocate(T);
    if (Cfg.ThreadCacheSlots != 0) {
      // Materialize the rejection now: a dead-slot free parked in the
      // deferred buffer could otherwise race a refill claiming the slot
      // (see the claimed-slot note above).
      Heap.flushThreadCache();
    }
    ++ExpectedIgnored;
    ++R.Injected[InvalidFree];
  }

  void injectMisalignedFree() {
    if (Order.empty())
      return;
    size_t Idx = Rd.u16() % Order.size();
    size_t K = 1 + Rd.u8() % 7;
    uintptr_t Base = Order[Idx];
    // The object stays in the model: a misaligned free must not free it,
    // and its contents are re-verified by later operations and teardown.
    Heap.deallocate(reinterpret_cast<void *>(Base + K));
    ++ExpectedIgnored;
    ++R.Injected[MisalignedFree];
  }

  void injectWildRealloc() {
    void *T = deadTarget(Rd.u8(), Rd.u16());
    if (T == nullptr)
      return;
    size_t NewSize = decodeSize();
    uint64_t Before = Heap.reallocRejects();
    void *Ret = Heap.reallocate(T, NewSize);
    if (Ret != nullptr) {
      fail("wild realloc of " + hex(T) + " returned memory");
      return;
    }
    if (Heap.reallocRejects() != Before + 1) {
      fail("wild realloc of " + hex(T) + " not counted");
      return;
    }
    ++R.Injected[WildRealloc];
  }

  void opMaintenance() {
    switch (Rd.u8() % 4) {
    case 0:
      Heap.flushThreadCache();
      break;
    case 1:
      Heap.drainRemoteFrees();
      break;
    case 2:
      if (Cfg.Sweeper)
        Heap.sweepNow();
      break;
    default:
      Pool->flushAll();
      Heap.deallocate(nullptr); // free(NULL): the legal no-op.
      break;
    }
  }

  void step() {
    switch (Rd.u8() & 15) {
    case 0:
    case 1:
    case 2:
      opMalloc();
      break;
    case 3:
      opCalloc();
      break;
    case 4:
      opMemalign();
      break;
    case 5:
    case 6:
      opRealloc();
      break;
    case 7:
    case 8:
      opFree(/*CrossThread=*/false);
      break;
    case 9:
      opFree(/*CrossThread=*/true);
      break;
    case 10:
      injectDoubleFree(/*CrossThread=*/false);
      break;
    case 11:
      injectDoubleFree(/*CrossThread=*/true);
      break;
    case 12:
      injectInvalidFree();
      break;
    case 13:
      injectMisalignedFree();
      break;
    case 14:
      injectWildRealloc();
      break;
    default:
      opMaintenance();
      break;
    }
  }

  // --- invariant checks ----------------------------------------------------

  void periodicChecks() {
    // The 1/M bound, partition by partition (Section 3.1), against the
    // active prefix the partition has grown to so far (at most the final
    // slots/M threshold): claimed cache slots count as live, so the bound
    // covers the cache tier too.
    const double M = Heap.options().Heap.M;
    for (size_t S = 0; S < Heap.numShards(); ++S)
      for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
        const RandomizedPartition &P = Heap.shard(S).partition(C);
        size_t InUse = P.live();
        auto Bound = static_cast<size_t>(static_cast<double>(P.active()) / M);
        if (InUse > Bound) {
          fail("1/M bound exceeded: shard " + std::to_string(S) +
               " class " + std::to_string(C) + " has " +
               std::to_string(InUse) + " live > active/M " +
               std::to_string(Bound));
          return;
        }
      }
    // Spot-verify one live object's round-trip.
    if (!Order.empty()) {
      uintptr_t Base = Order[OpIndex % Order.size()];
      verifyObject(Base, Live.find(Base)->second);
    }
  }

  /// Forced quiescence, then the books must balance exactly.
  void audit() {
    // Free every remaining live object through the driver, verifying each
    // object's contents on the way out — the full round-trip check.
    while (!Order.empty() && R.Ok) {
      void *Ptr = modelTakeAt(Order.size() - 1);
      if (Ptr == nullptr)
        return;
      Heap.deallocate(Ptr);
    }
    if (!R.Ok)
      return;
    // Quiescence: workers flush and exit (their caches retire), the
    // driver's cache flushes, every sidecar drains.
    Pool->flushAll();
    Pool.reset();
    Heap.flushThreadCache();
    Heap.drainRemoteFrees();

    DieHardStats S = Heap.stats();
    uint64_t ExpectedWild = R.Injected[WildRealloc];
    if (S.Allocations != S.Frees) {
      fail("quiescence: Allocations " + std::to_string(S.Allocations) +
           " != Frees " + std::to_string(S.Frees));
      return;
    }
    if (S.LargeAllocations != S.LargeFrees) {
      fail("quiescence: LargeAllocations " +
           std::to_string(S.LargeAllocations) + " != LargeFrees " +
           std::to_string(S.LargeFrees));
      return;
    }
    if (S.IgnoredFrees != ExpectedIgnored) {
      fail("injected " + std::to_string(ExpectedIgnored) +
           " bad frees but IgnoredFrees is " +
           std::to_string(S.IgnoredFrees));
      return;
    }
    if (S.ReallocRejects != ExpectedWild) {
      fail("injected " + std::to_string(ExpectedWild) +
           " wild reallocs but ReallocRejects is " +
           std::to_string(S.ReallocRejects));
      return;
    }
    if (Cfg.deterministic() && S.FailedAllocations != R.FailedAllocs) {
      fail("saw " + std::to_string(R.FailedAllocs) +
           " refused allocations but FailedAllocations is " +
           std::to_string(S.FailedAllocations));
      return;
    }
    if (S.CachedSlots != 0 || Heap.cachedSlots() != 0) {
      fail("cached slots leaked after full flush: " +
           std::to_string(Heap.cachedSlots()));
      return;
    }
    if (Heap.pendingRemoteFrees() != 0) {
      fail("sidecar entries still pending after drain");
      return;
    }
    if (Heap.bytesLive() != 0) {
      fail("quiescence: " + std::to_string(Heap.bytesLive()) +
           " bytes still live with no model objects");
      return;
    }
    if (Heap.liveLargeObjects() != 0) {
      fail("large objects leaked");
      return;
    }
    // The locked and lock-free aggregation paths must agree at
    // quiescence — a second, independent set of books over the same run.
    DieHardStats A = Heap.statsApprox();
    if (A.Allocations != S.Allocations || A.Frees != S.Frees ||
        A.IgnoredFrees != S.IgnoredFrees ||
        A.ReallocRejects != S.ReallocRejects) {
      fail("stats() and statsApprox() disagree at quiescence");
      return;
    }
    R.FinalStats = S;
  }

  static constexpr size_t MaxLive = 512;
  static constexpr size_t GraveSlots = 64;

  FuzzResult &R;
  const FuzzConfig &Cfg;
  ShardedHeap &Heap;
  ByteReader Rd;
  std::unique_ptr<WorkerPool> Pool;
  std::map<uintptr_t, ModelObject> Live;
  std::vector<uintptr_t> Order;
  uintptr_t Graveyard[GraveSlots] = {};
  size_t GraveCount = 0;
  size_t GravePos = 0;
  std::vector<uintptr_t> ShardBases;
  uint64_t OpIndex = 0;
  uint64_t ExpectedIgnored = 0;
};

} // namespace

const char *errorClassName(int Class) {
  switch (Class) {
  case DoubleFree:
    return "double_free";
  case InvalidFree:
    return "invalid_free";
  case MisalignedFree:
    return "misaligned_free";
  case CrossThreadDoubleFree:
    return "cross_thread_double_free";
  case WildRealloc:
    return "wild_realloc";
  default:
    return "unknown";
  }
}

uint64_t fuzzBaseSeed() {
  const char *Env = std::getenv("DIEHARD_SEED");
  if (Env != nullptr && Env[0] != '\0') {
    uint64_t V = std::strtoull(Env, nullptr, 10);
    if (V != 0)
      return V;
  }
  return 0xD1E4A12DFA57ULL;
}

FuzzConfig decodeFuzzConfig(const uint8_t *Data, size_t Size,
                            uint64_t BaseSeed) {
  auto At = [&](size_t I) -> uint8_t { return I < Size ? Data[I] : 0; };
  uint8_t B0 = At(0), B1 = At(1), B2 = At(2), B3 = At(3);
  FuzzConfig C;
  C.NumShards = 1 + (B1 & 3);
  C.ThreadCacheSlots = (B0 & 1) != 0 ? 8 : 0;
  // Bit 1 is unused: the layout stays fixed so committed inputs keep
  // decoding to the same configuration.
  C.Sweeper = (B0 & 4) != 0;
  C.Overflow = (B0 & 8) == 0;
  C.RandomFill = (B0 & 16) != 0;
  // Small reservations on purpose: saturation, overflow routing and
  // allocation failure are part of the searched surface.
  C.HeapSize = (B0 & 32) != 0 ? (8u << 20) : (24u << 20);
  // Bits 6-7 pick the page-return policy. Only code 3 selects Off; codes
  // 0-2 keep the DontNeed default, so random inputs mostly exercise the
  // production configuration.
  C.PageReturn =
      (B0 >> 6) == 3 ? PageReturnPolicy::Off : PageReturnPolicy::DontNeed;
  C.Workers = (B1 >> 2) & 3;
  C.SweepIntervalMs = 1 + ((B1 >> 4) & 7); // 1..8 ms epochs.
  // B1's top bit is unused, like B0's bit 1: the layout stays fixed so
  // committed inputs keep decoding to the same configuration.
  C.Seed = Rng::deriveStream(BaseSeed, 1 + B2 + 256 * B3);
  if (C.Seed == 0)
    C.Seed = 0x5EEDULL; // Zero would select true randomness.
  return C;
}

FuzzResult runFuzzSequence(const uint8_t *Data, size_t Size,
                           uint64_t BaseSeed) {
  FuzzResult R;
  R.Config = decodeFuzzConfig(Data, Size, BaseSeed);
  const FuzzConfig &Cfg = R.Config;

  ShardedHeapOptions Opts;
  Opts.Heap.HeapSize = Cfg.HeapSize;
  Opts.Heap.Seed = Cfg.Seed;
  Opts.Heap.RandomFillObjects = Cfg.RandomFill;
  Opts.Heap.RandomFillOnFree = Cfg.RandomFill;
  Opts.NumShards = Cfg.NumShards;
  Opts.OverflowRouting = Cfg.Overflow;
  Opts.ThreadCacheSlots = Cfg.ThreadCacheSlots;
  Opts.Sweeper = Cfg.Sweeper;
  // Fast epochs either way: aging must happen mid-sequence.
  Opts.SweepIntervalMs = Cfg.SweepIntervalMs;

  // The page-return policy is process state; apply the decoded one for the
  // duration of this sequence and restore whatever the host had. The fuzz
  // claim being checked: releasing object-free pages mid-sequence never
  // perturbs placement, contents, or the books.
  PageReturnPolicy HostPolicy = MmapRegion::pageReturnPolicy();
  MmapRegion::setPageReturnPolicy(Cfg.PageReturn);

  // The driver's home shard comes from the input too, not from how many
  // threads allocated earlier in this process.
  ShardedHeap::pinThreadToken(0);
  {
    ShardedHeap Heap(Opts);
    if (Heap.isValid()) {
      Driver D(R, Heap, Data, Size);
      D.run();
    }
    // else: reservation failure, nothing to differentiate.
  }
  MmapRegion::setPageReturnPolicy(HostPolicy);
  return R;
}

FuzzResult runFuzzSequence(const uint8_t *Data, size_t Size) {
  return runFuzzSequence(Data, Size, fuzzBaseSeed());
}

} // namespace fuzz
} // namespace diehard
