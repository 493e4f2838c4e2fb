//===- core/DieHardHeap.cpp -----------------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the randomized M-heap as a composition of per-class
/// RandomizedPartition objects: construction carves the reservation into
/// twelve regions, and each request is routed to the partition (or the
/// large-object manager) that covers it.
///
//===----------------------------------------------------------------------===//

#include "core/DieHardHeap.h"

#include "support/RealRandomSource.h"

#include <cassert>
#include <cstring>

namespace diehard {

DieHardHeap::DieHardHeap(const DieHardOptions &Options) : Opts(Options) {
  assert(Opts.M > 1.0 && "expansion factor M must exceed 1");
  ResolvedSeed = Opts.Seed != 0 ? Opts.Seed : realRandomSeed();
  Rand.setSeed(ResolvedSeed);

  // Divide the reservation evenly into one partition per size class, keeping
  // each partition a multiple of the largest object size so every slot of
  // every class is naturally aligned within its partition.
  PartitionSize = Opts.HeapSize / SizeClass::NumClasses;
  PartitionSize -= PartitionSize % SizeClass::MaxObjectSize;
  if (PartitionSize == 0)
    return; // Heap too small to be usable; isValid() stays false.

  if (!Heap.map(PartitionSize * SizeClass::NumClasses))
    return;

  for (int C = 0; C < NumPartitions; ++C) {
    size_t ObjectSize = SizeClass::classToSize(C);
    char *Region = static_cast<char *>(Heap.base()) +
                   static_cast<size_t>(C) * PartitionSize;
    // Streams are numbered from 1 so no partition shares the heap-level
    // stream (stream 0 with the class gamma is the seed itself).
    uint64_t Stream = Rng::deriveStream(
        ResolvedSeed, static_cast<uint64_t>(C) + 1, Rng::ClassStreamGamma);
    if (!Partitions[C].init(Region, ObjectSize, PartitionSize / ObjectSize,
                            Opts.M, Stream, Opts.RandomFillObjects,
                            Opts.RandomFillOnFree, Opts.InitialActiveSlots)) {
      // Metadata mapping failed: render the heap invalid rather than
      // faulting on the first probe.
      Heap.unmap();
      return;
    }
  }

  // REPLICATED (Figure 2): fill the whole heap with random values.
  if (Opts.RandomFillHeapOnInit)
    randomFill(Heap.base(), Heap.size());
}

DieHardHeap::~DieHardHeap() = default;

const RandomizedPartition &DieHardHeap::partition(int Class) const {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  return Partitions[Class];
}

void DieHardHeap::randomFill(void *Ptr, size_t Size) {
  // Sizes here are always multiples of 4 after the callers' masking.
  randomFillWords(Rand, Ptr, Size);
}

void *DieHardHeap::allocate(size_t Size) {
  if (!isValid() || Size == 0)
    return nullptr;

  if (Size > SizeClass::MaxObjectSize) {
    void *Ptr = LargeObjects.allocate(Size);
    if (Ptr == nullptr) {
      ++LargeFailedCount;
      return nullptr;
    }
    ++LargeAllocationCount;
    LargeLiveBytes += Size;
    if (Opts.RandomFillObjects)
      randomFill(Ptr, Size & ~size_t(3));
    return Ptr;
  }

  return Partitions[SizeClass::sizeToClass(Size)].allocate();
}

size_t DieHardHeap::claimCachedSlots(int Class, void **Out,
                                     size_t MaxCount) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  return Partitions[Class].claimRandomSlots(Out, MaxCount);
}

void DieHardHeap::reclaimCachedSlots(int Class, void *const *Ptrs,
                                     size_t Count) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  Partitions[Class].reclaimSlots(Ptrs, Count);
}

size_t DieHardHeap::deallocateBatch(int Class, void *const *Ptrs,
                                    size_t Count) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  return Partitions[Class].deallocateBatch(Ptrs, Count);
}

void DieHardHeap::remoteFree(int Class, void *Ptr) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  Partitions[Class].remoteFree(Ptr);
}

void DieHardHeap::remoteFreeBatch(int Class, void *const *Ptrs,
                                  size_t Count) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  Partitions[Class].remoteFreeBatch(Ptrs, Count);
}

size_t DieHardHeap::drainRemoteFrees(int Class) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  return Partitions[Class].drainRemoteFrees();
}

RandomizedPartition::MaintainOutcome DieHardHeap::maintain(int Class) {
  assert(Class >= 0 && Class < NumPartitions && "size class out of range");
  return Partitions[Class].maintain();
}

void addPartitionStats(DieHardStats &Total, const RandomizedPartition &P) {
  const PartitionStats &PS = P.stats();
  Total.Allocations += PS.Allocations;
  Total.Frees += PS.Frees;
  Total.FailedAllocations += PS.FailedAllocations;
  Total.IgnoredFrees += PS.IgnoredFrees;
  Total.Probes += PS.Probes;
  Total.ProbeFallbacks += PS.ProbeFallbacks;
  Total.RemoteFrees += P.remoteFrees();
  Total.SidecarDrains += PS.SidecarDrains;
  Total.SweeperDrainedRemote += PS.SweeperDrained;
  Total.PagesReturned += PS.PagesReturned;
  Total.PartialReturns += PS.PartialReturns;
  Total.SpansReleased += PS.SpansReleased;
  // Push-time rejects are double/invalid frees the sidecar refused; they
  // never reach a partition's IgnoredFrees counter, so fold them here.
  Total.IgnoredFrees += P.remoteFreeRejects();
  // In-flight (undrained) sidecar entries fold into Frees exactly like
  // the sharded layer's parked deferred-buffer frees: the user's free
  // already happened, only materialization is pending.
  Total.Frees += P.pendingRemoteFrees();
}

int DieHardHeap::partitionIndexOf(const void *Ptr) const {
  if (!Heap.contains(Ptr))
    return -1;
  size_t Offset = static_cast<size_t>(static_cast<const char *>(Ptr) -
                                      static_cast<const char *>(Heap.base()));
  return static_cast<int>(Offset / PartitionSize);
}

void DieHardHeap::deallocate(void *Ptr) {
  if (Ptr == nullptr)
    return;

  // Addresses outside the heap area may be large objects; the large-object
  // table validates them (Section 4.3).
  int C = partitionIndexOf(Ptr);
  if (C < 0) {
    size_t Size = LargeObjects.getSize(Ptr);
    if (Size != 0 && LargeObjects.deallocate(Ptr)) {
      ++LargeFreeCount;
      LargeLiveBytes -= Size;
      return;
    }
    ++ForeignIgnoredFrees;
    return;
  }
  Partitions[C].deallocate(Ptr);
}

void *DieHardHeap::reallocate(void *Ptr, size_t NewSize) {
  if (Ptr == nullptr)
    return allocate(NewSize);
  if (NewSize == 0) {
    deallocate(Ptr);
    return nullptr;
  }
  size_t OldSize = getObjectSize(Ptr);
  if (OldSize == 0) {
    ++ReallocRejectCount;
    return nullptr; // Not one of ours; refuse rather than corrupt.
  }
  // Small objects can grow in place up to their rounded class size.
  if (Heap.contains(Ptr) && NewSize <= OldSize &&
      NewSize > OldSize / 2)
    return Ptr;
  void *Fresh = allocate(NewSize);
  if (Fresh == nullptr)
    return nullptr;
  std::memcpy(Fresh, Ptr, OldSize < NewSize ? OldSize : NewSize);
  deallocate(Ptr);
  return Fresh;
}

void *DieHardHeap::allocateZeroed(size_t Count, size_t Size) {
  if (Count != 0 && Size > SIZE_MAX / Count)
    return nullptr;
  size_t Total = Count * Size;
  void *Ptr = allocate(Total);
  if (Ptr != nullptr)
    std::memset(Ptr, 0, Total);
  return Ptr;
}

size_t DieHardHeap::getObjectSize(const void *Ptr) const {
  if (Ptr == nullptr)
    return 0;
  int C = partitionIndexOf(Ptr);
  if (C < 0)
    return LargeObjects.getSize(Ptr);
  return Partitions[C].objectSize(Ptr);
}

void *DieHardHeap::getObjectStart(const void *Ptr) const {
  if (Ptr == nullptr)
    return nullptr;
  int C = partitionIndexOf(Ptr);
  if (C < 0) {
    // Large objects are only matched by their base address.
    return LargeObjects.contains(Ptr) ? const_cast<void *>(Ptr) : nullptr;
  }
  return Partitions[C].objectStart(Ptr);
}

size_t DieHardHeap::bytesLive() const {
  size_t Total = LargeLiveBytes;
  for (const RandomizedPartition &P : Partitions)
    Total += P.liveBytes();
  return Total;
}

void DieHardHeap::addHeapStats(DieHardStats &Total) const {
  Total.LargeAllocations += LargeAllocationCount;
  Total.LargeFrees += LargeFreeCount;
  Total.FailedAllocations += LargeFailedCount;
  Total.IgnoredFrees += ForeignIgnoredFrees;
  Total.ReallocRejects += ReallocRejectCount;
}

DieHardStats DieHardHeap::stats() const {
  DieHardStats S;
  for (const RandomizedPartition &P : Partitions)
    addPartitionStats(S, P);
  addHeapStats(S);
  return S;
}

void DieHardHeap::forEachLiveObject(
    const std::function<void(int Class, size_t Slot, const void *Ptr,
                             size_t Size)> &Visit) const {
  for (int C = 0; C < NumPartitions; ++C) {
    size_t ObjectSize = SizeClass::classToSize(C);
    Partitions[C].forEachLive([&](size_t Slot, const void *Ptr) {
      Visit(C, Slot, Ptr, ObjectSize);
    });
  }
}

} // namespace diehard
