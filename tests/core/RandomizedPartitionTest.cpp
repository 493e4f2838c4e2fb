//===- tests/core/RandomizedPartitionTest.cpp -----------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct tests for the per-size-class RandomizedPartition: geometry and
/// threshold installation, the probe/fallback discipline, free validation,
/// lock-free gauges, stream derivation, and the deterministic live-object
/// walk the heap-differencing debugger depends on.
///
//===----------------------------------------------------------------------===//

#include "core/RandomizedPartition.h"

#include "core/DieHardHeap.h"
#include "support/MmapRegion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

namespace diehard {
namespace {

/// A partition over its own private mapping, for driving the class without
/// a surrounding heap.
struct PartitionFixture {
  MmapRegion Region;
  RandomizedPartition Partition;

  PartitionFixture(size_t ObjectSize, size_t Slots, double M = 2.0,
                   uint64_t Seed = 42, bool FillOnAllocate = false,
                   bool FillOnFree = false, size_t InitialActive = 0) {
    EXPECT_TRUE(Region.map(ObjectSize * Slots));
    EXPECT_TRUE(Partition.init(Region.base(), ObjectSize, Slots, M, Seed,
                               FillOnAllocate, FillOnFree, InitialActive));
  }
};

/// Slot index of \p P inside \p F (the inverse of the placement map —
/// exact, since geometry is immutable).
size_t slotOf(const PartitionFixture &F, const void *P) {
  return static_cast<size_t>(static_cast<const char *>(P) -
                             static_cast<const char *>(F.Region.base())) /
         F.Partition.objectBytes();
}

TEST(RandomizedPartitionTest, InstallsGeometryAndThreshold) {
  PartitionFixture F(64, 1024, 2.0, 7);
  EXPECT_EQ(F.Partition.objectBytes(), 64u);
  EXPECT_EQ(F.Partition.slots(), 1024u);
  EXPECT_EQ(F.Partition.threshold(), 512u) << "1/M of the slots with M=2";
  EXPECT_EQ(F.Partition.live(), 0u);
  EXPECT_EQ(F.Partition.liveBytes(), 0u);
  EXPECT_EQ(F.Partition.streamSeed(), 7u);
  EXPECT_EQ(F.Partition.base(), F.Region.base());
}

TEST(RandomizedPartitionTest, AllocatesDistinctSlotsUpToThreshold) {
  PartitionFixture F(128, 256);
  std::set<void *> Seen;
  for (size_t I = 0; I < F.Partition.threshold(); ++I) {
    void *P = F.Partition.allocate();
    ASSERT_NE(P, nullptr) << "allocation " << I;
    EXPECT_TRUE(F.Partition.contains(P));
    EXPECT_TRUE(Seen.insert(P).second) << "slot handed out twice";
  }
  // At the 1/M bound: refused, and counted as a failure.
  EXPECT_EQ(F.Partition.allocate(), nullptr);
  EXPECT_GE(F.Partition.stats().FailedAllocations, 1u);
  EXPECT_EQ(F.Partition.live(), F.Partition.threshold());
  EXPECT_EQ(F.Partition.fill(), 1.0);
}

TEST(RandomizedPartitionTest, DeallocateValidatesOffsetAndLiveness) {
  PartitionFixture F(64, 128);
  auto *P = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(P, nullptr);
  // Misaligned interior pointer: ignored.
  EXPECT_FALSE(F.Partition.deallocate(P + 8));
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 1u);
  EXPECT_EQ(F.Partition.objectSize(P), 64u) << "object must still be live";
  // Correct free succeeds once.
  EXPECT_TRUE(F.Partition.deallocate(P));
  EXPECT_EQ(F.Partition.live(), 0u);
  // Double free: ignored.
  EXPECT_FALSE(F.Partition.deallocate(P));
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 2u);
  EXPECT_EQ(F.Partition.stats().Frees, 1u);
}

TEST(RandomizedPartitionTest, LiveBytesTrackRoundedSizes) {
  PartitionFixture F(256, 64);
  void *A = F.Partition.allocate();
  void *B = F.Partition.allocate();
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(F.Partition.liveBytes(), 512u);
  F.Partition.deallocate(A);
  EXPECT_EQ(F.Partition.liveBytes(), 256u);
  F.Partition.deallocate(B);
  EXPECT_EQ(F.Partition.liveBytes(), 0u);
}

TEST(RandomizedPartitionTest, ObjectQueriesHandleInteriorPointers) {
  PartitionFixture F(512, 64);
  auto *P = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(F.Partition.objectStart(P), P);
  EXPECT_EQ(F.Partition.objectStart(P + 511), P);
  EXPECT_EQ(F.Partition.objectSize(P + 100), 512u);
  F.Partition.deallocate(P);
  EXPECT_EQ(F.Partition.objectStart(P), nullptr);
  EXPECT_EQ(F.Partition.objectSize(P), 0u);
}

TEST(RandomizedPartitionTest, ClaimRandomSlotFallsBackWhenCrowded) {
  // Fill the bitmap to all-but-one slot; 64 random probes into a 1/256
  // chance miss almost surely, forcing the linear fallback — which must
  // still find the lone free slot.
  Bitmap Bits(256);
  for (size_t I = 0; I < 256; ++I)
    if (I != 137)
      Bits.trySet(I);
  Rng Rand(99);
  uint64_t Probes = 0, Fallbacks = 0;
  size_t Index = claimRandomSlot(Bits, Rand, 256, Probes, Fallbacks);
  EXPECT_EQ(Index, 137u);
  EXPECT_GE(Probes, 1u);
  // A full bitmap reports exhaustion instead of spinning.
  uint64_t P2 = 0, F2 = 0;
  EXPECT_EQ(claimRandomSlot(Bits, Rand, 256, P2, F2), 256u);
}

TEST(RandomizedPartitionTest, DistinctSeedsGiveDistinctPlacement) {
  PartitionFixture A(64, 4096, 2.0, 1);
  PartitionFixture B(64, 4096, 2.0, 2);
  int SameSlot = 0;
  for (int I = 0; I < 64; ++I) {
    auto *PA = static_cast<char *>(A.Partition.allocate());
    auto *PB = static_cast<char *>(B.Partition.allocate());
    ASSERT_NE(PA, nullptr);
    ASSERT_NE(PB, nullptr);
    SameSlot +=
        (PA - static_cast<char *>(A.Region.base())) ==
                (PB - static_cast<char *>(B.Region.base()))
            ? 1
            : 0;
  }
  EXPECT_LT(SameSlot, 8) << "different streams must place differently";
}

TEST(RandomizedPartitionTest, SameSeedReproducesPlacement) {
  PartitionFixture A(64, 4096, 2.0, 5);
  PartitionFixture B(64, 4096, 2.0, 5);
  for (int I = 0; I < 256; ++I) {
    auto *PA = static_cast<char *>(A.Partition.allocate());
    auto *PB = static_cast<char *>(B.Partition.allocate());
    ASSERT_EQ(PA - static_cast<char *>(A.Region.base()),
              PB - static_cast<char *>(B.Region.base()))
        << "allocation " << I;
  }
}

TEST(RandomizedPartitionTest, ForEachLiveVisitsSlotsAscending) {
  PartitionFixture F(64, 512);
  std::vector<void *> Held;
  for (int I = 0; I < 40; ++I)
    Held.push_back(F.Partition.allocate());
  size_t Count = 0;
  size_t LastSlot = 0;
  bool First = true;
  F.Partition.forEachLive([&](size_t Slot, const void *Ptr) {
    if (!First) {
      EXPECT_GT(Slot, LastSlot) << "walk must be slot-ascending";
    }
    First = false;
    LastSlot = Slot;
    EXPECT_TRUE(F.Partition.contains(Ptr));
    ++Count;
  });
  EXPECT_EQ(Count, 40u);
  for (void *P : Held)
    F.Partition.deallocate(P);
}

TEST(RandomizedPartitionTest, RandomFillOnAllocateAndFree) {
  PartitionFixture F(256, 64, 2.0, 11, /*FillOnAllocate=*/true,
                     /*FillOnFree=*/true);
  auto *P = static_cast<uint32_t *>(F.Partition.allocate());
  ASSERT_NE(P, nullptr);
  int NonZero = 0;
  for (int I = 0; I < 64; ++I)
    NonZero += P[I] != 0 ? 1 : 0;
  EXPECT_GT(NonZero, 50) << "replicated mode fills fresh objects";
  uint32_t BeforeFree[64];
  std::memcpy(BeforeFree, P, sizeof(BeforeFree));
  F.Partition.deallocate(P);
  EXPECT_NE(std::memcmp(BeforeFree, P, sizeof(BeforeFree)), 0)
      << "free must scramble the slot in replicated mode";
}

TEST(RandomizedPartitionTest, HeapPartitionStreamsAreDecorrelated) {
  // The heap derives one stream per class from its seed; no two partitions
  // (and no partition and the heap-level stream) may share a seed.
  DieHardOptions O;
  O.HeapSize = 48 * 1024 * 1024;
  O.Seed = 42;
  DieHardHeap H(O);
  ASSERT_TRUE(H.isValid());
  std::set<uint64_t> Streams;
  Streams.insert(H.seed());
  for (int C = 0; C < DieHardHeap::NumPartitions; ++C)
    Streams.insert(H.partition(C).streamSeed());
  EXPECT_EQ(Streams.size(),
            static_cast<size_t>(DieHardHeap::NumPartitions) + 1);
}

TEST(RandomizedPartitionTest, HeapExposesPartitionGauges) {
  DieHardOptions O;
  O.HeapSize = 48 * 1024 * 1024;
  O.Seed = 43;
  DieHardHeap H(O);
  int C = SizeClass::sizeToClass(1024);
  void *P = H.allocate(1024);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.partition(C).live(), 1u);
  EXPECT_EQ(H.partition(C).liveBytes(), 1024u);
  EXPECT_GT(H.partition(C).fill(), 0.0);
  EXPECT_EQ(H.partitionIndexOf(P), C);
  int Stack;
  EXPECT_EQ(H.partitionIndexOf(&Stack), -1);
  H.deallocate(P);
  EXPECT_EQ(H.partition(C).fill(), 0.0);
}

TEST(RandomizedPartitionTest, BatchClaimRespectsThresholdAndIsDistinct) {
  PartitionFixture F(128, 64); // Threshold 32.
  void *Batch[64];
  size_t N = F.Partition.claimRandomSlots(Batch, 20);
  EXPECT_EQ(N, 20u);
  EXPECT_EQ(F.Partition.live(), 20u) << "claimed slots count as live";
  EXPECT_EQ(F.Partition.liveBytes(), 20u * 128u);
  EXPECT_EQ(F.Partition.stats().ClaimedSlots, 20u);
  EXPECT_EQ(F.Partition.stats().Allocations, 0u)
      << "claims are not user allocations";
  std::set<void *> Seen;
  for (size_t I = 0; I < N; ++I) {
    EXPECT_TRUE(F.Partition.contains(Batch[I]));
    EXPECT_TRUE(Seen.insert(Batch[I]).second) << "slot claimed twice";
  }

  // A second claim is clipped to the 1/M bound, and a third returns 0.
  void *More[64];
  size_t M = F.Partition.claimRandomSlots(More, 20);
  EXPECT_EQ(M, 12u) << "claim clipped at the threshold";
  EXPECT_EQ(F.Partition.fill(), 1.0);
  EXPECT_EQ(F.Partition.claimRandomSlots(More + M, 20), 0u);
  EXPECT_EQ(F.Partition.stats().FailedAllocations, 0u)
      << "a refused batch claim is not a user-visible failed malloc";

  // Interleaved single allocations also see the bound.
  EXPECT_EQ(F.Partition.allocate(), nullptr);
  EXPECT_EQ(F.Partition.stats().FailedAllocations, 1u);

  // Reclaim restores capacity without touching Frees.
  F.Partition.reclaimSlots(Batch, N);
  F.Partition.reclaimSlots(More, M);
  EXPECT_EQ(F.Partition.live(), 0u);
  EXPECT_EQ(F.Partition.liveBytes(), 0u);
  EXPECT_EQ(F.Partition.stats().ReturnedSlots, 32u);
  EXPECT_EQ(F.Partition.stats().Frees, 0u);
  EXPECT_NE(F.Partition.allocate(), nullptr);
}

TEST(RandomizedPartitionTest, BatchDeallocateValidatesEachPointer) {
  PartitionFixture F(64, 256);
  void *Batch[8];
  size_t N = F.Partition.claimRandomSlots(Batch, 8);
  ASSERT_EQ(N, 8u);

  // A batch containing a double free and a misaligned pointer frees only
  // the valid entries and counts the rest as ignored.
  void *Frees[10];
  std::memcpy(Frees, Batch, sizeof(Batch));
  Frees[8] = Batch[0]; // Double free within the batch.
  Frees[9] = static_cast<char *>(Batch[1]) + 1; // Misaligned.
  EXPECT_EQ(F.Partition.deallocateBatch(Frees, 10), 8u);
  EXPECT_EQ(F.Partition.stats().Frees, 8u);
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 2u);
  EXPECT_EQ(F.Partition.live(), 0u);
}

/// Slot indices of \p P's live objects, ascending.
std::vector<size_t> liveSlots(const RandomizedPartition &P) {
  std::vector<size_t> Slots;
  P.forEachLive([&](size_t Slot, const void *) { Slots.push_back(Slot); });
  return Slots;
}

TEST(RandomizedPartitionTest, BatchDeallocateMatchesLoopedDeallocate) {
  // The one-pass batch free must be observably the same as freeing its
  // pointers one by one: same checks in the same order, same counters,
  // same live set, and the same free-fill words drawn from the stream.
  constexpr size_t Object = 64, Slots = 256;
  PartitionFixture Batched(Object, Slots, 2.0, 5, false, true);
  PartitionFixture Looped(Object, Slots, 2.0, 5, false, true);
  std::vector<size_t> Made;
  for (int I = 0; I < 20; ++I) {
    void *A = Batched.Partition.allocate();
    void *B = Looped.Partition.allocate();
    ASSERT_NE(A, nullptr);
    ASSERT_EQ(slotOf(Batched, A), slotOf(Looped, B)) << "same seed";
    Made.push_back(slotOf(Batched, A));
  }
  // Slot Made[3] is already free when the batch arrives.
  for (PartitionFixture *F : {&Batched, &Looped})
    ASSERT_TRUE(F->Partition.deallocate(
        static_cast<char *>(F->Region.base()) + Made[3] * Object));

  // Byte offsets into the region: the first 16 objects (one of them
  // already free), an in-batch duplicate, and a misaligned pointer.
  std::vector<size_t> Offsets;
  for (size_t I = 0; I < 16; ++I)
    Offsets.push_back(Made[I] * Object);
  Offsets.push_back(Made[5] * Object);
  Offsets.push_back(Made[7] * Object + 8);
  auto pointersInto = [&](PartitionFixture &F) {
    std::vector<void *> Ptrs;
    for (size_t Offset : Offsets)
      Ptrs.push_back(static_cast<char *>(F.Region.base()) + Offset);
    return Ptrs;
  };
  std::vector<void *> BatchPtrs = pointersInto(Batched);
  std::vector<void *> LoopPtrs = pointersInto(Looped);

  size_t BatchFreed =
      Batched.Partition.deallocateBatch(BatchPtrs.data(), BatchPtrs.size());
  size_t LoopFreed = 0;
  for (void *P : LoopPtrs)
    LoopFreed += Looped.Partition.deallocate(P);

  EXPECT_EQ(BatchFreed, 15u);
  EXPECT_EQ(BatchFreed, LoopFreed);
  const PartitionStats &SB = Batched.Partition.stats();
  const PartitionStats &SL = Looped.Partition.stats();
  EXPECT_EQ(SB.Frees, SL.Frees);
  EXPECT_EQ(SB.IgnoredFrees, SL.IgnoredFrees);
  EXPECT_EQ(SB.IgnoredFrees, 3u);
  EXPECT_EQ(Batched.Partition.live(), Looped.Partition.live());
  EXPECT_EQ(Batched.Partition.live(), 4u);
  EXPECT_EQ(Batched.Partition.liveBytes(), Looped.Partition.liveBytes());
  EXPECT_EQ(liveSlots(Batched.Partition), liveSlots(Looped.Partition));
  // Freed objects hold the same fill words; live ones are untouched.
  const auto *Filled = static_cast<const unsigned char *>(
      Batched.Region.base()) + Made[0] * Object;
  EXPECT_TRUE(std::any_of(Filled, Filled + Object,
                          [](unsigned char B) { return B != 0; }))
      << "FillOnFree must have filled the freed object";
  EXPECT_EQ(std::memcmp(Batched.Region.base(), Looped.Region.base(),
                        Object * Slots),
            0);
}

TEST(RandomizedPartitionTest, AllocateRecountsLiveAfterAProbeDrains) {
  // allocate() reads the live count before probing, and a probe that lands
  // on a slot with a stale sidecar entry drains the sidecar, which may
  // free other slots. The count stored afterwards must include that drain.
  PartitionFixture F(64, 8, 2.0, 11);
  auto *A = static_cast<char *>(F.Partition.allocate());
  auto *B = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(F.Partition.deallocate(A));
  F.Partition.remoteFree(A); // Stale: A is already free.
  F.Partition.remoteFree(B); // Valid: B is live.
  ASSERT_EQ(F.Partition.pendingRemoteFrees(), 2u);

  // Allocate until a probe lands on A: its drain ignores A's stale entry
  // (IgnoredFrees rises by one) and frees B.
  const uint64_t Ignored = F.Partition.stats().IgnoredFrees;
  void *P = nullptr;
  for (int Attempt = 0; Attempt < 1000; ++Attempt) {
    P = F.Partition.allocate();
    ASSERT_NE(P, nullptr);
    if (F.Partition.stats().IgnoredFrees != Ignored)
      break;
    ASSERT_TRUE(F.Partition.deallocate(P));
  }
  const PartitionStats &S = F.Partition.stats();
  ASSERT_EQ(S.IgnoredFrees, Ignored + 1) << "no probe ever landed on A";
  EXPECT_EQ(F.Partition.pendingRemoteFrees(), 0u);
  EXPECT_EQ(F.Partition.live(),
            S.Allocations + S.ClaimedSlots - S.Frees - S.ReturnedSlots);
  EXPECT_EQ(F.Partition.live(), 1u) << "only the last allocation is live";
  EXPECT_EQ(liveSlots(F.Partition), std::vector<size_t>{slotOf(F, P)});
}

TEST(RandomizedPartitionTest, BatchClaimDrawsFromTheUniformDiscipline) {
  // Claiming K slots must hit every slot with the same long-run frequency
  // as repeated single allocations: claim/reclaim batches over many rounds
  // and chi-square the slot histogram against uniform.
  PartitionFixture F(64, 64, 2.0, 99);
  std::vector<uint64_t> Histogram(64, 0);
  constexpr int Rounds = 600;
  void *Batch[16];
  for (int R = 0; R < Rounds; ++R) {
    size_t N = F.Partition.claimRandomSlots(Batch, 16);
    ASSERT_EQ(N, 16u);
    for (size_t I = 0; I < N; ++I) {
      size_t Slot = (static_cast<char *>(Batch[I]) -
                     static_cast<const char *>(F.Partition.base())) /
                    64;
      ++Histogram[Slot];
    }
    F.Partition.reclaimSlots(Batch, N);
  }
  double Expected = Rounds * 16.0 / 64.0;
  double Chi2 = 0.0;
  for (uint64_t Count : Histogram) {
    double D = static_cast<double>(Count) - Expected;
    Chi2 += D * D / Expected;
  }
  // df = 63, alpha = 0.001 critical value 103.4; fixed seed, so the
  // statistic is deterministic.
  EXPECT_LT(Chi2, 103.4);
}

TEST(RandomizedPartitionTest, RemoteFreePushAndDrain) {
  // The sidecar at partition level: pushes park slots (still live, still
  // bit-set), the drain materializes them through the validated free.
  PartitionFixture F(64, 128);
  void *A = F.Partition.allocate();
  void *B = F.Partition.allocate();
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);

  F.Partition.remoteFree(A);
  F.Partition.remoteFree(B);
  EXPECT_EQ(F.Partition.remoteFrees(), 2u);
  EXPECT_EQ(F.Partition.pendingRemoteFrees(), 2u);
  EXPECT_TRUE(F.Partition.hasPendingRemoteFrees());
  EXPECT_EQ(F.Partition.live(), 2u)
      << "pushed slots stay in the live gauge until drained";
  EXPECT_EQ(F.Partition.objectSize(A), 64u) << "and stay bit-set";
  EXPECT_EQ(F.Partition.stats().Frees, 0u);

  EXPECT_EQ(F.Partition.drainRemoteFrees(), 2u);
  EXPECT_EQ(F.Partition.pendingRemoteFrees(), 0u);
  EXPECT_FALSE(F.Partition.hasPendingRemoteFrees());
  EXPECT_EQ(F.Partition.live(), 0u);
  EXPECT_EQ(F.Partition.stats().Frees, 2u);
  EXPECT_EQ(F.Partition.stats().SidecarDrains, 1u);
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 0u);

  // Empty drain: no work, no SidecarDrains tick.
  EXPECT_EQ(F.Partition.drainRemoteFrees(), 0u);
  EXPECT_EQ(F.Partition.stats().SidecarDrains, 1u);
}

TEST(RandomizedPartitionTest, RemoteFreeValidation) {
  PartitionFixture F(64, 128);
  auto *P = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(P, nullptr);

  // Misaligned pointer: rejected at push time from immutable geometry.
  F.Partition.remoteFree(P + 8);
  EXPECT_EQ(F.Partition.remoteFrees(), 0u);
  EXPECT_EQ(F.Partition.remoteFreeRejects(), 1u);

  // Double push before a drain: the link-word claim fails, the second
  // free is rejected, the chain stays intact.
  F.Partition.remoteFree(P);
  F.Partition.remoteFree(P);
  EXPECT_EQ(F.Partition.remoteFrees(), 1u);
  EXPECT_EQ(F.Partition.remoteFreeRejects(), 2u);
  EXPECT_EQ(F.Partition.drainRemoteFrees(), 1u);
  EXPECT_EQ(F.Partition.stats().Frees, 1u);

  // Push of a slot that is no longer live: accepted (the push cannot read
  // the bitmap without the lock) but exposed by drain-time validation.
  F.Partition.remoteFree(P);
  EXPECT_EQ(F.Partition.remoteFrees(), 2u);
  EXPECT_EQ(F.Partition.drainRemoteFrees(), 1u);
  EXPECT_EQ(F.Partition.stats().Frees, 1u);
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 1u);
}

TEST(RandomizedPartitionTest, RemoteFreeLifoChainOrder) {
  // The Treiber stack drains newest-first; order is an implementation
  // detail, but the chain must deliver every entry exactly once even when
  // pushes interleave with drains.
  PartitionFixture F(64, 256);
  std::vector<void *> Ptrs;
  for (int I = 0; I < 48; ++I) {
    void *P = F.Partition.allocate();
    ASSERT_NE(P, nullptr);
    Ptrs.push_back(P);
  }
  for (int I = 0; I < 16; ++I)
    F.Partition.remoteFree(Ptrs[static_cast<size_t>(I)]);
  EXPECT_EQ(F.Partition.drainRemoteFrees(), 16u);
  for (int I = 16; I < 48; ++I)
    F.Partition.remoteFree(Ptrs[static_cast<size_t>(I)]);
  EXPECT_EQ(F.Partition.drainRemoteFrees(), 32u);
  EXPECT_EQ(F.Partition.live(), 0u);
  EXPECT_EQ(F.Partition.stats().Frees, 48u);
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 0u);
  EXPECT_EQ(F.Partition.remoteFrees(), 48u);
  EXPECT_EQ(F.Partition.pendingRemoteFrees(), 0u);
}

//===----------------------------------------------------------------------===//
// Partial page return (the free-span scanner behind maintain())
//===----------------------------------------------------------------------===//

/// Pins the page-return policy for a test and restores the default (and
/// the DIEHARD_PAGE_RETURN resolution) afterwards — the policy is process
/// state shared by every test in the binary.
struct PolicyGuard {
  explicit PolicyGuard(PageReturnPolicy P) {
    MmapRegion::setPageReturnPolicy(P);
  }
  ~PolicyGuard() {
    MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
  }
};

TEST(RandomizedPartitionTest, SpanScannerReleasesAroundLiveSlot) {
  // Page-sized objects, so slots and pages coincide: one live slot must
  // pin exactly one page and the scanner must release everything else as
  // at most two spans (the runs on either side of the survivor).
  PolicyGuard Guard(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  PartitionFixture F(Page, 16);
  std::vector<char *> Held;
  for (size_t I = 0; I < F.Partition.threshold(); ++I) {
    auto *P = static_cast<char *>(F.Partition.allocate());
    ASSERT_NE(P, nullptr);
    std::memset(P, 0xAB, Page); // Dirty the page.
    Held.push_back(P);
  }
  char *Survivor = Held.back();
  Held.pop_back();
  for (char *P : Held)
    ASSERT_TRUE(F.Partition.deallocate(P));

  RandomizedPartition::MaintainOutcome Out = F.Partition.maintain();
  EXPECT_EQ(Out.PagesReturned, 15u) << "all pages but the survivor's";
  size_t K = slotOf(F, Survivor);
  EXPECT_EQ(Out.SpansReleased, (K == 0 || K == 15) ? 1u : 2u);
  EXPECT_EQ(F.Partition.releasedPages(), 15u);
  EXPECT_TRUE(F.Partition.pagesReleased());

  // The survivor's data is untouched; the released pages read demand-zero
  // (MADV_DONTNEED drops the 0xAB fill immediately).
  for (size_t I = 0; I < Page; ++I)
    ASSERT_EQ(static_cast<unsigned char>(Survivor[I]), 0xABu) << I;
  for (char *P : Held)
    for (size_t I = 0; I < Page; I += 512)
      ASSERT_EQ(P[I], 0) << "released page must refault zero";

  // Idempotent per span: nothing freed since, so a repeat scan is a no-op
  // (the free-stamp gate short-circuits before the bitmap walk).
  Out = F.Partition.maintain();
  EXPECT_EQ(Out.PagesReturned, 0u);
  EXPECT_EQ(Out.SpansReleased, 0u);
  EXPECT_EQ(F.Partition.stats().PartialReturns, 1u);
}

TEST(RandomizedPartitionTest, SpanScannerRespectsStraddlingObjects) {
  // 3 KB objects on 4 KB pages: most slots straddle a page boundary. A
  // page is releasable only when every slot overlapping it is free, and a
  // live straddler must pin both its pages.
  PolicyGuard Guard(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  const size_t ObjectSize = 3 * Page / 4;
  const size_t Slots = 32; // Region: 24 pages (for Page == 4096).
  const size_t DataPages = Slots * ObjectSize / Page;
  PartitionFixture F(ObjectSize, Slots);
  std::vector<char *> Held;
  for (size_t I = 0; I < F.Partition.threshold(); ++I) {
    auto *P = static_cast<char *>(F.Partition.allocate());
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x77, ObjectSize);
    Held.push_back(P);
  }
  char *Survivor = Held.front();
  Held.erase(Held.begin());
  for (char *P : Held)
    ASSERT_TRUE(F.Partition.deallocate(P));

  size_t K = slotOf(F, Survivor);
  size_t PinnedPages =
      (K * ObjectSize + ObjectSize - 1) / Page - (K * ObjectSize) / Page + 1;
  RandomizedPartition::MaintainOutcome Out = F.Partition.maintain();
  EXPECT_EQ(Out.PagesReturned, DataPages - PinnedPages)
      << "survivor at slot " << K << " must pin " << PinnedPages
      << " page(s), everything else returns";
  for (size_t I = 0; I < ObjectSize; ++I)
    ASSERT_EQ(static_cast<unsigned char>(Survivor[I]), 0x77u)
        << "byte " << I << " of the straddling survivor";
  EXPECT_EQ(F.Partition.live(), 1u);
}

TEST(RandomizedPartitionTest, AllocationIntoReleasedSpanRefaultsZero) {
  // release -> allocate -> the slot's pages drop off the released set and
  // the object reads demand-zero, never stale pre-release bytes.
  PolicyGuard Guard(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  PartitionFixture F(Page, 16);
  std::vector<char *> Held;
  for (size_t I = 0; I < F.Partition.threshold(); ++I) {
    auto *P = static_cast<char *>(F.Partition.allocate());
    ASSERT_NE(P, nullptr);
    std::memset(P, 0xCD, Page);
    Held.push_back(P);
  }
  for (char *P : Held)
    ASSERT_TRUE(F.Partition.deallocate(P));
  ASSERT_GT(F.Partition.maintain().PagesReturned, 0u);
  size_t Released = F.Partition.releasedPages();
  ASSERT_EQ(Released, 16u) << "empty partition: every page released";

  auto *Fresh = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(F.Partition.releasedPages(), Released - 1)
      << "exactly the fresh slot's page must be un-marked";
  for (size_t I = 0; I < Page; ++I)
    ASSERT_EQ(Fresh[I], 0) << "refault must read zero, not stale data";
  // Writable after the refault (a DONTNEED'ed page is still mapped).
  std::memset(Fresh, 0x11, Page);
  EXPECT_EQ(static_cast<unsigned char>(Fresh[Page - 1]), 0x11u);
}

TEST(RandomizedPartitionTest, DoubleFreeIntoReleasedSpanStillCaught) {
  // The bitmap never leaves memory, so releasing a span weakens no
  // validation: a double free aimed into released pages is ignored and
  // counted exactly as before.
  PolicyGuard Guard(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  PartitionFixture F(Page, 16);
  auto *P = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xEE, Page);
  ASSERT_TRUE(F.Partition.deallocate(P));
  ASSERT_GT(F.Partition.maintain().PagesReturned, 0u);

  EXPECT_FALSE(F.Partition.deallocate(P)) << "double free into released span";
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 1u);
  EXPECT_FALSE(F.Partition.deallocate(P + Page / 2)) << "misaligned too";
  EXPECT_EQ(F.Partition.stats().IgnoredFrees, 2u);
  EXPECT_EQ(F.Partition.stats().Frees, 1u);
}

TEST(RandomizedPartitionTest, SpanScannerHonoursThePolicySwitch) {
  // DIEHARD_PAGE_RETURN=off must leave the scanner inert: no pages, no
  // spans, no released-set growth — and turning the policy back on after
  // new frees resumes releasing.
  const size_t Page = MmapRegion::pageSize();
  PartitionFixture F(Page, 16);
  {
    PolicyGuard Off(PageReturnPolicy::Off);
    auto *P = static_cast<char *>(F.Partition.allocate());
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x55, Page);
    ASSERT_TRUE(F.Partition.deallocate(P));
    RandomizedPartition::MaintainOutcome Out = F.Partition.maintain();
    EXPECT_EQ(Out.PagesReturned, 0u);
    EXPECT_EQ(Out.SpansReleased, 0u);
    EXPECT_FALSE(F.Partition.pagesReleased());
    // The dirtied page kept its contents: off really means off.
    EXPECT_EQ(static_cast<unsigned char>(P[0]), 0x55u);
  }
  // Policy restored to DontNeed; a new free re-arms the stamp gate.
  auto *Q = static_cast<char *>(F.Partition.allocate());
  ASSERT_NE(Q, nullptr);
  ASSERT_TRUE(F.Partition.deallocate(Q));
  EXPECT_GT(F.Partition.maintain().PagesReturned, 0u);
}

TEST(RandomizedPartitionTest, ClaimedSlotsPinTheirPages) {
  // Cache-claimed slots are bit-set without being user-visible: the
  // scanner must treat them as live (their pages hold data a cache may
  // hand out) and reclaiming them must make the pages releasable again.
  PolicyGuard Guard(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  PartitionFixture F(Page, 16);
  // One alloc/free primes the free-stamp so the scans below actually run
  // (a partition that never freed anything has nothing new to release).
  void *Primer = F.Partition.allocate();
  ASSERT_NE(Primer, nullptr);
  ASSERT_TRUE(F.Partition.deallocate(Primer));

  void *Claimed[4];
  ASSERT_EQ(F.Partition.claimRandomSlots(Claimed, 4), 4u);
  RandomizedPartition::MaintainOutcome Out = F.Partition.maintain();
  EXPECT_EQ(Out.PagesReturned, 12u)
      << "the four claimed slots' pages must stay resident";
  EXPECT_EQ(F.Partition.releasedPages(), 12u);

  F.Partition.reclaimSlots(Claimed, 4);
  Out = F.Partition.maintain();
  EXPECT_EQ(Out.PagesReturned, 4u)
      << "reclaimed slots free their pages for the next scan";
  EXPECT_EQ(F.Partition.releasedPages(), 16u);
}

TEST(RandomizedPartitionTest, GrowthKeepsPlacementInsideThePrefix) {
  // A 64-slot prefix of 1024 at M=2: a 48-slot batch claim must double the
  // prefix exactly once before probing, every claimed slot must lie inside
  // it, and refusal must come only at the final slots/M threshold, with
  // the prefix grown to the whole region by then.
  PartitionFixture F(64, 1024, 2.0, 5, false, false, 64);
  EXPECT_EQ(F.Partition.active(), 64u);
  EXPECT_EQ(F.Partition.threshold(), 512u);
  void *Batch[48];
  ASSERT_EQ(F.Partition.claimRandomSlots(Batch, 48), 48u);
  EXPECT_EQ(F.Partition.active(), 128u);
  for (void *P : Batch)
    EXPECT_LT(slotOf(F, P), 128u);

  size_t Served = 48;
  while (void *P = F.Partition.allocate()) {
    ASSERT_LT(slotOf(F, P), F.Partition.active());
    ASSERT_LE(F.Partition.live(), F.Partition.active() / 2);
    ++Served;
  }
  EXPECT_EQ(Served, 512u) << "refused only at the final 1/M threshold";
  EXPECT_EQ(F.Partition.active(), 1024u);
  EXPECT_EQ(F.Partition.stats().FailedAllocations, 1u);
}

TEST(RandomizedPartitionTest, SpanScannerStopsAtTheActivePrefix) {
  // A partition that has grown once (200 -> 400 slots of 64 bytes, so the
  // prefix ends 1/4 into page 6 of 16) must release only pages lying
  // wholly inside the prefix. Every page is dirtied with a marker first;
  // MADV_DONTNEED would zero a released page, so a surviving marker on
  // pages 6..15 proves the sweep never advised them away.
  PolicyGuard Guard(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  ASSERT_EQ(Page, 4096u) << "the geometry below assumes 4 KiB pages";
  PartitionFixture F(64, 1024, 2.0, 11, false, false, 200);
  std::vector<void *> Held;
  for (int I = 0; I < 101; ++I) {
    void *P = F.Partition.allocate();
    ASSERT_NE(P, nullptr);
    Held.push_back(P);
  }
  ASSERT_EQ(F.Partition.active(), 400u) << "grown exactly once";
  for (void *P : Held)
    ASSERT_TRUE(F.Partition.deallocate(P));
  auto *Base = static_cast<char *>(F.Region.base());
  for (size_t Pg = 0; Pg < 16; ++Pg)
    Base[Pg * Page + Page - 1] = 0x5A;

  RandomizedPartition::MaintainOutcome Out = F.Partition.maintain();
  const size_t PrefixPages = 400 * 64 / Page; // Whole pages: 0..5.
  EXPECT_EQ(Out.PagesReturned, PrefixPages);
  EXPECT_EQ(F.Partition.releasedPages(), PrefixPages);
  for (size_t Pg = 0; Pg < 16; ++Pg)
    EXPECT_EQ(Base[Pg * Page + Page - 1], Pg < PrefixPages ? 0 : 0x5A)
        << "page " << Pg;
}

} // namespace
} // namespace diehard
