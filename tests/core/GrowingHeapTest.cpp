//===- tests/core/GrowingHeapTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the growing heap of Section 9: every partition starts from a
/// small active prefix of its slots and doubles it as the live count
/// demands. Driven through DieHardHeap (single-threaded) and ShardedHeap
/// (the concurrent and production configurations).
///
//===----------------------------------------------------------------------===//

#include "core/DieHardHeap.h"
#include "core/ShardedHeap.h"

#include "baselines/DieHardAllocator.h"
#include "support/Rng.h"
#include "workloads/SyntheticWorkload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace diehard {
namespace {

DieHardOptions testOptions(double M = 2.0, uint64_t Seed = 7,
                           size_t InitialActive = 64) {
  DieHardOptions O;
  O.HeapSize = 48 * 1024 * 1024;
  O.M = M;
  O.Seed = Seed;
  O.InitialActiveSlots = InitialActive;
  return O;
}

/// The live count a prefix of \p Active slots admits under factor \p M.
size_t activeShare(size_t Active, double M) {
  return static_cast<size_t>(static_cast<double>(Active) / M);
}

/// True if \p Ptr lies inside the active prefix of its class's partition.
bool insidePrefix(const DieHardHeap &H, int Class, const void *Ptr) {
  const RandomizedPartition &P = H.partition(Class);
  auto Offset = static_cast<size_t>(static_cast<const char *>(Ptr) -
                                    static_cast<const char *>(P.base()));
  return Offset / P.objectBytes() < P.active();
}

TEST(GrowingHeapTest, StartsWithSmallPrefix) {
  DieHardHeap H(testOptions());
  ASSERT_TRUE(H.isValid());
  for (int C = 0; C < SizeClass::NumClasses; ++C) {
    EXPECT_EQ(H.partition(C).active(), 64u);
    EXPECT_EQ(H.liveInClass(C), 0u);
    EXPECT_GT(H.slotsInClass(C), 64u) << "the reservation stays fixed";
  }
  DieHardOptions Fixed = testOptions();
  Fixed.InitialActiveSlots = 0;
  DieHardHeap F(Fixed);
  for (int C = 0; C < SizeClass::NumClasses; ++C)
    EXPECT_EQ(F.partition(C).active(), F.slotsInClass(C))
        << "0 makes every slot active: the fixed heap";
}

TEST(GrowingHeapTest, FirstAllocationsStayInThePrefix) {
  DieHardHeap H(testOptions());
  int C = SizeClass::sizeToClass(64);
  std::vector<void *> Held;
  for (int I = 0; I < 32; ++I) {
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    EXPECT_TRUE(insidePrefix(H, C, P));
    Held.push_back(P);
  }
  EXPECT_EQ(H.partition(C).active(), 64u) << "32 live fit 64 slots at M=2";
  for (void *P : Held)
    H.deallocate(P);
}

TEST(GrowingHeapTest, GrowthDoublesCapacity) {
  DieHardHeap H(testOptions(2.0, 3, 8));
  int C = SizeClass::sizeToClass(128);
  std::vector<void *> Held;
  // With 8 initial slots and M=2, the 5th live object forces a doubling
  // (4/8 is the bound), then 16, 32, ...
  for (int I = 0; I < 64; ++I) {
    void *P = H.allocate(128);
    ASSERT_NE(P, nullptr);
    ASSERT_TRUE(insidePrefix(H, C, P));
    Held.push_back(P);
    size_t Active = H.partition(C).active();
    ASSERT_EQ(Active & (Active - 1), 0u) << "8 doubled stays a power of 2";
    ASSERT_LE(H.liveInClass(C), activeShare(Active, 2.0));
  }
  EXPECT_EQ(H.partition(C).active(), 128u)
      << "64 live objects need exactly 128 slots under M=2";
  for (void *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.partition(C).active(), 128u) << "the prefix never shrinks";
}

TEST(GrowingHeapTest, InvariantHoldsUnderChurn) {
  DieHardHeap H(testOptions(4.0, 9, 16));
  Rng Rand(1);
  std::vector<void *> Live;
  for (int Step = 0; Step < 20000; ++Step) {
    if (Live.empty() || (Rand.next() & 1)) {
      void *P = H.allocate(1 + Rand.nextBounded(1024));
      if (P != nullptr)
        Live.push_back(P);
    } else {
      size_t I = Rand.nextBounded(static_cast<uint32_t>(Live.size()));
      H.deallocate(Live[I]);
      Live[I] = Live.back();
      Live.pop_back();
    }
    if (Step % 1000 == 0) {
      for (int C = 0; C < SizeClass::NumClasses; ++C)
        ASSERT_LE(H.liveInClass(C), activeShare(H.partition(C).active(), 4.0))
            << "class " << C << " step " << Step;
    }
  }
  for (void *P : Live)
    H.deallocate(P);
}

TEST(GrowingHeapTest, ObjectsSurviveGrowth) {
  // Growth must never move or damage live objects: slot indices are fixed,
  // the prefix only widens.
  DieHardHeap H(testOptions(2.0, 5, 8));
  int C = SizeClass::sizeToClass(256);
  std::vector<std::pair<unsigned char *, int>> Objects;
  for (int I = 0; I < 200; ++I) {
    auto *P = static_cast<unsigned char *>(H.allocate(256));
    ASSERT_NE(P, nullptr);
    std::memset(P, I & 0xFF, 256);
    Objects.push_back({P, I & 0xFF});
  }
  EXPECT_GE(H.partition(C).active(), 8u << 4)
      << "the class must have grown repeatedly";
  for (auto &[P, Tag] : Objects)
    for (int B = 0; B < 256; ++B)
      ASSERT_EQ(P[B], Tag);
  for (auto &[P, Tag] : Objects)
    H.deallocate(P);
}

TEST(GrowingHeapTest, DoubleAndInvalidFreesIgnored) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(32);
  ASSERT_NE(P, nullptr);
  H.deallocate(P);
  H.deallocate(P); // Double free.
  int Stack;
  H.deallocate(&Stack); // Foreign pointer.
  char *Q = static_cast<char *>(H.allocate(1024));
  H.deallocate(Q + 8); // Misaligned interior pointer.
  // A well-aligned slot past the active prefix was never handed out.
  const RandomizedPartition &Part = H.partition(SizeClass::sizeToClass(1024));
  char *Beyond = const_cast<char *>(static_cast<const char *>(Part.base())) +
                 Part.active() * Part.objectBytes();
  H.deallocate(Beyond);
  EXPECT_EQ(H.stats().IgnoredFrees, 4u);
  EXPECT_EQ(H.getObjectSize(Q), 1024u);
  EXPECT_EQ(H.getObjectSize(Beyond), 0u);
  H.deallocate(Q);
}

TEST(GrowingHeapTest, ObjectQueriesWork) {
  DieHardHeap H(testOptions());
  char *P = static_cast<char *>(H.allocate(100));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.getObjectSize(P), 128u);
  EXPECT_EQ(H.getObjectStart(P + 77), P);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectSize(P), 0u);
  EXPECT_EQ(H.getObjectStart(P), nullptr);
}

TEST(GrowingHeapTest, LargeObjectsRouted) {
  DieHardHeap H(testOptions());
  auto *P = static_cast<char *>(H.allocate(100 * 1024));
  ASSERT_NE(P, nullptr);
  std::memset(P, 3, 100 * 1024);
  EXPECT_EQ(H.getObjectSize(P), 100u * 1024);
  EXPECT_EQ(H.stats().LargeAllocations, 1u);
  H.deallocate(P);
  EXPECT_EQ(H.stats().LargeFrees, 1u);
}

TEST(GrowingHeapTest, PrefixTracksDemandNotMaximum) {
  // The growing heap's selling point: a workload with a small live set
  // activates slots in proportion to its *live* demand, not to the whole
  // reservation, so only that many pages can ever be touched.
  DieHardAllocator A(testOptions(2.0, 11, 64));
  WorkloadParams P;
  P.Name = "small";
  P.MemoryOps = 20000;
  P.MinSize = 8;
  P.MaxSize = 256;
  P.MaxLive = 200;
  P.Seed = 12;
  SyntheticWorkload W(P);
  WorkloadResult R = W.run(A);
  EXPECT_EQ(R.FailedAllocations, 0u);
  size_t ActiveBytes = 0, ReservedBytes = 0;
  for (int C = 0; C < SizeClass::NumClasses; ++C) {
    const RandomizedPartition &Part = A.heap().partition(C);
    ActiveBytes += Part.active() * Part.objectBytes();
    ReservedBytes += Part.slots() * Part.objectBytes();
  }
  EXPECT_LT(ActiveBytes, size_t(4) << 20)
      << "a 200-object live set must not activate many megabytes";
  EXPECT_GT(ReservedBytes, ActiveBytes * 8);
}

TEST(GrowingHeapTest, ChecksumMatchesFixedHeap) {
  WorkloadParams P;
  P.Name = "check";
  P.MemoryOps = 30000;
  P.MinSize = 8;
  P.MaxSize = 2048;
  P.MaxLive = 1000;
  P.Seed = 5;
  SyntheticWorkload W(P);
  DieHardAllocator Growing(testOptions(2.0, 21));
  uint64_t GrowingSum = W.run(Growing).Checksum;
  DieHardAllocator Fixed(testOptions(2.0, 21, 0));
  EXPECT_EQ(GrowingSum, W.run(Fixed).Checksum);
  SystemAllocator System;
  EXPECT_EQ(GrowingSum, W.run(System).Checksum);
}

TEST(GrowingHeapTest, RandomFillWorks) {
  DieHardOptions O = testOptions();
  O.RandomFillObjects = true;
  DieHardHeap H(O);
  auto *P = static_cast<uint32_t *>(H.allocate(256));
  ASSERT_NE(P, nullptr);
  int NonZero = 0;
  for (int I = 0; I < 64; ++I)
    NonZero += P[I] != 0 ? 1 : 0;
  EXPECT_GT(NonZero, 50);
  H.deallocate(P);
}

TEST(GrowingHeapTest, ZeroSizeReturnsNull) {
  DieHardHeap H(testOptions());
  EXPECT_EQ(H.allocate(0), nullptr);
}

ShardedHeapOptions lockedOptions(uint64_t Seed, size_t InitialActive) {
  ShardedHeapOptions O;
  O.Heap = testOptions(2.0, Seed, InitialActive);
  O.NumShards = 1;
  return O;
}

TEST(GrowingHeapTest, ConcurrentGrowthAcrossClassesStaysIsolated) {
  // Growth happens one partition at a time under that partition's lock:
  // four threads repeatedly force growth in four different classes, which
  // must neither corrupt each other's objects nor serialize through a
  // shared structure (TSan checks the latter half of that claim in the
  // sanitizer lanes).
  ShardedHeap H(lockedOptions(13, 8));
  ASSERT_TRUE(H.isValid());
  constexpr int Threads = 4;
  constexpr int PerThread = 600; // 8 initial slots -> several doublings.
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, &Failures, T] {
      size_t Size = SizeClass::classToSize(T + 1); // 16 B .. 128 B
      auto Tag = static_cast<unsigned char>(0x40 + T);
      std::vector<unsigned char *> Mine;
      for (int I = 0; I < PerThread; ++I) {
        auto *P = static_cast<unsigned char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        std::memset(P, Tag, Size);
        Mine.push_back(P);
      }
      for (unsigned char *P : Mine) {
        for (size_t B = 0; B < Size; ++B)
          if (P[B] != Tag) {
            ++Failures;
            return;
          }
        H.deallocate(P);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(S.Frees, S.Allocations);
  for (int T = 0; T < Threads; ++T) {
    EXPECT_EQ(H.shard(0).liveInClass(T + 1), 0u);
    EXPECT_GE(H.shard(0).partition(T + 1).active(), 8u << 7)
        << "every driven class must have grown repeatedly";
  }
}

TEST(GrowingHeapTest, ConcurrentSameClassChurnKeepsAccounting) {
  // The other contention shape: several threads in *one* class, so every
  // operation (including growth) serializes on that class's lock. The
  // 1/M invariant and the counters must hold throughout.
  ShardedHeap H(lockedOptions(17, 16));
  ASSERT_TRUE(H.isValid());
  constexpr int Threads = 4;
  int C = SizeClass::sizeToClass(64);
  const RandomizedPartition &Part = H.shard(0).partition(C);
  std::atomic<int> Failures{0};
  std::atomic<int> InvariantViolations{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, &Part, &Failures, &InvariantViolations, T] {
      unsigned State = static_cast<unsigned>(T) * 2654435761u + 1;
      std::vector<void *> Live;
      for (int Step = 0; Step < 1500; ++Step) {
        State = State * 1664525u + 1013904223u;
        if (State % 2 == 0 || Live.empty()) {
          void *P = H.allocate(64);
          if (P == nullptr) {
            ++Failures;
            return;
          }
          Live.push_back(P);
        } else {
          H.deallocate(Live.back());
          Live.pop_back();
        }
        if (Step % 100 == 0) {
          // Sample the 1/M bound *while* the class is under load. The two
          // gauges are independent relaxed atomics, so a sampler can see a
          // newer live count against an older prefix; a slack of one
          // in-flight allocation per thread absorbs that skew.
          size_t LiveNow = Part.live();
          size_t ActiveNow = Part.active();
          if (LiveNow > activeShare(ActiveNow, 2.0) + Threads)
            ++InvariantViolations;
        }
      }
      for (void *P : Live)
        H.deallocate(P);
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(InvariantViolations.load(), 0)
      << "live count exceeded active/M while the class was under load";
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_EQ(Part.live(), 0u);
}

TEST(GrowingHeapTest, ProductionConfigGrowsInsideTheBound) {
  // The shipped shape: two shards, K = 32 thread caches, cross-shard frees
  // through the sidecars, and the sweeper running every millisecond. Three
  // properties, checked between phases while the workers are parked:
  // every object a malloc returns lies inside its partition's active
  // prefix (and, at checkpoints, no bitmap bit past the prefix is set),
  // live <= active/M in every partition, and refusal comes only at the
  // final slots/M threshold.
  ShardedHeapOptions O;
  O.Heap.HeapSize = 12 * SizeClass::MaxObjectSize * 64; // 1 MB partitions.
  O.Heap.Seed = 0x9E0;
  O.NumShards = 2;
  O.ThreadCacheSlots = 32;
  O.Sweeper = true;
  O.SweepIntervalMs = 1;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());
  const double M = O.Heap.M;

  auto partitionOf = [&H](const void *Ptr) -> const RandomizedPartition & {
    const DieHardHeap &Shard = H.shard(H.shardIndexOf(Ptr));
    return Shard.partition(Shard.partitionIndexOf(Ptr));
  };
  auto checkPartitions = [&](bool ScanBits) {
    for (size_t S = 0; S < H.numShards(); ++S)
      for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
        const RandomizedPartition &P = H.shard(S).partition(C);
        EXPECT_LE(P.live(), activeShare(P.active(), M))
            << "shard " << S << " class " << C;
        if (!ScanBits)
          continue;
        // getObjectSize() reads the bit under the partition lock, so the
        // sweeper may keep running.
        const char *Base = static_cast<const char *>(P.base());
        for (size_t Slot = P.active(); Slot < P.slots(); ++Slot)
          if (H.getObjectSize(Base + Slot * P.objectBytes()) != 0) {
            ADD_FAILURE() << "bit set past the prefix: shard " << S
                          << " class " << C << " slot " << Slot;
            break;
          }
      }
  };

  constexpr int Threads = 2, Phases = 40, OpsPerPhase = 3000;
  std::mutex ExchangeLock;
  std::vector<void *> Exchange; // Guarded by ExchangeLock.
  std::atomic<int> OutsidePrefix{0}, Failures{0};
  int Phase = 0;
  std::barrier Sync(Threads, [&]() noexcept {
    ++Phase;
    checkPartitions(Phase % 10 == 0);
  });
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      ShardedHeap::pinThreadToken(static_cast<uint32_t>(T));
      Rng Rand(static_cast<uint64_t>(T) + 101);
      std::vector<void *> Mine;
      for (int Ph = 0; Ph < Phases; ++Ph) {
        for (int Op = 0; Op < OpsPerPhase; ++Op) {
          uint32_t R = Rand.nextBounded(8);
          if (R == 0 && !Mine.empty()) {
            // Hand one object to the other thread.
            std::lock_guard<std::mutex> Guard(ExchangeLock);
            Exchange.push_back(Mine.back());
            Mine.pop_back();
          } else if (R == 1) {
            // Free a handed-over object: usually a cross-shard free.
            void *P = nullptr;
            {
              std::lock_guard<std::mutex> Guard(ExchangeLock);
              if (!Exchange.empty()) {
                P = Exchange.back();
                Exchange.pop_back();
              }
            }
            H.deallocate(P);
          } else if (R < 5 || Mine.empty()) {
            if (Mine.size() >= 256)
              continue;
            void *P = H.allocate(8 + Rand.nextBounded(1017));
            if (P == nullptr) {
              ++Failures;
              continue;
            }
            const RandomizedPartition &Part = partitionOf(P);
            size_t Slot = static_cast<size_t>(
                              static_cast<char *>(P) -
                              static_cast<const char *>(Part.base())) /
                          Part.objectBytes();
            if (Slot >= Part.active())
              ++OutsidePrefix;
            *static_cast<uint64_t *>(P) = Slot;
            Mine.push_back(P);
          } else {
            size_t I = Rand.nextBounded(static_cast<uint32_t>(Mine.size()));
            H.deallocate(Mine[I]);
            Mine[I] = Mine.back();
            Mine.pop_back();
          }
        }
        Sync.arrive_and_wait();
      }
      for (void *P : Mine)
        H.deallocate(P);
    });
  for (std::thread &W : Workers)
    W.join();
  for (void *P : Exchange)
    H.deallocate(P);
  EXPECT_EQ(Failures.load(), 0) << "far below every threshold";
  EXPECT_EQ(OutsidePrefix.load(), 0);
  EXPECT_GT(H.stats().RemoteFrees, 0u) << "cross-shard frees must happen";

  // Saturate the 1 KB class from one thread: home first, then overflow
  // into the sibling. The first refusal must find both partitions at the
  // final threshold, fully grown.
  ShardedHeap::pinThreadToken(0);
  int C = SizeClass::sizeToClass(1024);
  std::vector<void *> Held;
  while (void *P = H.allocate(1024))
    Held.push_back(P);
  for (size_t S = 0; S < H.numShards(); ++S) {
    const RandomizedPartition &P = H.shard(S).partition(C);
    EXPECT_EQ(P.live(), P.threshold()) << "shard " << S;
    EXPECT_EQ(P.active(), P.slots()) << "shard " << S;
  }
  checkPartitions(true);
  for (void *P : Held)
    H.deallocate(P);
  H.flushThreadCache();
}

/// Property sweep: the 1/M invariant and growth behaviour hold for every M.
class AdaptiveExpansionSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdaptiveExpansionSweep, BoundRespectedWhileLoading) {
  double M = GetParam();
  DieHardHeap H(testOptions(M, 31, 16));
  int C = SizeClass::sizeToClass(64);
  std::vector<void *> Held;
  for (int I = 0; I < 500; ++I) {
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    Held.push_back(P);
    ASSERT_TRUE(insidePrefix(H, C, P)) << "allocation " << I;
    ASSERT_LE(static_cast<double>(H.liveInClass(C)),
              static_cast<double>(H.partition(C).active()) / M + 1e-9)
        << "allocation " << I;
  }
  for (void *P : Held)
    H.deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Factors, AdaptiveExpansionSweep,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0, 8.0));

} // namespace
} // namespace diehard
