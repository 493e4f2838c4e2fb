//===- tests/core/ShardedHeapTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the sharded heap layer: single-shard equivalence with a lone
/// DieHardHeap, cross-thread frees routed to the owning shard, thread churn
/// beyond the shard count, per-partition lock concurrency, overflow routing
/// to sibling shards, stats aggregation, the deferred-free flush against
/// the same frees applied one by one, and the large-object path through
/// shard 0. The multithreaded cases double as the TSan/ASan workload for the
/// sanitizer CI lanes.
///
//===----------------------------------------------------------------------===//

#include "core/ShardedHeap.h"

#include "core/HeapAdapter.h"
#include "core/SizeClass.h"
#include "workloads/SyntheticWorkload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace diehard {
namespace {

ShardedHeapOptions smallOptions(size_t NumShards, uint64_t Seed = 42) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = 96 * 1024 * 1024;
  O.Heap.Seed = Seed;
  O.NumShards = NumShards;
  return O;
}

ptrdiff_t offsetFromBase(const void *Ptr, const DieHardHeap &H) {
  return static_cast<const char *>(Ptr) -
         static_cast<const char *>(H.heapBase());
}

TEST(ShardedHeapTest, SingleShardMatchesDieHardHeapBitForBit) {
  // With one shard, the layer must reproduce a lone DieHardHeap exactly:
  // same seed, same RNG stream, same slot for every request. The replicated
  // framework depends on this equivalence for per-seed determinism.
  DieHardOptions Plain;
  Plain.HeapSize = 96 * 1024 * 1024;
  Plain.Seed = 42;
  DieHardHeap Reference(Plain);

  ShardedHeap Sharded(smallOptions(1));
  ASSERT_TRUE(Reference.isValid());
  ASSERT_TRUE(Sharded.isValid());
  ASSERT_EQ(Sharded.numShards(), 1u);
  EXPECT_EQ(Sharded.seed(), Reference.seed());

  const size_t Sizes[] = {8, 24, 100, 512, 16, 2048, 8000, 16384, 1, 333};
  std::vector<void *> FromReference, FromSharded;
  for (int Round = 0; Round < 50; ++Round)
    for (size_t Size : Sizes) {
      void *A = Reference.allocate(Size);
      void *B = Sharded.allocate(Size);
      ASSERT_NE(A, nullptr);
      ASSERT_NE(B, nullptr);
      ASSERT_EQ(offsetFromBase(A, Reference),
                offsetFromBase(B, Sharded.shard(0)))
          << "placement diverged for size " << Size;
      FromReference.push_back(A);
      FromSharded.push_back(B);
    }

  // Free every other object and allocate again: the streams must stay in
  // lockstep through frees too.
  for (size_t I = 0; I < FromReference.size(); I += 2) {
    Reference.deallocate(FromReference[I]);
    Sharded.deallocate(FromSharded[I]);
  }
  for (size_t Size : Sizes) {
    void *A = Reference.allocate(Size);
    void *B = Sharded.allocate(Size);
    ASSERT_EQ(offsetFromBase(A, Reference),
              offsetFromBase(B, Sharded.shard(0)));
  }
}

TEST(ShardedHeapTest, SingleShardMatchesDieHardHeapLargeFills) {
  // Replicated mode fills every allocated object with random values. One
  // shard must reproduce a lone DieHardHeap's fills byte for byte, large
  // objects included: both fill those from the heap-level stream.
  DieHardOptions Plain;
  Plain.HeapSize = 96 * 1024 * 1024;
  Plain.Seed = 42;
  Plain.RandomFillObjects = true;
  DieHardHeap Reference(Plain);

  ShardedHeapOptions O = smallOptions(1);
  O.Heap.RandomFillObjects = true;
  ShardedHeap Sharded(O);
  ASSERT_TRUE(Reference.isValid());
  ASSERT_TRUE(Sharded.isValid());

  const size_t Sizes[] = {24, 20000, 512, 70000, 16385};
  std::vector<void *> FromReference, FromSharded;
  for (size_t Size : Sizes) {
    void *A = Reference.allocate(Size);
    void *B = Sharded.allocate(Size);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    ASSERT_EQ(std::memcmp(A, B, Size), 0) << "fill diverged for size " << Size;
    FromReference.push_back(A);
    FromSharded.push_back(B);
  }
  for (void *P : FromReference)
    Reference.deallocate(P);
  for (void *P : FromSharded)
    Sharded.deallocate(P);
  EXPECT_EQ(Sharded.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ResolvesShardCountAndDerivesSeeds) {
  ShardedHeap H(smallOptions(4));
  ASSERT_TRUE(H.isValid());
  EXPECT_EQ(H.numShards(), 4u);
  EXPECT_EQ(H.shard(0).seed(), 42u);
  for (size_t I = 1; I < H.numShards(); ++I)
    EXPECT_NE(H.shard(I).seed(), H.shard(0).seed())
        << "shard " << I << " must not share shard 0's stream";
}

TEST(ShardedHeapTest, ShardCountZeroUsesHardwareConcurrency) {
  ShardedHeap H(smallOptions(0));
  EXPECT_EQ(H.numShards(), ShardedHeap::defaultShardCount());
  EXPECT_GE(H.numShards(), 1u);
}

TEST(ShardedHeapTest, ClampsAbsurdShardCounts) {
  ShardedHeapOptions O = smallOptions(100000);
  O.Heap.HeapSize = 512 * 1024 * 1024; // Keep per-shard partitions usable.
  ShardedHeap H(O);
  EXPECT_EQ(H.numShards(), ShardedHeap::MaxShards);
}

TEST(ShardedHeapTest, EveryShardKeepsTheFullReservation) {
  // Hoard-style sizing: each shard reserves the full configured size, so a
  // single-threaded process does not lose capacity to sharding. Reference:
  // a lone DieHardHeap with the same options.
  DieHardOptions Plain;
  Plain.HeapSize = 96 * 1024 * 1024;
  Plain.Seed = 42;
  DieHardHeap Reference(Plain);

  ShardedHeap H(smallOptions(4));
  for (size_t I = 0; I < H.numShards(); ++I) {
    EXPECT_EQ(H.shard(I).heapBytes(), Reference.heapBytes());
    for (int C = 0; C < SizeClass::NumClasses; ++C)
      EXPECT_EQ(H.shard(I).thresholdForClass(C),
                Reference.thresholdForClass(C));
  }
}

TEST(ShardedHeapTest, CrossThreadFreeReturnsToOwningShard) {
  ShardedHeap H(smallOptions(4));
  ASSERT_TRUE(H.isValid());

  constexpr int Count = 500;
  std::vector<void *> Owned;
  for (int I = 0; I < Count; ++I) {
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x5A, 64);
    Owned.push_back(P);
  }
  size_t Owner = H.shardIndexOf(Owned.front());
  ASSERT_LT(Owner, H.numShards());

  // Free everything from a different thread (which has a different home
  // shard token); the frees must land on the owner, not the freeing
  // thread's shard.
  std::thread Freer([&] {
    for (void *P : Owned) {
      EXPECT_EQ(H.shardIndexOf(P), Owner);
      H.deallocate(P);
    }
  });
  Freer.join();

  // The cross-shard frees ride the lock-free sidecars; materialize them
  // before auditing the live gauges.
  H.drainRemoteFrees();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, static_cast<uint64_t>(Count));
  EXPECT_EQ(S.Frees, static_cast<uint64_t>(Count));
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

std::vector<size_t> liveSlots(const RandomizedPartition &P) {
  std::vector<size_t> Slots;
  P.forEachLive([&](size_t Slot, const void *) { Slots.push_back(Slot); });
  return Slots;
}

/// Expects every partition of \p A and \p B to be in the same observable
/// state: free and sidecar counters, live gauge, live set, region bytes.
void expectSamePartitions(const ShardedHeap &A, const ShardedHeap &B) {
  for (size_t I = 0; I < A.numShards(); ++I)
    for (int C = 0; C < SizeClass::NumClasses; ++C) {
      SCOPED_TRACE(::testing::Message() << "shard " << I << " class " << C);
      const RandomizedPartition &PA = A.shard(I).partition(C);
      const RandomizedPartition &PB = B.shard(I).partition(C);
      EXPECT_EQ(PA.stats().Frees, PB.stats().Frees);
      EXPECT_EQ(PA.stats().IgnoredFrees, PB.stats().IgnoredFrees);
      EXPECT_EQ(PA.remoteFrees(), PB.remoteFrees());
      EXPECT_EQ(PA.remoteFreeRejects(), PB.remoteFreeRejects());
      EXPECT_EQ(PA.live(), PB.live());
      EXPECT_EQ(liveSlots(PA), liveSlots(PB));
      ASSERT_EQ(PA.active(), PB.active());
      EXPECT_EQ(std::memcmp(PA.base(), PB.base(),
                            PA.active() * PA.objectBytes()),
                0);
    }
}

TEST(ShardedHeapTest, DeferredFlushMatchesFreesAppliedOneByOne) {
  // A flush returns each class segment of the deferred buffer as it
  // stands and splits only a segment that mixes owners. Every partition
  // must end as if the same frees had been applied one at a time in
  // buffer order: deallocate() on the home shard, remoteFree() on the
  // others — same counters, same live set, same free-fill words.
  ShardedHeapOptions O = smallOptions(3, 7);
  O.Heap.RandomFillOnFree = true;
  O.ThreadCacheSlots = 32; // Deferred capacity 64: nothing flushes early.
  O.OverflowRouting = false;
  ShardedHeap Flushed(O), Looped(O);
  ASSERT_TRUE(Flushed.isValid());
  ASSERT_TRUE(Looped.isValid());

  // The same allocations in both heaps: indices 0-3 owned by shard 1 and
  // 4-7 by shard 2, 64 bytes each, made on threads pinned to those shards;
  // then, on this test's thread pinned to shard 0, home objects of 64
  // (8-11), 16 (12-15), 256 (16-19) and 1024 bytes (20-22).
  auto allocateAll = [](ShardedHeap &H) {
    std::vector<void *> Objects;
    for (uint32_t Owner : {1u, 2u})
      std::thread([&] {
        ShardedHeap::pinThreadToken(Owner);
        for (int I = 0; I < 4; ++I)
          Objects.push_back(H.allocate(64));
      }).join();
    for (size_t Size : {64, 16, 256, 1024})
      for (int I = 0; I < (Size == 1024 ? 3 : 4); ++I)
        Objects.push_back(H.allocate(Size));
    return Objects;
  };
  // (object index, byte offset) in buffer order. Class 64 mixes home
  // frees with frees of both foreign owners and holds a misaligned home
  // pointer and a foreign duplicate; class 16 holds a home duplicate.
  const std::pair<size_t, size_t> Frees[] = {
      {12, 0}, {13, 0}, {8, 0},  {0, 0},  {4, 0},  {9, 0},  {1, 0},
      {5, 0},  {16, 0}, {17, 0}, {2, 0},  {10, 0}, {6, 0},  {13, 0},
      {11, 8}, {1, 0},  {20, 0}, {21, 0}, {22, 0}, {18, 0}, {14, 0},
      {3, 0}};

  std::thread([&] {
    ShardedHeap::pinThreadToken(0);
    std::vector<void *> FlushedObjects = allocateAll(Flushed);
    std::vector<void *> LoopedObjects = allocateAll(Looped);
    ASSERT_EQ(FlushedObjects.size(), 23u);
    for (size_t I = 0; I < FlushedObjects.size(); ++I) {
      ASSERT_NE(FlushedObjects[I], nullptr);
      size_t Owner = Flushed.shardIndexOf(FlushedObjects[I]);
      ASSERT_EQ(Owner, I < 4 ? 1u : I < 8 ? 2u : 0u);
      ASSERT_EQ(offsetFromBase(FlushedObjects[I], Flushed.shard(Owner)),
                offsetFromBase(LoopedObjects[I], Looped.shard(Owner)))
          << "same seed, same allocations";
    }

    for (auto [Index, Offset] : Frees)
      Flushed.deallocate(static_cast<char *>(FlushedObjects[Index]) + Offset);
    for (size_t I = 0; I < Flushed.numShards(); ++I)
      for (int C = 0; C < SizeClass::NumClasses; ++C) {
        ASSERT_EQ(Flushed.shard(I).partition(C).stats().Frees, 0u)
            << "every free is still parked";
        ASSERT_EQ(Flushed.shard(I).partition(C).remoteFrees(), 0u);
      }
    Flushed.flushThreadCache();

    // The reference heap is quiescent and used by this thread alone, so
    // its shards can be driven directly.
    for (auto [Index, Offset] : Frees) {
      void *P = static_cast<char *>(LoopedObjects[Index]) + Offset;
      size_t Owner = Looped.shardIndexOf(P);
      auto &Shard = const_cast<DieHardHeap &>(Looped.shard(Owner));
      if (Owner == 0)
        Shard.deallocate(P);
      else
        Shard.remoteFree(Shard.partitionIndexOf(P), P);
    }
    Looped.flushThreadCache(); // Reclaims the cached slots, as above.
  }).join();

  expectSamePartitions(Flushed, Looped);
  // The case exercises what it means to: home frees and both ignored
  // frees in shard 0, foreign pushes and one push-time reject.
  const int Mixed = SizeClass::sizeToClass(64);
  const int Small = SizeClass::sizeToClass(16);
  EXPECT_EQ(Flushed.shard(0).partition(Mixed).stats().Frees, 3u);
  EXPECT_EQ(Flushed.shard(0).partition(Mixed).stats().IgnoredFrees, 1u);
  EXPECT_EQ(Flushed.shard(0).partition(Small).stats().IgnoredFrees, 1u);
  EXPECT_EQ(Flushed.shard(1).partition(Mixed).remoteFrees(), 4u);
  EXPECT_EQ(Flushed.shard(1).partition(Mixed).remoteFreeRejects(), 1u);
  EXPECT_EQ(Flushed.shard(2).partition(Mixed).remoteFrees(), 3u);

  // Draining the sidecars must keep the heaps in step: each chain holds
  // the same entries in the same order.
  EXPECT_EQ(Flushed.drainRemoteFrees(), 7u);
  EXPECT_EQ(Looped.drainRemoteFrees(), 7u);
  expectSamePartitions(Flushed, Looped);
}

TEST(ShardedHeapTest, ConsecutiveThreadsCoverEveryShard) {
  ShardedHeap H(smallOptions(4));
  // Thread tokens are handed out round-robin, so a run of numShards()
  // threads created back to back must land on numShards() distinct shards.
  std::vector<size_t> Homes;
  for (size_t I = 0; I < H.numShards(); ++I) {
    std::thread T([&] {
      void *P = H.allocate(128);
      ASSERT_NE(P, nullptr);
      Homes.push_back(H.shardIndexOf(P));
      H.deallocate(P);
    });
    T.join(); // Sequential: no races on Homes, tokens stay consecutive.
  }
  std::vector<bool> Seen(H.numShards(), false);
  for (size_t Home : Homes) {
    ASSERT_LT(Home, H.numShards());
    Seen[Home] = true;
  }
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_TRUE(Seen[I]) << "no thread was assigned shard " << I;
}

TEST(ShardedHeapTest, ThreadChurnBeyondShardCount) {
  ShardedHeap H(smallOptions(2));
  ASSERT_TRUE(H.isValid());

  // Waves of short-lived threads, many more than there are shards: token
  // assignment must wrap and every thread's traffic must stay intact.
  constexpr int Waves = 4;
  constexpr int ThreadsPerWave = 12;
  std::atomic<int> Failures{0};
  for (int Wave = 0; Wave < Waves; ++Wave) {
    std::vector<std::thread> Threads;
    for (int T = 0; T < ThreadsPerWave; ++T)
      Threads.emplace_back([&H, &Failures, Wave, T] {
        struct Obj {
          unsigned char *Ptr;
          size_t Size;
          unsigned char Tag;
        };
        unsigned State = static_cast<unsigned>(Wave * 131 + T + 1);
        std::vector<Obj> Live;
        for (int Step = 0; Step < 400; ++Step) {
          State = State * 1664525u + 1013904223u;
          if (State % 2 == 0 || Live.empty()) {
            size_t Size = 1 + State % 1024;
            auto Tag = static_cast<unsigned char>(State >> 24);
            auto *P = static_cast<unsigned char *>(H.allocate(Size));
            if (P == nullptr) {
              ++Failures;
              return;
            }
            std::memset(P, Tag, Size);
            Live.push_back(Obj{P, Size, Tag});
          } else {
            Obj O = Live.back();
            Live.pop_back();
            for (size_t I = 0; I < O.Size; ++I)
              if (O.Ptr[I] != O.Tag) {
                ++Failures;
                return;
              }
            H.deallocate(O.Ptr);
          }
        }
        for (Obj &O : Live)
          H.deallocate(O.Ptr);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, StatsAggregateAcrossShardsAndLargePath) {
  ShardedHeap H(smallOptions(4));
  ASSERT_TRUE(H.isValid());

  constexpr size_t PerThread = 50;
  std::vector<std::thread> Threads;
  std::mutex PtrLock;
  std::vector<void *> All;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      std::vector<void *> Mine;
      for (size_t I = 0; I < PerThread; ++I) {
        void *P = H.allocate(256);
        ASSERT_NE(P, nullptr);
        Mine.push_back(P);
      }
      std::lock_guard<std::mutex> G(PtrLock);
      All.insert(All.end(), Mine.begin(), Mine.end());
    });
  for (std::thread &T : Threads)
    T.join();

  void *Large = H.allocate(SizeClass::MaxObjectSize + 1);
  ASSERT_NE(Large, nullptr);

  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, 4 * PerThread);
  EXPECT_EQ(S.LargeAllocations, 1u);
  EXPECT_EQ(H.liveLargeObjects(), 1u);

  uint64_t PerShardSum = 0;
  for (size_t I = 0; I < H.numShards(); ++I)
    PerShardSum += H.shard(I).stats().Allocations;
  EXPECT_EQ(PerShardSum, S.Allocations)
      << "aggregate must equal the sum of the shards";

  for (void *P : All)
    H.deallocate(P);
  H.deallocate(Large);
  H.drainRemoteFrees(); // Materialize the sidecar-parked cross-shard frees.
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(H.stats().LargeFrees, 1u);
}

TEST(ShardedHeapTest, LargeObjectsBypassShards) {
  ShardedHeap H(smallOptions(4));
  constexpr size_t Size = 64 * 1024;
  auto *P = static_cast<char *>(H.allocate(Size));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.shardIndexOf(P), H.numShards()) << "large owner id expected";
  EXPECT_EQ(H.getObjectSize(P), Size);
  std::memset(P, 0x42, Size);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectSize(P), 0u);
  H.deallocate(P); // Double free: validated and ignored.
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);
}

TEST(ShardedHeapTest, ForeignPointersAreIgnored) {
  ShardedHeap H(smallOptions(2));
  int Local = 0;
  EXPECT_EQ(H.shardIndexOf(&Local), SIZE_MAX);
  EXPECT_EQ(H.getObjectSize(&Local), 0u);
  H.deallocate(&Local);
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);
}

TEST(ShardedHeapTest, CrossThreadReallocPreservesData) {
  ShardedHeap H(smallOptions(4));
  auto *P = static_cast<unsigned char *>(H.allocate(100));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 100; ++I)
    P[I] = static_cast<unsigned char>(I);
  size_t HomeOfMain = H.shardIndexOf(P);

  unsigned char *Q = nullptr;
  std::thread Grower([&] {
    // Growing past the rounded class size forces a move; the fresh block
    // comes from this thread's home shard.
    Q = static_cast<unsigned char *>(H.reallocate(P, 4096));
  });
  Grower.join();
  ASSERT_NE(Q, nullptr);
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(Q[I], static_cast<unsigned char>(I));
  EXPECT_LT(H.shardIndexOf(Q), H.numShards());
  (void)HomeOfMain; // The old slot is freed on its owner either way.
  H.deallocate(Q);
  H.drainRemoteFrees(); // Both frees crossed shards via the sidecars.
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ReallocSemanticsMatchDieHardHeap) {
  ShardedHeap H(smallOptions(2));
  // realloc(nullptr, n) allocates.
  void *P = H.reallocate(nullptr, 64);
  ASSERT_NE(P, nullptr);
  // Small shrink within the class stays in place.
  EXPECT_EQ(H.reallocate(P, 40), P);
  // realloc(p, 0) frees.
  EXPECT_EQ(H.reallocate(P, 0), nullptr);
  EXPECT_EQ(H.bytesLive(), 0u);
  // Foreign pointers are refused.
  int Local = 0;
  EXPECT_EQ(H.reallocate(&Local, 32), nullptr);
}

TEST(ShardedHeapTest, ZeroedAllocationIsZeroFilled) {
  ShardedHeap H(smallOptions(2));
  auto *P = static_cast<unsigned char *>(H.allocateZeroed(16, 32));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 16 * 32; ++I)
    ASSERT_EQ(P[I], 0u);
  H.deallocate(P);
  EXPECT_EQ(H.allocateZeroed(SIZE_MAX / 2, 4), nullptr) << "overflow check";
}

TEST(ShardedHeapTest, TooSmallReservationTurnsInvalid) {
  ShardedHeapOptions O = smallOptions(8);
  O.Heap.HeapSize = 64 * 1024; // Far below 8 usable shards.
  ShardedHeap H(O);
  EXPECT_FALSE(H.isValid());
  EXPECT_EQ(H.allocate(64), nullptr);
}

TEST(ShardedHeapTest, SameShardDifferentClassesRunConcurrently) {
  // The point of per-partition locks: threads that share a home shard but
  // allocate different size classes must be able to proceed independently.
  // One shard forces every thread onto the same DieHardHeap; each thread
  // hammers its own size class. Correctness (and TSan cleanliness in the
  // sanitizer lanes) is the assertion — the throughput win is measured by
  // bench_mt_scaling's mixed-class scenario.
  ShardedHeap H(smallOptions(1));
  ASSERT_TRUE(H.isValid());

  constexpr int Threads = 6;
  constexpr int Rounds = 2000;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, &Failures, T] {
      // Thread T owns size class T+2 (32 B .. 1 KB): distinct partitions,
      // distinct locks, zero cross-thread aliasing by construction.
      size_t Size = SizeClass::classToSize(T + 2);
      auto Tag = static_cast<unsigned char>(0xA0 + T);
      std::vector<unsigned char *> Live;
      for (int R = 0; R < Rounds; ++R) {
        auto *P = static_cast<unsigned char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        std::memset(P, Tag, Size);
        Live.push_back(P);
        if (Live.size() > 64) {
          unsigned char *Old = Live.front();
          Live.erase(Live.begin());
          for (size_t I = 0; I < Size; ++I)
            if (Old[I] != Tag) {
              ++Failures;
              return;
            }
          H.deallocate(Old);
        }
      }
      for (unsigned char *P : Live)
        H.deallocate(P);
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, static_cast<uint64_t>(Threads) * Rounds);
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(H.bytesLive(), 0u);
  // Exactly the six driven partitions saw traffic.
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(H.shard(0).partition(T + 2).stats().Allocations,
              static_cast<uint64_t>(Rounds));
}

/// Tiny two-shard heap where one class's threshold is reachable in a few
/// allocations (partition = 64 KB, so the 4 KB class has 16 slots and a 1/M
/// threshold of 8).
ShardedHeapOptions tinyTwoShardOptions(bool Overflow) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = 12 * SizeClass::MaxObjectSize * 4;
  O.Heap.Seed = 42;
  O.NumShards = 2;
  O.OverflowRouting = Overflow;
  return O;
}

TEST(ShardedHeapTest, OverflowRoutesToLeastLoadedSibling) {
  ShardedHeap H(tinyTwoShardOptions(/*Overflow=*/true));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Home = H.homeShardIndex();
  size_t Sibling = 1 - Home;
  size_t Threshold = H.shard(Home).thresholdForClass(C);
  ASSERT_GT(Threshold, 0u);

  // Saturate the home partition exactly to its 1/M bound.
  std::vector<void *> Held;
  for (size_t I = 0; I < Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(H.shardIndexOf(P), Home) << "below threshold stays home";
    Held.push_back(P);
  }
  EXPECT_EQ(H.partitionFill(Home, C), 1.0);
  EXPECT_EQ(H.overflowAllocations(), 0u);

  // The next allocation would previously have returned nullptr; with
  // routing it lands on the sibling's same-class partition.
  void *Borrowed = H.allocate(4096);
  ASSERT_NE(Borrowed, nullptr) << "overflow must borrow sibling capacity";
  EXPECT_EQ(H.shardIndexOf(Borrowed), Sibling);
  EXPECT_EQ(H.overflowAllocations(), 1u);
  EXPECT_EQ(H.stats().OverflowAllocations, 1u);
  EXPECT_EQ(H.shard(Sibling).liveInClass(C), 1u);
  EXPECT_EQ(H.stats().FailedAllocations, 0u)
      << "a detour that succeeds is not a failed allocation";

  // The borrowed object frees back to its owner like any cross-shard free
  // (a sidecar push; drain to materialize it before reading the gauge).
  H.deallocate(Borrowed);
  // Even without the cache tier, the cross-shard free must have gone
  // through the owner's sidecar — never the remote partition mutex.
  EXPECT_EQ(H.remoteFrees(), 1u);
  H.drainRemoteFrees();
  EXPECT_EQ(H.shard(Sibling).liveInClass(C), 0u);
  for (void *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, OverflowDisabledRestoresStrictPerShardBound) {
  ShardedHeap H(tinyTwoShardOptions(/*Overflow=*/false));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Home = H.homeShardIndex();
  size_t Threshold = H.shard(Home).thresholdForClass(C);

  std::vector<void *> Held;
  for (size_t I = 0; I < Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr);
    Held.push_back(P);
  }
  // Strict 1/M semantics: saturation fails even though the sibling has
  // room, exactly as a lone DieHardHeap would.
  EXPECT_EQ(H.allocate(4096), nullptr);
  EXPECT_EQ(H.overflowAllocations(), 0u);
  EXPECT_GE(H.stats().FailedAllocations, 1u);
  for (void *P : Held)
    H.deallocate(P);
}

TEST(ShardedHeapTest, OverflowStopsWhenEverySiblingIsSaturated) {
  ShardedHeap H(tinyTwoShardOptions(/*Overflow=*/true));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Threshold = H.shard(0).thresholdForClass(C);

  // Both shards share one threshold, so 2*threshold allocations saturate
  // the class everywhere (the second half arriving via overflow routing)…
  std::vector<void *> Held;
  for (size_t I = 0; I < 2 * Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr) << "allocation " << I;
    Held.push_back(P);
  }
  EXPECT_EQ(H.overflowAllocations(), static_cast<uint64_t>(Threshold));
  EXPECT_EQ(H.partitionFill(0, C), 1.0);
  EXPECT_EQ(H.partitionFill(1, C), 1.0);
  // …and the 1/M invariant then holds globally: no partition may exceed
  // its bound, so the next request fails — counted exactly once, as one
  // failed malloc, not once per probed partition.
  EXPECT_EQ(H.allocate(4096), nullptr);
  EXPECT_EQ(H.stats().FailedAllocations, 1u);
  // Other classes are untouched by the saturation.
  void *Other = H.allocate(64);
  EXPECT_NE(Other, nullptr);
  H.deallocate(Other);
  for (void *P : Held)
    H.deallocate(P);
  H.drainRemoteFrees(); // Half of Held lived on the sibling shard.
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, AdapterDrivesWorkloadsThroughTheShards) {
  // The ShardedHeapAdapter facade lets the workload/bench harnesses drive
  // the full sharded front end; the checksum must match the system
  // allocator's run of the same script (allocator-independent semantics).
  ShardedHeap H(smallOptions(4));
  ShardedHeapAdapter Adapter(H);
  EXPECT_STREQ(Adapter.getName(), "diehard-sharded");

  WorkloadParams P;
  P.Name = "sharded";
  P.MemoryOps = 20000;
  P.MinSize = 8;
  P.MaxSize = 2048;
  P.MaxLive = 500;
  P.Seed = 9;
  SyntheticWorkload W(P);
  uint64_t Sharded = W.run(Adapter).Checksum;
  SystemAllocator System;
  EXPECT_EQ(Sharded, W.run(System).Checksum);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ConcurrentMixedStress) {
  // The all-in-one race hunt for the sanitizer lanes: small and large
  // traffic, cross-thread frees through a shared exchange, reallocs and
  // queries, all concurrent.
  ShardedHeap H(smallOptions(4, 7));
  ASSERT_TRUE(H.isValid());

  std::mutex ExchangeLock;
  std::vector<std::pair<unsigned char *, size_t>> Exchange;
  std::atomic<int> Failures{0};

  auto Worker = [&](unsigned Id) {
    unsigned State = Id * 2654435761u + 1;
    auto Next = [&State] {
      State = State * 1664525u + 1013904223u;
      return State;
    };
    std::vector<std::pair<unsigned char *, size_t>> Live;
    for (int Step = 0; Step < 3000; ++Step) {
      unsigned Op = Next() % 100;
      if (Op < 40 || Live.empty()) {
        size_t Size = (Op % 10 == 0) ? 17 * 1024 + Next() % 4096
                                     : 1 + Next() % 2048;
        auto *P = static_cast<unsigned char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        std::memset(P, static_cast<int>(Id), Size);
        Live.emplace_back(P, Size);
      } else if (Op < 55) {
        auto [P, Size] = Live.back();
        Live.pop_back();
        std::lock_guard<std::mutex> G(ExchangeLock);
        Exchange.emplace_back(P, Size);
      } else if (Op < 70) {
        std::unique_lock<std::mutex> G(ExchangeLock);
        if (!Exchange.empty()) {
          auto [P, Size] = Exchange.back();
          Exchange.pop_back();
          G.unlock();
          // Freed cross-thread: the registry must route to the owner.
          if (H.getObjectSize(P) == 0)
            ++Failures;
          H.deallocate(P);
        }
      } else if (Op < 80 && !Live.empty()) {
        auto &[P, Size] = Live.back();
        size_t NewSize = 1 + Next() % 4096;
        auto *Q = static_cast<unsigned char *>(H.reallocate(P, NewSize));
        if (Q == nullptr) {
          ++Failures;
          return;
        }
        P = Q;
        Size = NewSize;
        std::memset(P, static_cast<int>(Id), Size);
      } else if (!Live.empty()) {
        auto [P, Size] = Live.back();
        Live.pop_back();
        for (size_t I = 0; I < Size; ++I)
          if (P[I] != static_cast<unsigned char>(Id)) {
            ++Failures;
            break;
          }
        H.deallocate(P);
      }
    }
    for (auto &[P, Size] : Live)
      H.deallocate(P);
  };

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back(Worker, T + 1);
  for (std::thread &T : Threads)
    T.join();
  for (auto &[P, Size] : Exchange)
    H.deallocate(P);

  EXPECT_EQ(Failures.load(), 0);
  H.drainRemoteFrees(); // Exchange frees crossed shards via the sidecars.
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.LargeAllocations, S.LargeFrees);
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(H.liveLargeObjects(), 0u);
}

TEST(LargeObjectConcurrencyTest, ShardZeroLargePathBesideItsPartitions) {
  // Every large request runs through shard 0's DieHardHeap under LargeLock,
  // while threads homed on shard 0 use that heap's partitions under their
  // own locks, and a reader polls the lock-free gauges. The large path may
  // touch only shard 0's heap-level members; TSan checks that it does.
  ShardedHeap H(smallOptions(4, 23));
  ASSERT_TRUE(H.isValid());

  void *StableLarge = H.allocate(SizeClass::MaxObjectSize + 100);
  ASSERT_NE(StableLarge, nullptr);
  int Foreign = 0;

  std::atomic<bool> Done{false};
  std::atomic<int> Failures{0};
  std::mutex PoolLock;
  std::vector<std::pair<char *, size_t>> Pool;

  std::vector<std::thread> Churners;
  for (int T = 0; T < 4; ++T)
    Churners.emplace_back([&, T] {
      unsigned State = static_cast<unsigned>(T) * 48271u + 7;
      for (int I = 0; I < 150; ++I) {
        State = State * 1664525u + 1013904223u;
        size_t Size = SizeClass::MaxObjectSize + 1 + State % (48 * 1024);
        auto *P = static_cast<char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        P[0] = static_cast<char>(T);
        P[Size - 1] = static_cast<char>(T);
        std::unique_lock<std::mutex> G(PoolLock);
        Pool.emplace_back(P, Size);
        if (Pool.size() > 6) {
          auto [Q, QSize] = Pool.front();
          Pool.erase(Pool.begin());
          G.unlock();
          if (H.getObjectSize(Q) != QSize)
            ++Failures;
          H.deallocate(Q); // Often another thread's object.
        }
      }
    });
  for (int T = 0; T < 2; ++T)
    Churners.emplace_back([&, T] {
      ShardedHeap::pinThreadToken(0);
      std::vector<void *> Live;
      for (int I = 0; I < 3000; ++I) {
        void *P = H.allocate(size_t(8) << ((I + T) % SizeClass::NumClasses));
        if (P == nullptr || H.shardIndexOf(P) != 0) {
          ++Failures;
          return;
        }
        Live.push_back(P);
        if (Live.size() > 64) {
          H.deallocate(Live.front());
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        H.deallocate(P);
    });
  std::thread Reader([&] {
    while (!Done.load(std::memory_order_acquire)) {
      DieHardStats S = H.statsApprox();
      if (S.LargeFrees > S.LargeAllocations || H.bytesLive() == 0 ||
          H.shardIndexOf(StableLarge) != H.numShards() ||
          H.shardIndexOf(static_cast<char *>(StableLarge) + 1) != SIZE_MAX ||
          H.shardIndexOf(&Foreign) != SIZE_MAX)
        ++Failures;
    }
  });
  for (std::thread &T : Churners)
    T.join();
  Done.store(true, std::memory_order_release);
  Reader.join();
  for (auto &[P, Size] : Pool)
    H.deallocate(P);
  H.deallocate(StableLarge);
  H.drainRemoteFrees();

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.LargeAllocations, 4u * 150u + 1u);
  EXPECT_EQ(S.LargeFrees, S.LargeAllocations);
  EXPECT_EQ(H.liveLargeObjects(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

} // namespace
} // namespace diehard
