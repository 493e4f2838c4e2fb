//===- tests/core/ThreadCacheTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the thread-cache tier: the lock-free fast path's refill/flush
/// mechanics, the 1/M fill bound with cached-but-unissued slots counted as
/// live, thread-exit flushing (no leaked cached slots after joins),
/// cross-thread frees through the deferred buffer, heap teardown with live
/// caches, the statsApprox() snapshot, and — the paper's core claim — a
/// chi-square check that cached placement is statistically
/// indistinguishable from the uncached uniform discipline.
///
//===----------------------------------------------------------------------===//

#include "core/ThreadCache.h"

#include "core/ShardedHeap.h"
#include "core/SizeClass.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace diehard {
namespace {

/// One shard, fixed seed, cache K=16. HeapSize chosen so each partition is
/// 16 * MaxObjectSize: the 4 KB class has 64 slots and a 1/M threshold of
/// 32 — saturation and full-coverage statistics are cheap to reach.
ShardedHeapOptions cachedOptions(size_t CacheSlots = 16, uint64_t Seed = 42,
                                 size_t NumShards = 1) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 16;
  O.Heap.Seed = Seed;
  O.NumShards = NumShards;
  O.ThreadCacheSlots = CacheSlots;
  return O;
}

constexpr size_t ProbeSize = 4096;

TEST(ThreadCacheTest, FirstAllocationRefillsOneBatch) {
  ShardedHeap H(cachedOptions(16));
  ASSERT_TRUE(H.isValid());
  EXPECT_EQ(H.cachedSlots(), 0u);

  void *P = H.allocate(ProbeSize);
  ASSERT_NE(P, nullptr);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.CacheRefills, 1u);
  EXPECT_EQ(S.CachedSlots, 15u) << "one batch of 16, one slot handed out";
  EXPECT_EQ(S.Allocations, 1u) << "only the pop is a user allocation";

  // The next 15 allocations are pure cache pops: no further refill.
  std::vector<void *> Held{P};
  for (int I = 0; I < 15; ++I) {
    void *Q = H.allocate(ProbeSize);
    ASSERT_NE(Q, nullptr);
    Held.push_back(Q);
  }
  S = H.stats();
  EXPECT_EQ(S.CacheRefills, 1u);
  EXPECT_EQ(S.CachedSlots, 0u);
  EXPECT_EQ(S.Allocations, 16u);

  // The 17th triggers the second refill.
  Held.push_back(H.allocate(ProbeSize));
  ASSERT_NE(Held.back(), nullptr);
  EXPECT_EQ(H.stats().CacheRefills, 2u);

  for (void *Q : Held)
    H.deallocate(Q);
  H.flushThreadCache();
  EXPECT_EQ(H.cachedSlots(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
}

TEST(ThreadCacheTest, CachedSlotsAreDistinctLiveObjects) {
  ShardedHeap H(cachedOptions(16));
  std::vector<void *> Held;
  for (int I = 0; I < 24; ++I) {
    auto *P = static_cast<unsigned char *>(H.allocate(ProbeSize));
    ASSERT_NE(P, nullptr);
    for (void *Q : Held)
      ASSERT_NE(P, Q) << "cache handed the same slot out twice";
    std::memset(P, 0x5C, ProbeSize);
    Held.push_back(P);
  }
  for (void *Q : Held)
    H.deallocate(Q);
  H.flushThreadCache();
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ThreadCacheTest, CachedSlotsCountAgainstTheFillBound) {
  // The paper's 1/M invariant must hold with slots parked in caches: a
  // partition refuses work when live + cached hits the threshold, not
  // when user-visible allocations do.
  ShardedHeap H(cachedOptions(16));
  int Class = SizeClass::sizeToClass(ProbeSize);
  size_t Threshold = H.shard(0).thresholdForClass(Class);
  ASSERT_EQ(Threshold, 32u);
  const RandomizedPartition &Part = H.shard(0).partition(Class);

  std::vector<void *> Held;
  Held.push_back(H.allocate(ProbeSize));
  ASSERT_NE(Held.back(), nullptr);
  EXPECT_EQ(Part.live(), 16u)
      << "one user object, but the whole claimed batch is live";

  void *P;
  while ((P = H.allocate(ProbeSize)) != nullptr)
    Held.push_back(P);
  EXPECT_EQ(Part.live(), Threshold)
      << "cached slots count as live for the 1/M bound";
  EXPECT_EQ(Part.fill(), 1.0);
  EXPECT_EQ(Held.size() + H.cachedSlots(), Threshold)
      << "user objects + cached slots exactly fill the bound";
  EXPECT_LE(Held.size(), Threshold);

  // Freeing and flushing restores the full capacity.
  for (void *Q : Held)
    H.deallocate(Q);
  H.flushThreadCache();
  EXPECT_EQ(Part.live(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_NE(H.allocate(ProbeSize), nullptr);
  H.flushThreadCache();
}

TEST(ThreadCacheTest, DeferredFreesFlushInOneLockedBatch) {
  ShardedHeap H(cachedOptions(16));
  int Class = SizeClass::sizeToClass(64);
  std::vector<void *> Held;
  for (int I = 0; I < 20; ++I) {
    Held.push_back(H.allocate(64));
    ASSERT_NE(Held.back(), nullptr);
  }
  uint64_t FreesBefore = H.shard(0).partition(Class).stats().Frees;
  // 20 frees fit in the deferred buffer (capacity 2*K = 32): the partition
  // must not have seen any of them yet.
  for (void *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.shard(0).partition(Class).stats().Frees, FreesBefore);
  EXPECT_EQ(H.stats().Frees, 20u) << "stats() folds deferred frees in";

  H.flushThreadCache();
  EXPECT_EQ(H.shard(0).partition(Class).stats().Frees, FreesBefore + 20);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ThreadCacheTest, FullDeferredBufferFlushesAutomatically) {
  ShardedHeap H(cachedOptions(16)); // Deferred capacity = 32.
  int Class = SizeClass::sizeToClass(64);
  std::vector<void *> Held;
  for (int I = 0; I < 40; ++I) {
    Held.push_back(H.allocate(64));
    ASSERT_NE(Held.back(), nullptr);
  }
  for (void *P : Held)
    H.deallocate(P);
  // 40 frees through a 32-entry buffer: at least one automatic flush must
  // have returned the first 32 to the partition.
  EXPECT_GE(H.shard(0).partition(Class).stats().Frees, 32u);
  EXPECT_GE(H.stats().CacheFlushes, 1u);
  H.flushThreadCache();
  EXPECT_EQ(H.bytesLive(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
}

TEST(ThreadCacheTest, FlushPeriodCountsFreesAcrossAllClasses) {
  // The deferred buffer parks each free in its class's own segment, but
  // the flush trigger is the buffer's total: 2K frees park whether they
  // share one class or spread over all twelve, and the (2K+1)-th free
  // flushes exactly once.
  for (bool OneClass : {true, false}) {
    SCOPED_TRACE(OneClass ? "one class" : "all twelve classes");
    ShardedHeap H(cachedOptions(16)); // Deferred capacity = 32.
    std::vector<void *> Held;
    for (int I = 0; I < 33; ++I) {
      int Class = OneClass ? 3 : I % SizeClass::NumClasses;
      Held.push_back(H.allocate(SizeClass::classToSize(Class)));
      ASSERT_NE(Held.back(), nullptr);
    }
    auto partitionFrees = [&] {
      uint64_t Frees = 0;
      for (int C = 0; C < SizeClass::NumClasses; ++C)
        Frees += H.shard(0).partition(C).stats().Frees;
      return Frees;
    };
    const uint64_t Flushes = H.stats().CacheFlushes;
    for (int I = 0; I < 32; ++I)
      H.deallocate(Held[I]);
    EXPECT_EQ(H.stats().CacheFlushes, Flushes) << "2K frees all park";
    EXPECT_EQ(partitionFrees(), 0u);

    H.deallocate(Held[32]);
    EXPECT_EQ(H.stats().CacheFlushes, Flushes + 1);
    EXPECT_EQ(partitionFrees(), 32u) << "the flush returned the first 2K";
    EXPECT_EQ(H.stats().Frees, 33u) << "the 2K+1-th is parked";

    H.flushThreadCache();
    EXPECT_EQ(partitionFrees(), 33u);
    EXPECT_EQ(H.bytesLive(), 0u);
  }
}

TEST(ThreadCacheTest, DoubleFreeThroughDeferredBufferIsIgnoredAtFlush) {
  ShardedHeap H(cachedOptions(16));
  void *P = H.allocate(64);
  ASSERT_NE(P, nullptr);
  H.deallocate(P);
  H.deallocate(P); // Both land in the deferred buffer.
  H.flushThreadCache();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Frees, 1u) << "first free wins at flush";
  EXPECT_EQ(S.IgnoredFrees, 1u) << "second is validated away";
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ThreadCacheTest, CrossThreadFreesRouteThroughDeferredBuffer) {
  // Four shards: the freeing thread defers frees of objects owned by
  // *other* shards; a full buffer forces a grouped flush that must route
  // every pointer back to its owning partition.
  ShardedHeap H(cachedOptions(16, 42, 4));
  ASSERT_TRUE(H.isValid());

  std::vector<void *> FromWorker;
  std::thread Producer([&] {
    for (int I = 0; I < 96; ++I) {
      void *P = H.allocate(256);
      ASSERT_NE(P, nullptr);
      std::memset(P, 0x7E, 256);
      FromWorker.push_back(P);
    }
    H.flushThreadCache(); // Return the producer's unused cached slots.
  });
  Producer.join();

  size_t Owner = H.shardIndexOf(FromWorker.front());
  ASSERT_LT(Owner, H.numShards());
  // Free everything from this thread: 96 entries overflow the 32-entry
  // deferred buffer repeatedly, so several grouped flushes reach the
  // owning shard — through its lock when this thread happens to share the
  // shard, through its lock-free sidecar otherwise. Either way the frees
  // fold into stats() immediately; the bytes stay counted live until the
  // sidecars drain.
  for (void *P : FromWorker) {
    EXPECT_EQ(H.shardIndexOf(P), Owner);
    H.deallocate(P);
  }
  H.flushThreadCache();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, 96u);
  EXPECT_EQ(S.Frees, 96u);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  H.drainRemoteFrees();
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ThreadCacheTest, ThreadExitFlushLeavesNoCachedSlots) {
  // Waves of short-lived threads churn through the cache; every join must
  // leave CachedSlots at zero (the exit destructor returns deferred frees
  // AND unused claimed slots). The main thread deliberately never
  // allocates, so any residue would be a leak from a dead thread.
  ShardedHeapOptions O = cachedOptions(16, 7, 2);
  // Room for 8 threads' caches: every thread may park K slots per class,
  // and cached slots count against each partition's 1/M bound.
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());

  for (int Wave = 0; Wave < 3; ++Wave) {
    std::vector<std::thread> Threads;
    for (int T = 0; T < 8; ++T)
      Threads.emplace_back([&H, Wave, T] {
        unsigned State = static_cast<unsigned>(Wave * 97 + T + 1);
        std::vector<std::pair<unsigned char *, size_t>> Live;
        for (int Step = 0; Step < 600; ++Step) {
          State = State * 1664525u + 1013904223u;
          if (State % 2 == 0 || Live.empty()) {
            size_t Size = 1 + State % 2048;
            auto *P = static_cast<unsigned char *>(H.allocate(Size));
            ASSERT_NE(P, nullptr);
            std::memset(P, 0x33, Size);
            Live.emplace_back(P, Size);
          } else {
            H.deallocate(Live.back().first);
            Live.pop_back();
          }
        }
        for (auto &[P, Size] : Live)
          H.deallocate(P);
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(H.cachedSlots(), 0u)
        << "wave " << Wave << " leaked cached slots past its joins";
  }
  EXPECT_EQ(H.bytesLive(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.CachedSlots, 0u);
}

TEST(ThreadCacheTest, HeapDestructionWithLiveCachesIsSafe) {
  // Destroy a heap while this thread still holds a cache for it; the next
  // heap must install a fresh cache (ids are never reused) and the corpse
  // must be pruned without touching the dead heap.
  {
    ShardedHeap H(cachedOptions(8));
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    H.deallocate(P); // Left parked in the deferred buffer on purpose.
    EXPECT_GT(H.cachedSlots(), 0u);
  } // ~ShardedHeap retires the cache un-flushed.

  ShardedHeap Fresh(cachedOptions(8));
  void *Q = Fresh.allocate(64);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Fresh.stats().CacheRefills, 1u)
      << "the new heap must not inherit the dead heap's cache";
  Fresh.deallocate(Q);
  Fresh.flushThreadCache();
  EXPECT_EQ(Fresh.bytesLive(), 0u);
}

TEST(ThreadCacheTest, CacheOffMatchesLoneDieHardHeapBitForBit) {
  // ThreadCacheSlots = 0 must leave the single-shard configuration on the
  // exact code path the identity test pins down: same seed, same slots.
  DieHardOptions Plain;
  Plain.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 16;
  Plain.Seed = 42;
  DieHardHeap Reference(Plain);
  ShardedHeap Uncached(cachedOptions(0));
  ASSERT_TRUE(Reference.isValid());
  ASSERT_TRUE(Uncached.isValid());

  for (int I = 0; I < 200; ++I) {
    size_t Size = 8u << (I % 8);
    void *A = Reference.allocate(Size);
    void *B = Uncached.allocate(Size);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    ASSERT_EQ(static_cast<const char *>(A) -
                  static_cast<const char *>(Reference.heapBase()),
              static_cast<const char *>(B) -
                  static_cast<const char *>(Uncached.shard(0).heapBase()));
  }
}

TEST(ThreadCacheTest, StatsApproxMatchesExactWhenQuiescent) {
  ShardedHeap H(cachedOptions(16));
  std::vector<void *> Held;
  for (int I = 0; I < 50; ++I) {
    Held.push_back(H.allocate(1 + (I * 37) % 4000));
    ASSERT_NE(Held.back(), nullptr);
  }
  for (void *P : Held)
    H.deallocate(P);
  H.flushThreadCache(); // Folds every cache counter into the aggregates.

  DieHardStats Exact = H.stats();
  DieHardStats Approx = H.statsApprox();
  EXPECT_EQ(Approx.Allocations, Exact.Allocations);
  EXPECT_EQ(Approx.Frees, Exact.Frees);
  EXPECT_EQ(Approx.FailedAllocations, Exact.FailedAllocations);
  EXPECT_EQ(Approx.IgnoredFrees, Exact.IgnoredFrees);
  EXPECT_EQ(Approx.CachedSlots, Exact.CachedSlots);
  EXPECT_EQ(Approx.CacheRefills, Exact.CacheRefills);
  EXPECT_EQ(Approx.CacheFlushes, Exact.CacheFlushes);
  EXPECT_EQ(Approx.Probes, Exact.Probes);
}

/// Collects `Rounds` rounds of slot indices for the 4 KB class: each round
/// allocates up to the 1/M threshold, records every object's slot, then
/// frees and flushes so the next round starts from an empty partition.
std::vector<uint64_t> slotHistogram(ShardedHeap &H, int Rounds,
                                    size_t &SamplesOut) {
  int Class = SizeClass::sizeToClass(ProbeSize);
  const RandomizedPartition &Part = H.shard(0).partition(Class);
  const char *Base = static_cast<const char *>(Part.base());
  std::vector<uint64_t> Histogram(Part.slots(), 0);
  SamplesOut = 0;
  for (int R = 0; R < Rounds; ++R) {
    std::vector<void *> Held;
    void *P;
    while ((P = H.allocate(ProbeSize)) != nullptr) {
      size_t Slot =
          static_cast<size_t>(static_cast<char *>(P) - Base) / ProbeSize;
      ++Histogram[Slot];
      ++SamplesOut;
      Held.push_back(P);
    }
    for (void *Q : Held)
      H.deallocate(Q);
    H.flushThreadCache();
  }
  return Histogram;
}

TEST(ThreadCacheTest, CachedPlacementIsStatisticallyUniform) {
  // The randomization-preservation criterion, demonstrated rather than
  // asserted: slot-index distributions with and without the cache must be
  // statistically indistinguishable. Batch refills draw each slot with
  // allocate()'s exact probe discipline, so both configurations sample the
  // same process; a two-sample chi-square homogeneity test over the 64
  // slots of the 4 KB class checks it. Seeds are fixed, so the statistic
  // is deterministic — no flakiness.
  ShardedHeap Cached(cachedOptions(16, 1001));
  ShardedHeap Uncached(cachedOptions(0, 2002));
  ASSERT_TRUE(Cached.isValid());
  ASSERT_TRUE(Uncached.isValid());

  constexpr int Rounds = 300;
  size_t CachedSamples = 0, UncachedSamples = 0;
  std::vector<uint64_t> HC = slotHistogram(Cached, Rounds, CachedSamples);
  std::vector<uint64_t> HU =
      slotHistogram(Uncached, Rounds, UncachedSamples);
  ASSERT_EQ(HC.size(), HU.size());
  ASSERT_EQ(CachedSamples, UncachedSamples)
      << "both configurations must fill to the same 1/M bound";

  // Every slot must be reachable in both configurations (full support).
  for (size_t S = 0; S < HC.size(); ++S) {
    EXPECT_GT(HC[S], 0u) << "cached run never placed in slot " << S;
    EXPECT_GT(HU[S], 0u) << "uncached run never placed in slot " << S;
  }

  // Two-sample chi-square homogeneity: cells are slots, samples are the
  // two configurations. df = slots - 1 = 63; the alpha = 0.001 critical
  // value is 103.4 — accept comfortably below it.
  double Chi2 = 0.0;
  double Total = static_cast<double>(CachedSamples + UncachedSamples);
  for (size_t S = 0; S < HC.size(); ++S) {
    double RowTotal = static_cast<double>(HC[S] + HU[S]);
    double EC = RowTotal * static_cast<double>(CachedSamples) / Total;
    double EU = RowTotal * static_cast<double>(UncachedSamples) / Total;
    double DC = static_cast<double>(HC[S]) - EC;
    double DU = static_cast<double>(HU[S]) - EU;
    Chi2 += DC * DC / EC + DU * DU / EU;
  }
  EXPECT_LT(Chi2, 103.4)
      << "cached vs uncached slot distributions diverge (df=63, a=0.001)";

  // And each configuration individually must not stray from uniform.
  double Expected =
      static_cast<double>(CachedSamples) / static_cast<double>(HC.size());
  double Chi2C = 0.0, Chi2U = 0.0;
  for (size_t S = 0; S < HC.size(); ++S) {
    double DC = static_cast<double>(HC[S]) - Expected;
    double DU = static_cast<double>(HU[S]) - Expected;
    Chi2C += DC * DC / Expected;
    Chi2U += DU * DU / Expected;
  }
  EXPECT_LT(Chi2C, 103.4) << "cached placement not uniform over slots";
  EXPECT_LT(Chi2U, 103.4) << "uncached placement not uniform over slots";
}

TEST(ThreadCacheTest, ConcurrentCachedStressStaysConsistent) {
  // The TSan/ASan workload for the cache tier: several threads churning
  // mixed sizes with cross-thread frees through a shared exchange, all on
  // cached fast paths.
  ShardedHeapOptions O = cachedOptions(16, 9, 4);
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());

  std::mutex ExchangeLock;
  std::vector<std::pair<unsigned char *, size_t>> Exchange;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 6; ++T)
    Threads.emplace_back([&H, &ExchangeLock, &Exchange, &Failures, T] {
      unsigned State = (T + 1) * 2654435761u;
      auto Next = [&State] {
        State = State * 1664525u + 1013904223u;
        return State;
      };
      std::vector<std::pair<unsigned char *, size_t>> Live;
      for (int Step = 0; Step < 4000; ++Step) {
        unsigned Op = Next() % 100;
        if (Op < 45 || Live.empty()) {
          size_t Size = 1 + Next() % 2048;
          auto *P = static_cast<unsigned char *>(H.allocate(Size));
          if (P == nullptr) {
            ++Failures;
            return;
          }
          std::memset(P, static_cast<int>(T + 1), Size);
          Live.emplace_back(P, Size);
        } else if (Op < 60) {
          std::lock_guard<std::mutex> G(ExchangeLock);
          Exchange.push_back(Live.back());
          Live.pop_back();
        } else if (Op < 75) {
          std::unique_lock<std::mutex> G(ExchangeLock);
          if (!Exchange.empty()) {
            auto [P, Size] = Exchange.back();
            Exchange.pop_back();
            G.unlock();
            H.deallocate(P); // Cross-thread: deferred with a remote owner.
          }
        } else {
          auto [P, Size] = Live.back();
          Live.pop_back();
          for (size_t I = 0; I < Size; ++I)
            if (P[I] != static_cast<unsigned char>(T + 1)) {
              ++Failures;
              return;
            }
          H.deallocate(P);
        }
      }
      for (auto &[P, Size] : Live)
        H.deallocate(P);
    });
  for (std::thread &T : Threads)
    T.join();
  for (auto &[P, Size] : Exchange)
    H.deallocate(P);
  H.flushThreadCache();
  H.drainRemoteFrees(); // Materialize in-flight cross-shard frees.

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(H.cachedSlots(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
}

} // namespace
} // namespace diehard
