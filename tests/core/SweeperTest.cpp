//===- tests/core/SweeperTest.cpp -----------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the epoch sweeper: sidecar drains without owner activity,
/// aging of quiet threads' caches without the threads exiting, partial
/// page return of quiet partitions' free spans with the bitmap metadata
/// (and so double-free detection) intact, the fill-ratio gate that keeps
/// the scanner off hot partitions, double frees exposed at the sweeper's
/// own drains, the stale-pressure-table fallback of overflow routing, and
/// sweeper-vs-allocator stress runs for the sanitizer lanes.
///
/// Deterministic cases construct the heap with the sweeper on but an
/// hour-long interval and drive passes synchronously with sweepNow(); the
/// stress case runs the background thread for real at a short interval.
/// The stress test scales with DIEHARD_STRESS_ITERS (a multiplier,
/// default 1) so the nightly CI lane can run it at elevated counts.
///
//===----------------------------------------------------------------------===//

#include "core/ShardedHeap.h"

#include "core/SizeClass.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace diehard {
namespace {

/// Iteration multiplier for the stress test, from DIEHARD_STRESS_ITERS
/// (the nightly stress lane raises it; default 1, clamped to [1, 1000]).
int stressMultiplier() {
  const char *V = std::getenv("DIEHARD_STRESS_ITERS");
  if (V == nullptr || *V == '\0')
    return 1;
  long N = std::strtol(V, nullptr, 10);
  return N < 1 ? 1 : (N > 1000 ? 1000 : static_cast<int>(N));
}

/// Small fixed-seed sharded heap with the sweeper configured. The default
/// hour-long interval keeps the background thread parked so tests drive
/// every pass deterministically through sweepNow().
ShardedHeapOptions sweeperOptions(size_t Shards, size_t CacheSlots,
                                  uint32_t IntervalMs = 3600 * 1000,
                                  uint64_t Seed = 42) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 16;
  O.Heap.Seed = Seed;
  O.NumShards = Shards;
  O.ThreadCacheSlots = CacheSlots;
  O.Sweeper = true;
  O.SweepIntervalMs = IntervalMs;
  return O;
}

constexpr size_t ProbeSize = 256;

/// Runs \p Fn on a freshly spawned thread whose home shard compares to
/// \p Shard as \p Equal asks (see RemoteFreeSidecarTest for the token
/// round-robin argument).
template <typename F>
void onThreadHomed(ShardedHeap &H, size_t Shard, bool Equal, F &&Fn) {
  for (size_t Attempt = 0; Attempt <= H.numShards(); ++Attempt) {
    bool Ran = false;
    std::thread T([&] {
      if ((H.homeShardIndex() == Shard) != Equal)
        return;
      Ran = true;
      Fn();
    });
    T.join();
    if (Ran)
      return;
  }
  FAIL() << "no thread landed " << (Equal ? "on" : "off") << " shard "
         << Shard;
}

TEST(SweeperTest, DrainsSidecarsWithoutOwnerActivity) {
  // In-flight cross-shard frees of a partition whose owner never
  // allocates again used to wait for the next lock holder; the sweeper
  // materializes them on its own.
  ShardedHeap H(sweeperOptions(2, /*CacheSlots=*/16));
  ASSERT_TRUE(H.isValid());
  ASSERT_TRUE(H.sweeperEnabled());
  int Class = SizeClass::sizeToClass(ProbeSize);

  std::vector<void *> Made;
  size_t OwnerShard = SIZE_MAX;
  std::thread Producer([&] {
    OwnerShard = H.homeShardIndex();
    for (int I = 0; I < 40; ++I) {
      void *P = H.allocate(ProbeSize);
      ASSERT_NE(P, nullptr);
      Made.push_back(P);
    }
    H.flushThreadCache();
  });
  Producer.join();
  const RandomizedPartition &Owned = H.shard(OwnerShard).partition(Class);

  onThreadHomed(H, OwnerShard, false, [&] {
    for (void *P : Made)
      H.deallocate(P);
    H.flushThreadCache();
    EXPECT_EQ(Owned.pendingRemoteFrees(), 40u);
  });

  // One pass, no owner-side activity anywhere: the pending frees
  // materialize through the validated path and are attributed to the
  // sweeper.
  EXPECT_GE(H.sweepNow(), 40u);
  EXPECT_EQ(Owned.pendingRemoteFrees(), 0u);
  EXPECT_EQ(H.pendingRemoteFrees(), 0u);
  DieHardStats S = H.stats();
  EXPECT_GE(S.SweeperDrainedRemote, 40u);
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(S.SweepPasses, 1u);
}

TEST(SweeperTest, AgesOutQuietThreadCacheWithoutThreadExit) {
  // The idle-thread reclamation scenario: a thread holds cached slots and
  // pending cross-shard frees, then goes quiet WITHOUT exiting. Two sweep
  // passes later everything it held has drained back — the gauges reach
  // zero while the thread is still alive.
  ShardedHeap H(sweeperOptions(2, /*CacheSlots=*/16));
  ASSERT_TRUE(H.isValid());

  std::vector<void *> Made;
  size_t OwnerShard = SIZE_MAX;
  std::thread Producer([&] {
    OwnerShard = H.homeShardIndex();
    for (int I = 0; I < 32; ++I)
      Made.push_back(H.allocate(ProbeSize));
    H.flushThreadCache();
  });
  Producer.join();

  // A persistent worker homed off the owner shard: it fills its cache
  // with claimed slots and its deferred buffer with cross-shard frees,
  // then falls silent — alive but making no allocator calls. Tokens
  // round-robin process-globally, so within numShards() spawns one lands
  // off-owner; workers that decline exit without touching the heap.
  std::atomic<int> Stage{0};
  std::thread Quiet;
  bool Landed = false;
  for (size_t Attempt = 0; Attempt <= H.numShards() && !Landed;
       ++Attempt) {
    std::atomic<int> Verdict{0}; // 1 = declined, 2 = running.
    Quiet = std::thread([&] {
      if (H.homeShardIndex() == OwnerShard) {
        Verdict.store(1, std::memory_order_release);
        return;
      }
      Verdict.store(2, std::memory_order_release);
      std::vector<void *> Own;
      for (int I = 0; I < 8; ++I)
        Own.push_back(H.allocate(ProbeSize));
      for (void *P : Own)
        H.deallocate(P); // Same-home deferred frees.
      for (void *P : Made)
        H.deallocate(P); // Cross-shard deferred frees.
      Stage.store(1, std::memory_order_release);
      while (Stage.load(std::memory_order_acquire) != 2)
        std::this_thread::yield(); // No allocator calls: quiet.
    });
    while (Verdict.load(std::memory_order_acquire) == 0)
      std::this_thread::yield();
    if (Verdict.load(std::memory_order_acquire) == 2) {
      Landed = true;
      while (Stage.load(std::memory_order_acquire) != 1)
        std::this_thread::yield();
    } else {
      Quiet.join();
    }
  }
  ASSERT_TRUE(Landed) << "no worker landed off shard " << OwnerShard;

  // The quiet thread holds claimed slots and unflushed deferred frees.
  EXPECT_GT(H.cachedSlots(), 0u);
  uint64_t AgedBefore = H.agedCaches();

  // Pass 1 advances the epoch past the thread's stamp; pass 2 crosses the
  // two-epoch quiet threshold and ages the cache — slots reclaimed,
  // deferred frees flushed, the cross-shard ones drained in the same pass.
  H.sweepNow();
  EXPECT_GT(H.cachedSlots(), 0u) << "cache aged one epoch too early";
  H.sweepNow();
  EXPECT_EQ(H.agedCaches(), AgedBefore + 1);
  EXPECT_EQ(H.cachedSlots(), 0u);
  EXPECT_EQ(H.pendingRemoteFrees(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_GE(S.AgedCaches, 1u);

  // Only now release the quiet thread: reclamation happened without it
  // exiting. Its next allocator call re-syncs through the handshake.
  Stage.store(2, std::memory_order_release);
  Quiet.join();
}

TEST(SweeperTest, EmptyPartitionPagesReturnToTheOS) {
  // The degenerate span-scanner case: a fully empty partition is one
  // maximal free run, so every data page goes back to the OS; the bitmap
  // metadata stays resident, so the 1/M bound, placement and free
  // validation continue unchanged.
  ShardedHeap H(sweeperOptions(1, /*CacheSlots=*/0));
  ASSERT_TRUE(H.isValid());
  int Class = SizeClass::sizeToClass(4096);

  std::vector<void *> Held;
  for (int I = 0; I < 8; ++I) {
    auto *P = static_cast<char *>(H.allocate(4096));
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x7E, 4096); // Commit the pages.
    Held.push_back(P);
  }
  for (void *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.shard(0).partition(Class).live(), 0u);
  EXPECT_FALSE(H.shard(0).partition(Class).pagesReleased());

  H.sweepNow();
  uint64_t Returned = H.pagesReturned();
  EXPECT_GE(Returned, 8u) << "eight dirtied 4 KB objects span >= 8 pages";
  EXPECT_TRUE(H.shard(0).partition(Class).pagesReleased());

  // Idempotent: no frees since the last scan, so a repeat sweep issues no
  // madvise (and does not even walk the bitmap).
  H.sweepNow();
  EXPECT_EQ(H.pagesReturned(), Returned);

  // The metadata survived: a stale double free into the released span is
  // still caught...
  H.deallocate(Held.front());
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);
  // ...and an allocation un-marks only the pages its slot overlaps — the
  // rest of the partition stays released.
  void *Fresh = H.allocate(4096);
  ASSERT_NE(Fresh, nullptr);
  size_t AllReleased = H.shard(0).partition(Class).releasedPages();
  std::memset(Fresh, 0x31, 4096);
  EXPECT_TRUE(H.shard(0).partition(Class).pagesReleased());
  EXPECT_LT(H.shard(0).partition(Class).releasedPages(), Returned)
      << "the fresh slot's pages must drop off the released set";
  EXPECT_GT(AllReleased, 0u);
  // Freeing it re-arms the scan: the refaulted pages return again.
  H.deallocate(Fresh);
  H.sweepNow();
  EXPECT_GT(H.pagesReturned(), Returned);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.PagesReturned, H.pagesReturned());
  EXPECT_GE(S.PartialReturns, 2u);
  EXPECT_GE(S.SpansReleased, 2u);
}

TEST(SweeperTest, PartialReturnReleasesAroundPinnedObject) {
  // The asymmetry the span scanner removes: one live object used to pin
  // its entire size-class region. Now only the pages its slot overlaps
  // stay resident; every other free span goes back to the OS.
  ShardedHeap H(sweeperOptions(1, /*CacheSlots=*/0));
  ASSERT_TRUE(H.isValid());
  int Class = SizeClass::sizeToClass(4096);

  std::vector<char *> Held;
  for (int I = 0; I < 16; ++I) {
    auto *P = static_cast<char *>(H.allocate(4096));
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x5A, 4096);
    Held.push_back(P);
  }
  char *Pinned = Held.back();
  Held.pop_back();
  for (char *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.shard(0).partition(Class).live(), 1u);

  H.sweepNow();
  EXPECT_TRUE(H.shard(0).partition(Class).pagesReleased())
      << "a single live object must no longer pin the whole region";
  EXPECT_GE(H.pagesReturned(), 15u)
      << "every dirtied page except the pinned object's must return";
  // The pinned object's data survived the release around it.
  for (size_t I = 0; I < 4096; ++I)
    ASSERT_EQ(Pinned[I], 0x5A) << "byte " << I << " of the live object";

  // A double free aimed into the released span is still caught: the
  // bitmap never left memory.
  H.deallocate(Held.front());
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);

  H.deallocate(Pinned);
  H.sweepNow();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(SweeperTest, FillGateSkipsHotPartitions) {
  // The sweeper only scans partitions at or below the fill gate: a hot
  // partition's bitmap is mostly set, so walking it would cost memory
  // traffic for almost no releasable pages.
  ShardedHeap H(sweeperOptions(1, /*CacheSlots=*/0));
  ASSERT_TRUE(H.isValid());
  int Class = SizeClass::sizeToClass(4096);
  size_t Threshold = H.shard(0).thresholdForClass(Class);
  ASSERT_GT(Threshold, 4u);

  // Fill past the gate, then free one object: frees have happened since
  // the last scan, but the partition is too hot to be scanned.
  size_t Hot =
      static_cast<size_t>(ShardedHeap::PartialReturnFillGate *
                          static_cast<double>(Threshold)) +
      2;
  std::vector<void *> Held;
  for (size_t I = 0; I < Hot; ++I) {
    auto *P = static_cast<char *>(H.allocate(4096));
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x42, 4096);
    Held.push_back(P);
  }
  H.deallocate(Held.back());
  Held.pop_back();
  H.sweepNow();
  EXPECT_EQ(H.pagesReturned(), 0u)
      << "a partition above the fill gate must not be scanned";

  // Quiet it down below the gate: the very next pass scans and releases.
  for (void *P : Held)
    H.deallocate(P);
  H.sweepNow();
  EXPECT_GT(H.pagesReturned(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
}

TEST(SweeperTest, DoubleFreeCaughtAtSweeperDrain) {
  // A double free whose second push rides the sidecar is exposed by the
  // sweeper's drain through the ordinary validated path — enabling the
  // sweeper weakens no safety property.
  ShardedHeap H(sweeperOptions(2, /*CacheSlots=*/16));
  ASSERT_TRUE(H.isValid());

  void *Victim = nullptr;
  size_t OwnerShard = SIZE_MAX;
  std::thread Producer([&] {
    OwnerShard = H.homeShardIndex();
    Victim = H.allocate(ProbeSize);
    H.flushThreadCache();
  });
  Producer.join();
  ASSERT_NE(Victim, nullptr);

  onThreadHomed(H, OwnerShard, false, [&] {
    H.deallocate(Victim);
    H.flushThreadCache();
  });
  H.sweepNow(); // First free materializes (slot reopened for pushes).
  onThreadHomed(H, OwnerShard, false, [&] {
    H.deallocate(Victim);
    H.flushThreadCache();
  });
  H.sweepNow(); // Second free drains into the validated path: dead slot.

  DieHardStats S = H.stats();
  EXPECT_EQ(S.Frees, 1u);
  EXPECT_EQ(S.IgnoredFrees, 1u)
      << "the sweeper's drain must expose the double free";
  EXPECT_GE(S.SweeperDrainedRemote, 2u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(SweeperTest, OverflowFallsBackWhenPressureTableIsStale) {
  // Overflow routing ranks siblings from the sweeper's pressure table.
  // The table can be a whole interval stale; when every table-ranked
  // candidate is refused (or excluded), one direct-gauge round must still
  // find real capacity — staleness costs a retry, never a failure.
  ShardedHeapOptions O;
  O.Heap.HeapSize = 12 * SizeClass::MaxObjectSize * 4;
  O.Heap.Seed = 42;
  O.NumShards = 2;
  O.Sweeper = true;
  O.SweepIntervalMs = 3600 * 1000;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Home = H.homeShardIndex();
  size_t Sibling = 1 - Home;
  size_t Threshold = H.shard(Home).thresholdForClass(C);

  // Saturate both shards' class, then publish that state to the table.
  std::vector<void *> HomeHeld, SiblingHeld;
  for (size_t I = 0; I < 2 * Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr);
    (H.shardIndexOf(P) == Home ? HomeHeld : SiblingHeld).push_back(P);
  }
  H.sweepNow();
  EXPECT_EQ(H.partitionFill(Sibling, C), 1.0);

  // Free the sibling's objects WITHOUT sweeping: real capacity exists,
  // but the table still claims saturation.
  for (void *P : SiblingHeld)
    H.deallocate(P);
  H.drainRemoteFrees(); // Materialize the cross-shard frees themselves.
  EXPECT_EQ(H.shard(Sibling).liveInClass(C), 0u);

  // Home is still saturated; the table round finds no viable candidate,
  // and the gauge fallback must route to the sibling anyway.
  uint64_t OverflowBefore = H.overflowAllocations();
  void *P = H.allocate(4096);
  ASSERT_NE(P, nullptr) << "stale table must not fail the allocation";
  EXPECT_EQ(H.shardIndexOf(P), Sibling);
  EXPECT_EQ(H.overflowAllocations(), OverflowBefore + 1);

  H.deallocate(P);
  for (void *Q : HomeHeld)
    H.deallocate(Q);
  H.drainRemoteFrees();
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(SweeperTest, SweeperVersusAllocatorStressStaysConsistent) {
  // The TSan workload: the background sweeper runs at a short interval
  // while producers and consumers hammer every tier — cache pops and
  // refills under the Dekker bracket, deferred flushes, sidecar pushes,
  // overflow routing against the live pressure table, and sweeper-driven
  // aging racing thread exits. Scaled by DIEHARD_STRESS_ITERS for the
  // nightly lane.
  const int Mult = stressMultiplier();
  ShardedHeapOptions O = sweeperOptions(4, /*CacheSlots=*/8,
                                        /*IntervalMs=*/2, /*Seed=*/77);
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());
  ASSERT_TRUE(H.sweeperEnabled());

  std::mutex ExchangeLock;
  std::vector<std::pair<unsigned char *, size_t>> Exchange;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([&H, &ExchangeLock, &Exchange, &Failures, T,
                          Mult] {
      unsigned State = (T + 1) * 2654435761u;
      auto Next = [&State] {
        State = State * 1664525u + 1013904223u;
        return State;
      };
      std::vector<std::pair<unsigned char *, size_t>> Live;
      const int Steps = 2000 * Mult;
      for (int Step = 0; Step < Steps; ++Step) {
        unsigned Op = Next() % 100;
        if ((Op < 35 && Live.size() < 600) || Live.empty()) {
          size_t Size = 1 + Next() % 1024;
          auto *P = static_cast<unsigned char *>(H.allocate(Size));
          if (P == nullptr) {
            ++Failures;
            return;
          }
          std::memset(P, static_cast<int>(T + 1), Size);
          Live.emplace_back(P, Size);
        } else if (Op < 55) {
          std::lock_guard<std::mutex> G(ExchangeLock);
          Exchange.push_back(Live.back());
          Live.pop_back();
        } else if (Op < 85) {
          std::unique_lock<std::mutex> G(ExchangeLock);
          if (!Exchange.empty()) {
            auto [P, Size] = Exchange.back();
            Exchange.pop_back();
            G.unlock();
            H.deallocate(P);
          }
        } else {
          auto [P, Size] = Live.back();
          Live.pop_back();
          for (size_t I = 0; I < Size; ++I)
            if (P[I] != static_cast<unsigned char>(T + 1)) {
              ++Failures;
              break;
            }
          H.deallocate(P);
        }
        // An occasional breather makes some threads genuinely quiet for
        // a few sweep epochs, so aging really fires mid-run.
        if (Op == 99)
          std::this_thread::yield();
      }
      for (auto &[P, Size] : Live)
        H.deallocate(P);
    });
  for (std::thread &T : Threads)
    T.join();
  for (auto &[P, Size] : Exchange)
    H.deallocate(P);
  H.flushThreadCache();
  H.drainRemoteFrees();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(H.sweepPasses(), 0u) << "the background thread must have run";
  EXPECT_EQ(H.cachedSlots(), 0u);
  EXPECT_EQ(H.pendingRemoteFrees(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees)
      << "books must balance at quiescence with the sweeper running";
  EXPECT_EQ(S.IgnoredFrees, 0u);
}

TEST(SweeperTest, PartialReturnVersusChurnStressStaysConsistent) {
  // The partial-return TSan workload: page-spanning objects churn in
  // bursts while long-held pinned survivors keep every partition
  // non-empty, so the background sweeper's span scanner is releasing
  // pages *around* live data the whole run, racing allocations that
  // refault and un-mark them. Content checks catch a page released under
  // a live object; the books catch lost or duplicated slots. Scaled by
  // DIEHARD_STRESS_ITERS for the nightly lane.
  const int Mult = stressMultiplier();
  ShardedHeapOptions O = sweeperOptions(2, /*CacheSlots=*/8,
                                        /*IntervalMs=*/2, /*Seed=*/99);
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());
  ASSERT_TRUE(H.sweeperEnabled());

  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&H, &Failures, T, Mult] {
      unsigned State = (T + 11) * 2654435761u;
      auto Next = [&State] {
        State = State * 1664525u + 1013904223u;
        return State;
      };
      const auto Tag = static_cast<unsigned char>(T + 1);
      std::vector<std::pair<unsigned char *, size_t>> Live, Pinned;
      const int Steps = 1500 * Mult;
      for (int Step = 0; Step < Steps; ++Step) {
        unsigned Op = Next() % 100;
        if ((Op < 40 && Live.size() < 200) || Live.empty()) {
          // Page-spanning sizes: 2 KB to 14 KB, so free spans form and
          // collapse across page boundaries continuously.
          size_t Size = 2048 + Next() % (12 * 1024);
          auto *P = static_cast<unsigned char *>(H.allocate(Size));
          if (P == nullptr) {
            ++Failures;
            return;
          }
          std::memset(P, Tag, Size);
          if (Pinned.size() < 8 && Op % 8 == 0)
            Pinned.emplace_back(P, Size); // Held to the end: pins pages
                                          // across hundreds of sweeps.
          else
            Live.emplace_back(P, Size);
        } else {
          // Free a burst, so whole spans actually go quiet long enough
          // for a 2 ms sweep to catch them released.
          size_t Burst = 1 + Next() % 16;
          while (Burst-- != 0 && !Live.empty()) {
            auto [P, Size] = Live.back();
            Live.pop_back();
            H.deallocate(P);
          }
        }
        if (Op >= 97)
          for (auto &[P, Size] : Pinned)
            for (size_t I = 0; I < Size; ++I)
              if (P[I] != Tag) {
                ++Failures;
                return;
              }
      }
      for (auto &[P, Size] : Pinned) {
        for (size_t I = 0; I < Size; ++I)
          if (P[I] != Tag) {
            ++Failures;
            break;
          }
        H.deallocate(P);
      }
      for (auto &[P, Size] : Live)
        H.deallocate(P);
    });
  for (std::thread &T : Threads)
    T.join();
  H.flushThreadCache();
  H.drainRemoteFrees();
  H.sweepNow(); // Everything is free now: the final scan releases it all.

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(H.sweepPasses(), 0u) << "the background thread must have run";
  EXPECT_GT(H.pagesReturned(), 0u)
      << "a fully freed heap must shed its dirtied pages";
  EXPECT_EQ(H.cachedSlots(), 0u);
  EXPECT_EQ(H.pendingRemoteFrees(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees)
      << "books must balance with pages released and refaulted all run";
  EXPECT_EQ(S.IgnoredFrees, 0u);
}

} // namespace
} // namespace diehard
