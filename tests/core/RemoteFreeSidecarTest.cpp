//===- tests/core/RemoteFreeSidecarTest.cpp -------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the remote-free MPSC sidecar: the cross-shard flush path that
/// never touches the remote partition's mutex (asserted through the
/// RemoteFrees/SidecarDrains counters), opportunistic owner-side drains at
/// the refill boundary, double-free detection at push and at drain time,
/// stats reconciliation (Allocations == Frees with frees still in flight),
/// and a TSan-covered cross-shard free storm through full sidecars.
///
/// The storm test scales with DIEHARD_STRESS_ITERS (a multiplier, default
/// 1) so the nightly CI lane can run it at elevated counts.
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

/// Iteration multiplier for the storm test, from DIEHARD_STRESS_ITERS
/// (the nightly stress lane raises it; default 1, clamped to [1, 1000]).
int stressMultiplier() {
  const char *V = std::getenv("DIEHARD_STRESS_ITERS");
  if (V == nullptr || *V == '\0')
    return 1;
  long N = std::strtol(V, nullptr, 10);
  return N < 1 ? 1 : (N > 1000 ? 1000 : static_cast<int>(N));
}

/// Small fixed-seed sharded heap with the cache tier on: per-class
/// partitions are 16 * MaxObjectSize, so the 256-byte class has 1024 slots
/// and a 1/M threshold of 512.
ShardedHeapOptions sidecarOptions(size_t Shards, size_t CacheSlots = 16,
                                  uint64_t Seed = 42) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 16;
  O.Heap.Seed = Seed;
  O.NumShards = Shards;
  O.ThreadCacheSlots = CacheSlots;
  return O;
}

constexpr size_t ProbeSize = 256;

/// Runs \p Fn on a freshly spawned thread whose home shard compares to
/// \p Shard as \p Equal asks, spawning (and burning a shard token on) at
/// most a few threads to find one. Thread tokens round-robin
/// process-globally, so a fresh thread hits any wanted shard within
/// numShards() spawns.
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

TEST(RemoteFreeSidecarTest, CrossShardFlushNeverTakesTheRemoteMutex) {
  // The acceptance criterion: a cross-shard deferred-free flush performs
  // zero acquisitions of the remote partition's mutex. Observable through
  // the counters: a locked free materializes in the partition's Frees
  // immediately, while a sidecar push only moves RemoteFrees — so after
  // the flush, RemoteFrees must carry ALL the frees and the owner's
  // Frees/SidecarDrains must both still be zero.
  ShardedHeap H(sidecarOptions(2));
  ASSERT_TRUE(H.isValid());
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
    H.flushThreadCache(); // Return unused claims; keep the 40 live.
  });
  Producer.join();
  ASSERT_LT(OwnerShard, H.numShards());
  const RandomizedPartition &Owned = H.shard(OwnerShard).partition(Class);

  onThreadHomed(H, OwnerShard, false, [&] {
    for (void *P : Made)
      H.deallocate(P); // Deferred with the remote owner pre-resolved.
    H.flushThreadCache();

    // Every free crossed shards through the sidecar: pushed, pending,
    // and never under the remote mutex.
    EXPECT_EQ(Owned.remoteFrees(), 40u);
    EXPECT_EQ(Owned.pendingRemoteFrees(), 40u);
    EXPECT_EQ(Owned.stats().Frees, 0u)
        << "a locked free on the remote partition would count here";
    EXPECT_EQ(Owned.stats().SidecarDrains, 0u);
  });

  // stats() folds in-flight sidecar entries into Frees, so the books
  // balance before any drain runs.
  DieHardStats S = H.stats();
  EXPECT_EQ(S.RemoteFrees, 40u);
  EXPECT_EQ(S.SidecarDrains, 0u);
  EXPECT_EQ(S.Allocations, 40u);
  EXPECT_EQ(S.Frees, 40u);

  // Force quiescence: the drain materializes the frees through the
  // validated path, with nothing lost or double-counted.
  EXPECT_EQ(H.drainRemoteFrees(), 40u);
  EXPECT_EQ(Owned.stats().Frees, 40u);
  EXPECT_EQ(Owned.stats().SidecarDrains, 1u);
  EXPECT_EQ(Owned.pendingRemoteFrees(), 0u);
  S = H.stats();
  EXPECT_EQ(S.Frees, 40u);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(RemoteFreeSidecarTest, RefillDrainsTheSidecarOpportunistically) {
  // The owner needs no explicit drain call: its next cache refill holds
  // the partition lock anyway and sweeps the sidecar first.
  ShardedHeap H(sidecarOptions(2));
  ASSERT_TRUE(H.isValid());
  int Class = SizeClass::sizeToClass(ProbeSize);

  std::vector<void *> Made;
  size_t OwnerShard = SIZE_MAX;
  std::thread Producer([&] {
    OwnerShard = H.homeShardIndex();
    for (int I = 0; I < 24; ++I)
      Made.push_back(H.allocate(ProbeSize));
    H.flushThreadCache(); // Empty the cache so the next allocate refills.
  });
  Producer.join();
  const RandomizedPartition &Owned = H.shard(OwnerShard).partition(Class);

  onThreadHomed(H, OwnerShard, false, [&] {
    for (void *P : Made)
      H.deallocate(P);
    H.flushThreadCache();
    EXPECT_EQ(Owned.pendingRemoteFrees(), 24u);
  });

  // An owner-homed thread allocates once: the refill's drain runs first.
  onThreadHomed(H, OwnerShard, true, [&] {
    void *P = H.allocate(ProbeSize);
    EXPECT_NE(P, nullptr);
    EXPECT_EQ(Owned.pendingRemoteFrees(), 0u)
        << "the refill boundary must have drained the sidecar";
    EXPECT_GE(Owned.stats().SidecarDrains, 1u);
    H.deallocate(P);
    H.flushThreadCache();
  });

  H.drainRemoteFrees();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(RemoteFreeSidecarTest, DoubleFreeCaughtAtPushTime) {
  // Freeing the same object twice before the owner drains: the second
  // push finds the slot already pending and is rejected on the spot —
  // the sidecar's structure cannot be corrupted by racing double frees.
  ShardedHeap H(sidecarOptions(2));
  ASSERT_TRUE(H.isValid());
  int Class = SizeClass::sizeToClass(ProbeSize);

  void *Victim = nullptr;
  size_t OwnerShard = SIZE_MAX;
  std::thread Producer([&] {
    OwnerShard = H.homeShardIndex();
    Victim = H.allocate(ProbeSize);
    H.flushThreadCache();
  });
  Producer.join();
  ASSERT_NE(Victim, nullptr);
  const RandomizedPartition &Owned = H.shard(OwnerShard).partition(Class);

  onThreadHomed(H, OwnerShard, false, [&] {
    H.deallocate(Victim);
    H.flushThreadCache(); // First free: pushed, pending.
    H.deallocate(Victim);
    H.flushThreadCache(); // Second free: push rejected, counted.
    EXPECT_EQ(Owned.remoteFrees(), 1u);
    EXPECT_EQ(Owned.remoteFreeRejects(), 1u);
  });

  EXPECT_EQ(H.drainRemoteFrees(), 1u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Frees, 1u);
  EXPECT_EQ(S.IgnoredFrees, 1u) << "push-time reject folds in here";
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(RemoteFreeSidecarTest, DoubleFreeCaughtAtDrainTime) {
  // Freeing the same object twice with a drain in between: the second
  // entry travels the sidecar and is exposed as a dead slot by the
  // validated deallocate when the owner drains it.
  ShardedHeap H(sidecarOptions(2));
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
  const RandomizedPartition &Owned = H.shard(OwnerShard).partition(
      SizeClass::sizeToClass(ProbeSize));

  onThreadHomed(H, OwnerShard, false, [&] {
    H.deallocate(Victim);
    H.flushThreadCache();
    EXPECT_EQ(H.drainRemoteFrees(), 1u); // First free materializes.
    H.deallocate(Victim);
    H.flushThreadCache(); // Second free: accepted (slot reopened) ...
    EXPECT_EQ(Owned.remoteFrees(), 2u);
  });

  EXPECT_EQ(H.drainRemoteFrees(), 1u); // ... and exposed at drain.
  EXPECT_EQ(Owned.stats().Frees, 1u);
  EXPECT_EQ(Owned.stats().IgnoredFrees, 1u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Frees, 1u);
  EXPECT_EQ(S.IgnoredFrees, 1u);
}

TEST(RemoteFreeSidecarTest, CrossShardFreeStormStaysConsistent) {
  // The TSan workload: producers on every shard allocate and publish;
  // consumers free whatever arrives, wherever it lives, so sidecars fill
  // and drain concurrently with claims, reclaims and locked batches.
  // Scaled by DIEHARD_STRESS_ITERS for the nightly lane.
  const int Mult = stressMultiplier();
  ShardedHeapOptions O = sidecarOptions(4, 8, 77);
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());

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
      const int Steps = 3000 * Mult;
      for (int Step = 0; Step < Steps; ++Step) {
        unsigned Op = Next() % 100;
        // Allocation and retirement rates balance (35 in, 20 + 15 out,
        // with the exchange draining faster than it fills), so the live
        // set is stationary no matter the multiplier; the explicit cap
        // keeps elevated nightly runs inside the 1/M bounds regardless.
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
            // Cross-thread (usually cross-shard): rides a sidecar at the
            // next deferred flush.
            H.deallocate(P);
          }
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
  for (auto &[P, Size] : Exchange)
    H.deallocate(P);
  H.flushThreadCache();
  H.drainRemoteFrees();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(H.cachedSlots(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(H.pendingRemoteFrees(), 0u);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees)
      << "sidecar traffic must reconcile at quiescence";
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_GT(S.RemoteFrees, 0u) << "the storm must exercise the sidecars";
  EXPECT_GE(S.SidecarDrains, 1u);
}

} // namespace
} // namespace diehard
