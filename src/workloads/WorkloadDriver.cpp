//===- workloads/WorkloadDriver.cpp ---------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the shared gauntlet workload driver.
///
//===----------------------------------------------------------------------===//

#include "workloads/WorkloadDriver.h"

#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <chrono>
#include <thread>
#include <vector>

namespace diehard {

void stampObject(void *Ptr, size_t Size, uint32_t Tag, size_t TouchBytes) {
  size_t Touch = std::min(Size, TouchBytes);
  auto *Bytes = static_cast<unsigned char *>(Ptr);
  for (size_t I = 0; I < Touch; ++I)
    Bytes[I] = static_cast<unsigned char>(Tag >> ((I % 4) * 8));
  if (Size >= Touch + 4)
    for (size_t I = Size - 4; I < Size; ++I)
      Bytes[I] = static_cast<unsigned char>(Tag >> ((I % 4) * 8));
}

uint64_t hashObject(const void *Ptr, size_t Size, size_t TouchBytes) {
  size_t Touch = std::min(Size, TouchBytes);
  const auto *Bytes = static_cast<const unsigned char *>(Ptr);
  uint64_t Hash = 0xCBF29CE484222325ULL ^ Size;
  for (size_t I = 0; I < Touch; ++I)
    Hash = Hash * 1099511628211ULL ^ Bytes[I];
  if (Size >= Touch + 4)
    for (size_t I = Size - 4; I < Size; ++I)
      Hash = Hash * 1099511628211ULL ^ Bytes[I];
  return Hash;
}

const char *gauntletKindName(GauntletKind Kind) {
  switch (Kind) {
  case GauntletKind::Larson:
    return "larson";
  case GauntletKind::Pipeline:
    return "pipeline";
  case GauntletKind::Burst:
    return "burst";
  case GauntletKind::Fragment:
    return "fragment";
  }
  return "unknown";
}

bool gauntletKindFromName(const std::string &Name, GauntletKind &KindOut) {
  for (GauntletKind Kind :
       {GauntletKind::Larson, GauntletKind::Pipeline, GauntletKind::Burst,
        GauntletKind::Fragment}) {
    if (Name == gauntletKindName(Kind)) {
      KindOut = Kind;
      return true;
    }
  }
  return false;
}

int gauntletThreadsUsed(const GauntletParams &Params) {
  int Threads = std::max(1, Params.Threads);
  if (Params.Kind == GauntletKind::Pipeline)
    return 2 * std::max(1, Threads / 2);
  return Threads;
}

uint64_t expectedAllocations(const GauntletParams &Params) {
  int Used = gauntletThreadsUsed(Params);
  // Pipeline allocates only on the producer half of its thread pairs.
  if (Params.Kind == GauntletKind::Pipeline)
    Used /= 2;
  return static_cast<uint64_t>(Used) * Params.OpsPerThread;
}

namespace {

/// One live object as the driver tracks it.
struct Slot {
  void *Ptr = nullptr;
  uint32_t Size = 0;
  uint32_t Tag = 0;
};

/// Per-worker counters, merged after the join (no shared hot-path state).
struct WorkerStats {
  uint64_t Allocations = 0;
  uint64_t Frees = 0;
  uint64_t Failed = 0;
  uint64_t Checksum = 0; ///< Wrapping sum of object hashes (commutative).
  uint64_t OpCounter = 0;
  LatencyHistogram Latency;
};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Uniform size in [MinSize, MaxSize]; with \p LogSpread, log-uniform
/// across the power-of-two bands of the range (the fragmentation shape:
/// many size classes touched with equal probability).
size_t pickSize(Rng &Rand, const GauntletParams &P, bool LogSpread) {
  size_t Lo = P.MinSize, Hi = P.MaxSize;
  if (Lo >= Hi)
    return Lo;
  if (!LogSpread)
    return Lo + Rand.nextBounded(static_cast<uint32_t>(Hi - Lo + 1));
  int LoBits = 0, HiBits = 0;
  for (size_t S = Lo; S > 1; S >>= 1)
    ++LoBits;
  for (size_t S = Hi; S > 1; S >>= 1)
    ++HiBits;
  int Bits = LoBits + static_cast<int>(Rand.nextBounded(
                          static_cast<uint32_t>(HiBits - LoBits + 1)));
  size_t Base = size_t(1) << Bits;
  size_t Limit = std::min(Hi, Base * 2 - 1);
  size_t Start = std::max(Lo, Base);
  return Start +
         Rand.nextBounded(static_cast<uint32_t>(Limit - Start + 1));
}

/// Allocates, stamps, and accounts one object. Every SamplePeriod-th
/// operation is timed into the worker's histogram.
Slot allocOne(Allocator &Target, const GauntletParams &P, Rng &Rand,
              WorkerStats &Stats, bool LogSpread) {
  Slot S;
  size_t Size = pickSize(Rand, P, LogSpread);
  uint32_t Tag = Rand.next();
  bool Sampled = (Stats.OpCounter++ % static_cast<uint64_t>(
                                          std::max(1, P.SamplePeriod))) == 0;
  uint64_t Start = Sampled ? nowNs() : 0;
  void *Ptr = Target.allocate(Size);
  if (Sampled)
    Stats.Latency.record(nowNs() - Start);
  if (Ptr == nullptr) {
    ++Stats.Failed;
    return S;
  }
  stampObject(Ptr, Size, Tag, P.TouchBytes);
  S.Ptr = Ptr;
  S.Size = static_cast<uint32_t>(Size);
  S.Tag = Tag;
  ++Stats.Allocations;
  return S;
}

/// Verifies, frees, and accounts one object; empty slots are a no-op.
void freeOne(Allocator &Target, const GauntletParams &P, Slot &S,
             WorkerStats &Stats) {
  if (S.Ptr == nullptr)
    return;
  Stats.Checksum += hashObject(S.Ptr, S.Size, P.TouchBytes);
  bool Sampled = (Stats.OpCounter++ % static_cast<uint64_t>(
                                          std::max(1, P.SamplePeriod))) == 0;
  uint64_t Start = Sampled ? nowNs() : 0;
  Target.deallocate(S.Ptr);
  if (Sampled)
    Stats.Latency.record(nowNs() - Start);
  S.Ptr = nullptr;
  ++Stats.Frees;
}

/// Larson-style server churn. The slot table is split into one block per
/// thread; each round, thread t churns block (t + round) % T, so the
/// objects a thread leaves behind are freed by its successor — the
/// cross-thread handoff that defines the larson shape. A barrier separates
/// rounds (and the final drain) so exactly one thread owns a block at a
/// time.
void larsonWorker(Allocator &Target, const GauntletParams &P, int Thread,
                  int Threads, std::vector<Slot> &Slots,
                  std::barrier<> &RoundBarrier, WorkerStats &Stats) {
  Rng Rand(Rng::deriveStream(P.Seed, static_cast<uint64_t>(Thread) + 1));
  int Rounds = std::max(1, P.Rounds);
  uint64_t OpsPerRound = P.OpsPerThread / Rounds;
  for (int Round = 0; Round < Rounds; ++Round) {
    size_t Block =
        (static_cast<size_t>(Thread) + Round) % static_cast<size_t>(Threads);
    Slot *Base = Slots.data() + Block * P.SlotsPerThread;
    uint64_t Ops = OpsPerRound +
                   (Round == Rounds - 1 ? P.OpsPerThread % Rounds : 0);
    for (uint64_t I = 0; I < Ops; ++I) {
      Slot &S = Base[Rand.nextBounded(
          static_cast<uint32_t>(P.SlotsPerThread))];
      freeOne(Target, P, S, Stats);
      S = allocOne(Target, P, Rand, Stats, /*LogSpread=*/false);
    }
    RoundBarrier.arrive_and_wait();
  }
  // Drain: the block rotation continues one more step, so every block is
  // emptied by exactly one thread.
  size_t Block =
      (static_cast<size_t>(Thread) + Rounds) % static_cast<size_t>(Threads);
  Slot *Base = Slots.data() + Block * P.SlotsPerThread;
  for (size_t I = 0; I < P.SlotsPerThread; ++I)
    freeOne(Target, P, Base[I], Stats);
}

/// Single-producer/single-consumer ring carrying live objects from the
/// allocating thread to the freeing thread.
struct SpscRing {
  static constexpr size_t Capacity = 1024; // Power of two.
  Slot Entries[Capacity];
  std::atomic<size_t> Head{0}; ///< Next slot the consumer reads.
  std::atomic<size_t> Tail{0}; ///< Next slot the producer writes.

  bool tryPush(const Slot &S) {
    size_t T = Tail.load(std::memory_order_relaxed);
    if (T - Head.load(std::memory_order_acquire) == Capacity)
      return false;
    Entries[T % Capacity] = S;
    Tail.store(T + 1, std::memory_order_release);
    return true;
  }

  bool tryPop(Slot &S) {
    size_t H = Head.load(std::memory_order_relaxed);
    if (H == Tail.load(std::memory_order_acquire))
      return false;
    S = Entries[H % Capacity];
    Head.store(H + 1, std::memory_order_release);
    return true;
  }
};

/// Producer half of a pipeline pair: allocate, stamp, hand off.
void pipelineProducer(Allocator &Target, const GauntletParams &P, int Pair,
                      SpscRing &Ring, WorkerStats &Stats) {
  Rng Rand(Rng::deriveStream(P.Seed, static_cast<uint64_t>(Pair) + 1,
                             Rng::ClassStreamGamma));
  for (uint64_t I = 0; I < P.OpsPerThread; ++I) {
    Slot S = allocOne(Target, P, Rand, Stats, /*LogSpread=*/false);
    while (!Ring.tryPush(S))
      std::this_thread::yield();
  }
}

/// Consumer half: receive, verify, free. Pops exactly OpsPerThread slots,
/// so the pair's hand-off count is closed-form (failed allocations travel
/// through the ring as empty slots and are skipped by freeOne).
void pipelineConsumer(Allocator &Target, const GauntletParams &P,
                      SpscRing &Ring, WorkerStats &Stats) {
  for (uint64_t I = 0; I < P.OpsPerThread; ++I) {
    Slot S;
    while (!Ring.tryPop(S))
      std::this_thread::yield();
    freeOne(Target, P, S, Stats);
  }
}

/// Burst churn: allocate a batch, free the whole batch, repeat.
void burstWorker(Allocator &Target, const GauntletParams &P, int Thread,
                 WorkerStats &Stats) {
  Rng Rand(Rng::deriveStream(P.Seed, static_cast<uint64_t>(Thread) + 1));
  std::vector<Slot> Batch;
  size_t BatchSize = std::max<size_t>(1, P.BurstObjects);
  Batch.reserve(BatchSize);
  uint64_t Remaining = P.OpsPerThread;
  while (Remaining > 0) {
    uint64_t This = std::min<uint64_t>(BatchSize, Remaining);
    Remaining -= This;
    for (uint64_t I = 0; I < This; ++I)
      Batch.push_back(allocOne(Target, P, Rand, Stats, /*LogSpread=*/false));
    for (Slot &S : Batch)
      freeOne(Target, P, S, Stats);
    Batch.clear();
  }
}

/// Fragmentation long-runner: fill the slot table, free everything except
/// scattered pinned survivors (one per stride), then churn allocations
/// into the holes with a log-spread size mix. The pins keep pages and
/// partitions partially occupied for the whole run — the shape partial
/// page return cannot reclaim.
void fragmentWorker(Allocator &Target, const GauntletParams &P, int Thread,
                    WorkerStats &Stats) {
  Rng Rand(Rng::deriveStream(P.Seed, static_cast<uint64_t>(Thread) + 1));
  size_t NumSlots =
      std::max<size_t>(1, std::min<uint64_t>(P.SlotsPerThread,
                                             P.OpsPerThread));
  int Stride = std::max(2, P.PinnedStride);
  std::vector<Slot> Slots(NumSlots);
  for (Slot &S : Slots)
    S = allocOne(Target, P, Rand, Stats, /*LogSpread=*/true);
  for (size_t I = 0; I < NumSlots; ++I)
    if (I % static_cast<size_t>(Stride) != 0)
      freeOne(Target, P, Slots[I], Stats);
  uint64_t Churn = P.OpsPerThread - NumSlots;
  for (uint64_t I = 0; I < Churn; ++I) {
    size_t Index = Rand.nextBounded(static_cast<uint32_t>(NumSlots));
    if (NumSlots > 1 && Index % static_cast<size_t>(Stride) == 0)
      Index = (Index + 1 < NumSlots) ? Index + 1 : 1;
    freeOne(Target, P, Slots[Index], Stats);
    Slots[Index] = allocOne(Target, P, Rand, Stats, /*LogSpread=*/true);
  }
  for (Slot &S : Slots)
    freeOne(Target, P, S, Stats);
}

} // namespace

GauntletResult runGauntlet(const GauntletParams &Params, Allocator &Target) {
  assert(Params.MinSize > 0 && Params.MinSize <= Params.MaxSize &&
         "degenerate size range");
  GauntletResult Result;
  int Threads = gauntletThreadsUsed(Params);
  std::vector<WorkerStats> Stats(static_cast<size_t>(Threads));

  // Larson's shared slot table and barrier live across the whole run.
  std::vector<Slot> LarsonSlots;
  std::barrier<> RoundBarrier(Threads);
  if (Params.Kind == GauntletKind::Larson)
    LarsonSlots.resize(static_cast<size_t>(Threads) * Params.SlotsPerThread);

  // Pipeline's rings, one per producer/consumer pair.
  std::vector<SpscRing> Rings;
  if (Params.Kind == GauntletKind::Pipeline)
    Rings = std::vector<SpscRing>(static_cast<size_t>(Threads / 2));

  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  Workers.reserve(static_cast<size_t>(Threads));
  for (int T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      WorkerStats &S = Stats[static_cast<size_t>(T)];
      switch (Params.Kind) {
      case GauntletKind::Larson:
        larsonWorker(Target, Params, T, Threads, LarsonSlots, RoundBarrier,
                     S);
        break;
      case GauntletKind::Pipeline:
        // Even indices produce, odd indices consume, pair i = threads
        // (2i, 2i+1).
        if (T % 2 == 0)
          pipelineProducer(Target, Params, T / 2,
                           Rings[static_cast<size_t>(T / 2)], S);
        else
          pipelineConsumer(Target, Params, Rings[static_cast<size_t>(T / 2)],
                           S);
        break;
      case GauntletKind::Burst:
        burstWorker(Target, Params, T, S);
        break;
      case GauntletKind::Fragment:
        fragmentWorker(Target, Params, T, S);
        break;
      }
    });
  }

  auto Start = std::chrono::steady_clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  Result.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  for (const WorkerStats &S : Stats) {
    Result.Allocations += S.Allocations;
    Result.Frees += S.Frees;
    Result.FailedAllocations += S.Failed;
    Result.Checksum += S.Checksum;
    Result.Latency.merge(S.Latency);
  }
  if (Result.Seconds > 0.0)
    Result.OpsPerSec = static_cast<double>(Result.Allocations + Result.Frees) /
                       Result.Seconds;
  return Result;
}

} // namespace diehard
