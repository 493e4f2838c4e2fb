//===- bench/bench_mt_scaling.cpp - multithreaded malloc scaling ----------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how aggregate malloc/free throughput scales with threads, in
/// three scenarios:
///
/// 1. *Sharding* — a single global DieHard heap (shards = 1, the
///    pre-sharding configuration) versus a per-thread-sharded heap
///    (shards = CPU count). Each worker runs a fixed count of churn
///    operations — allocate a random small size into a random slot,
///    freeing the previous occupant — and the table reports aggregate
///    operations per second at 1/2/4/8 threads plus the speedup of
///    sharding at the highest thread count.
///
/// 2. *Thread cache* — the sharded configuration with the per-thread
///    cache tier off versus on (DIEHARD_TCACHE semantics, K=32). With the
///    cache, the steady-state malloc/free is a TLS pop/push and partition
///    locks are only touched once per K-slot batch, so this measures the
///    lock-free fast path's win over per-operation locking — visible even
///    single-threaded (fewer lock round-trips), growing with contention.
///
/// 3. *Epoch sweeper* — the cached sharded configuration with the
///    background maintenance thread (DIEHARD_SWEEPER semantics, 25 ms
///    passes) off versus on. Every bench thread stays hot, so nothing is
///    ever aged or released; the scenario measures the sweeper's steady-
///    state overhead, which should be ~1.0x.
///
/// Usage: bench_mt_scaling [ops-per-thread] [shards]
/// (defaults: 400000 ops, one shard per CPU)
///
/// The absolute numbers depend on the machine; the interesting outputs are
/// the per-row scaling and the final ratios (>= 3x sharded-vs-global at 8
/// threads on a multicore box is the sharding layer's acceptance number).
/// After the tables the bench emits one line starting with "JSON: "
/// followed by a machine-readable summary of every measurement, so CI and
/// future PRs can track the perf trajectory.
///
//===----------------------------------------------------------------------===//

#include "core/ShardedHeap.h"
#include "support/Rng.h"

#include "bench/BenchUtil.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace {

using diehard::Rng;
using diehard::ShardedHeap;
using diehard::ShardedHeapOptions;

constexpr int SlotsPerThread = 256;
constexpr size_t MaxRequest = 1024;

/// One worker: `Ops` rounds of slot churn against `Heap`, with sizes random
/// in [1, MaxRequest].
void churnWorker(ShardedHeap &Heap, uint64_t Seed, long Ops,
                 std::atomic<bool> &Go, std::atomic<long> &Failed) {
  Rng Rand(Seed);
  std::vector<void *> Slots(SlotsPerThread, nullptr);
  while (!Go.load(std::memory_order_acquire))
    std::this_thread::yield();
  long Failures = 0;
  for (long I = 0; I < Ops; ++I) {
    size_t Slot = Rand.nextBounded(SlotsPerThread);
    if (Slots[Slot] != nullptr)
      Heap.deallocate(Slots[Slot]);
    Slots[Slot] = Heap.allocate(1 + Rand.nextBounded(MaxRequest));
    if (Slots[Slot] == nullptr)
      ++Failures;
  }
  for (void *P : Slots)
    if (P != nullptr)
      Heap.deallocate(P);
  if (Failures != 0)
    Failed.fetch_add(Failures, std::memory_order_relaxed);
}

struct RunConfig {
  size_t Shards;
  size_t ThreadCacheSlots = 0; ///< K for the thread-cache tier (0 = off).
  bool Sweeper = false;        ///< Background epoch sweeper thread.
  uint32_t SweepIntervalMs = 25; ///< Sweeper pass interval when enabled.
};

/// Runs `Threads` workers against a fresh heap per `Config` and returns
/// aggregate operations (1 alloc + amortized 1 free) per second.
double measure(const RunConfig &Config, int Threads, long OpsPerThread) {
  ShardedHeapOptions Options;
  Options.Heap.HeapSize = 384 * 1024 * 1024;
  Options.Heap.Seed = 0x5EED + 17 * static_cast<uint64_t>(Threads);
  Options.NumShards = Config.Shards;
  Options.ThreadCacheSlots = Config.ThreadCacheSlots;
  Options.Sweeper = Config.Sweeper;
  Options.SweepIntervalMs = Config.SweepIntervalMs;
  ShardedHeap Heap(Options);
  if (!Heap.isValid()) {
    std::fprintf(stderr, "heap reservation failed\n");
    std::exit(1);
  }

  std::atomic<bool> Go{false};
  std::atomic<long> Failed{0};
  std::vector<std::thread> Workers;
  Workers.reserve(static_cast<size_t>(Threads));
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back(churnWorker, std::ref(Heap),
                         static_cast<uint64_t>(T) + 1, OpsPerThread,
                         std::ref(Go), std::ref(Failed));

  double Seconds = diehard::bench::timeSeconds([&] {
    Go.store(true, std::memory_order_release);
    for (std::thread &W : Workers)
      W.join();
  });
  if (Failed.load() != 0)
    std::fprintf(stderr, "  (%ld failed allocations)\n", Failed.load());
  return static_cast<double>(OpsPerThread) * Threads / Seconds;
}

/// Accumulates every measurement for the trailing JSON summary.
std::string JsonRows;

void recordJson(const char *Scenario, const char *Config, int Threads,
                double OpsPerSec) {
  char Row[160];
  std::snprintf(Row, sizeof(Row),
                "%s{\"scenario\":\"%s\",\"config\":\"%s\","
                "\"threads\":%d,\"ops_per_sec\":%.0f}",
                JsonRows.empty() ? "" : ",", Scenario, Config, Threads,
                OpsPerSec);
  JsonRows += Row;
}

} // namespace

int main(int argc, char **argv) {
  long OpsPerThread = 400000;
  if (argc > 1)
    OpsPerThread = std::strtol(argv[1], nullptr, 10);
  if (OpsPerThread <= 0)
    OpsPerThread = 400000;

  size_t Cpus = ShardedHeap::defaultShardCount();
  if (argc > 2) {
    long Shards = std::strtol(argv[2], nullptr, 10);
    if (Shards > 0)
      Cpus = static_cast<size_t>(Shards);
  }
  std::printf("mt scaling: %ld churn ops/thread, slots=%d, max size=%zu, "
              "cpus=%zu\n",
              OpsPerThread, SlotsPerThread, MaxRequest, Cpus);

  // Scenario 1: global (1 shard) vs sharded (one shard per CPU), random
  // sizes — the cross-shard scaling picture.
  diehard::bench::printRule();
  std::printf("%8s  %12s  %12s  %8s\n", "threads", "global ops/s",
              "sharded ops/s", "ratio");
  diehard::bench::printRule();

  const RunConfig Global{1};
  const RunConfig Sharded{Cpus};
  const int ThreadCounts[] = {1, 2, 4, 8};
  double GlobalAt8 = 0, ShardedAt8 = 0;
  for (int Threads : ThreadCounts) {
    double G = measure(Global, Threads, OpsPerThread);
    double S = measure(Sharded, Threads, OpsPerThread);
    recordJson("sharding", "global", Threads, G);
    recordJson("sharding", "sharded", Threads, S);
    std::printf("%8d  %12.0f  %12.0f  %7.2fx\n", Threads, G, S, S / G);
    if (Threads == 8) {
      GlobalAt8 = G;
      ShardedAt8 = S;
    }
  }
  diehard::bench::printRule();
  std::printf("sharded (%zu shards) vs global at 8 threads: %.2fx\n", Cpus,
              ShardedAt8 / GlobalAt8);

  // Scenario 2: the thread-cache tier off vs on (K=32) over the sharded
  // configuration — the lock-free fast path's win over per-op locking.
  std::printf("\nthread cache (%zu shards, random sizes, K=32)\n", Cpus);
  diehard::bench::printRule();
  std::printf("%8s  %14s  %13s  %8s\n", "threads", "cache-off ops/s",
              "cache-on ops/s", "on/off");
  diehard::bench::printRule();

  const RunConfig CacheOff{Cpus, 0};
  const RunConfig CacheOn{Cpus, 32};
  double OffAt8 = 0, OnAt8 = 0;
  for (int Threads : ThreadCounts) {
    double Off = measure(CacheOff, Threads, OpsPerThread);
    double On = measure(CacheOn, Threads, OpsPerThread);
    recordJson("tcache", "cache_off", Threads, Off);
    recordJson("tcache", "cache_on", Threads, On);
    std::printf("%8d  %14.0f  %13.0f  %7.2fx\n", Threads, Off, On,
                On / Off);
    if (Threads == 8) {
      OffAt8 = Off;
      OnAt8 = On;
    }
  }
  diehard::bench::printRule();
  std::printf("thread cache on vs off at 8 threads: %.2fx\n",
              OnAt8 / OffAt8);

  // Scenario 3: the background epoch sweeper off vs on over the cached
  // sharded configuration. The sweeper periodically drains sidecars, ages
  // quiet caches and returns free pages; under a steady-state
  // churn storm every thread stays active, so its cost here is pure
  // overhead — the interesting result is how close on/off stays to 1.0x
  // (the maintenance thread must not tax the fast path).
  const RunConfig SweeperOff{Cpus, 32, false, 25};
  const RunConfig SweeperOn{Cpus, 32, true, 25};
  std::printf("\nepoch sweeper (%zu shards, K=32, %u ms passes)\n", Cpus,
              SweeperOn.SweepIntervalMs);
  diehard::bench::printRule();
  std::printf("%8s  %15s  %14s  %8s\n", "threads", "sweeper-off ops/s",
              "sweeper-on ops/s", "on/off");
  diehard::bench::printRule();

  double SwOffAt8 = 0, SwOnAt8 = 0;
  for (int Threads : ThreadCounts) {
    double Off = measure(SweeperOff, Threads, OpsPerThread);
    double On = measure(SweeperOn, Threads, OpsPerThread);
    recordJson("sweeper", "sweeper_off", Threads, Off);
    recordJson("sweeper", "sweeper_on", Threads, On);
    std::printf("%8d  %15.0f  %14.0f  %7.2fx\n", Threads, Off, On,
                On / Off);
    if (Threads == 8) {
      SwOffAt8 = Off;
      SwOnAt8 = On;
    }
  }
  diehard::bench::printRule();
  std::printf("sweeper on vs off at 8 threads: %.2fx\n", SwOnAt8 / SwOffAt8);

  // Machine-readable trailer for the perf trajectory.
  std::printf("\nJSON: {\"bench\":\"mt_scaling\",\"ops_per_thread\":%ld,"
              "\"shards\":%zu,\"results\":[%s]}\n",
              OpsPerThread, Cpus, JsonRows.c_str());
  return 0;
}
