//===- bench/bench_space.cpp - Section 4.5 space consumption --------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The space side of the paper's space-reliability trade-off (Sections 4.5
/// and 8): DieHard touches more pages than a compact freelist allocator
/// (random placement spreads the live set across each 1/M-bounded region),
/// conservative GC holds 3-5x malloc/free's footprint (garbage awaits
/// collection), and the Section 9 growing heap (DieHardHeap's default:
/// each partition grows an active prefix on demand) recovers most of the
/// fixed design's cost.
///
/// Each allocator runs the espresso-like workload in a forked child; the
/// parent reports the child's peak resident set (ru_maxrss), the honest
/// measure of memory actually consumed (reserved-but-untouched pages are
/// free).
///
/// A second table tracks RSS *over time* on the sharded heap: a burst of
/// 4 KB objects is allocated, freed, and the process then idles. With the
/// epoch sweeper off the freed pages stay resident forever (the bitmap
/// says free, the OS still backs the data); with the sweeper on the empty
/// partition's pages go back to the OS within a couple of sweep passes and
/// the resident set falls back toward its starting point.
///
/// A third table is the production-footprint matrix: a churn workload
/// that pins one live object in every size-class partition (so no
/// partition is ever fully empty and only *partial* page return can shed
/// anything), bursts, frees, and idles — across the page-return policies
/// (off / dontneed) and the sweeper switch.
///
/// After the tables the bench emits one line starting with "JSON: " —
/// the machine-readable summary CI archives and diffs against the
/// committed baseline (BENCH_space.json) via tools/bench_compare.py.
///
//===----------------------------------------------------------------------===//

#include "baselines/DieHardAllocator.h"
#include "baselines/GcAllocator.h"
#include "baselines/LeaAllocator.h"
#include "bench/BenchUtil.h"
#include "core/ShardedHeap.h"
#include "core/SizeClass.h"
#include "support/MmapRegion.h"
#include "workloads/ForkHarness.h"
#include "workloads/ProcessStats.h"
#include "workloads/WorkloadSuite.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace diehard;

namespace {

/// Runs \p Body in a forked child (via the shared crash harness) and
/// returns the child's peak RSS in KB, or 0 on failure.
long peakRssKb(const std::function<void()> &Body) {
  ForkOutcome Outcome = runInFork([&Body] {
    Body();
    return 0;
  });
  return Outcome.cleanExit() ? Outcome.MaxRssKb : 0;
}

WorkloadParams driver() {
  WorkloadParams P = findWorkload("espresso");
  P.MemoryOps = 400000;
  return P;
}

/// RSS samples (KB) at the four interesting moments of the burst-and-idle
/// run: before the heap exists, at the top of the burst, right after the
/// last free, and after an idle tail long enough for several sweep passes.
struct RssTimeline {
  long Start = 0, Burst = 0, Freed = 0, Idle = 0;
};

/// Runs the burst-free-idle scenario on a fresh sharded heap in a forked
/// child (so each config starts from a clean address space) and reports
/// the child's RSS timeline through a pipe.
RssTimeline rssTimeline(bool Sweeper) {
  int Fds[2];
  RssTimeline T;
  if (::pipe(Fds) != 0)
    return T;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return T;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    T.Start = currentRssKb();
    {
      ShardedHeapOptions O;
      O.Heap.HeapSize = 256 * 1024 * 1024;
      O.Heap.Seed = 0x5BACE;
      O.NumShards = 1;
      O.ThreadCacheSlots = 0;
      O.Sweeper = Sweeper;
      O.SweepIntervalMs = 20;
      ShardedHeap Heap(O);
      std::vector<void *> Objects;
      Objects.reserve(8192);
      for (int I = 0; I < 8192; ++I) {
        void *P = Heap.allocate(4096);
        if (P == nullptr)
          break;
        std::memset(P, 0xAB, 4096);
        Objects.push_back(P);
      }
      T.Burst = currentRssKb();
      for (void *P : Objects)
        Heap.deallocate(P);
      T.Freed = currentRssKb();
      ::usleep(100 * 1000); // Idle tail: five sweep intervals.
      T.Idle = currentRssKb();
    }
    (void)!::write(Fds[1], &T, sizeof(T));
    ::close(Fds[1]);
    ::_exit(0);
  }
  ::close(Fds[1]);
  if (::read(Fds[0], &T, sizeof(T)) != static_cast<ssize_t>(sizeof(T)))
    T = RssTimeline{};
  ::close(Fds[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  return T;
}

/// One cell of the production-footprint matrix: a page-return policy plus
/// the sweeper switch, and the RSS trajectory the combination produced.
struct ChurnSample {
  const char *Name = "";
  PageReturnPolicy Policy = PageReturnPolicy::DontNeed;
  bool Sweeper = true;
  long Start = 0;        ///< KB, heap mapped and partitions pinned.
  long Burst = 0;        ///< KB, at the top of the churn burst.
  long Idle = 0;         ///< KB, after the idle tail.
};

/// Runs the pinned-partition churn scenario in a forked child: one live
/// object pinned in every size-class partition (so the fully-empty path
/// can never fire and every returned page is a *partial* return), then a
/// burst of page-spanning objects, free them all, idle for many sweep
/// epochs. Fills in the sample's RSS fields through a pipe.
void churnTimeline(ChurnSample &S) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    MmapRegion::setPageReturnPolicy(S.Policy);
    {
      ShardedHeapOptions O;
      O.Heap.HeapSize = 256 * 1024 * 1024;
      O.Heap.Seed = 0x5BACE;
      O.NumShards = 1;
      O.ThreadCacheSlots = 0;
      O.Sweeper = S.Sweeper;
      O.SweepIntervalMs = 10;
      ShardedHeap Heap(O);
      std::vector<void *> Pins;
      for (int C = 0; C < SizeClass::NumClasses; ++C) {
        size_t Size = SizeClass::classToSize(C);
        void *P = Heap.allocate(Size);
        if (P != nullptr) {
          std::memset(P, 0x77, Size);
          Pins.push_back(P);
        }
      }
      S.Start = currentRssKb();
      std::vector<void *> Objects;
      Objects.reserve(8192 + 2048);
      for (int I = 0; I < 8192; ++I) {
        void *P = Heap.allocate(4096);
        if (P == nullptr)
          break;
        std::memset(P, 0xAB, 4096);
        Objects.push_back(P);
      }
      for (int I = 0; I < 2048; ++I) {
        void *P = Heap.allocate(16384);
        if (P == nullptr)
          break;
        std::memset(P, 0xCD, 16384);
        Objects.push_back(P);
      }
      S.Burst = currentRssKb();
      for (void *P : Objects)
        Heap.deallocate(P);
      ::usleep(200 * 1000); // Idle tail: twenty sweep epochs.
      S.Idle = currentRssKb();
      for (void *P : Pins)
        Heap.deallocate(P);
    }
    MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
    (void)!::write(Fds[1], &S, sizeof(S));
    ::close(Fds[1]);
    ::_exit(0);
  }
  ::close(Fds[1]);
  ChurnSample Filled = S;
  if (::read(Fds[0], &Filled, sizeof(Filled)) ==
      static_cast<ssize_t>(sizeof(Filled)))
    S = Filled;
  ::close(Fds[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
}

/// Accumulates every measurement for the trailing JSON summary.
std::string JsonRows;

void recordJson(const char *Scenario, const char *Config, long ValueKb) {
  char Row[160];
  std::snprintf(Row, sizeof(Row),
                "%s{\"scenario\":\"%s\",\"config\":\"%s\",\"value\":%ld}",
                JsonRows.empty() ? "" : ",", Scenario, Config, ValueKb);
  JsonRows += Row;
}

} // namespace

int main() {
  std::printf("Section 4.5: memory consumption "
              "(peak RSS, espresso-like workload)\n");
  bench::printRule();
  std::printf("%-26s %14s %14s\n", "allocator", "peak RSS (MB)",
              "vs malloc");
  bench::printRule();

  long Baseline = peakRssKb([] {
    LeaAllocator A(size_t(512) << 20);
    SyntheticWorkload W(driver());
    W.run(A);
  });
  std::printf("%-26s %14.1f %13.2fx\n", "lea (freelist)",
              Baseline / 1024.0, 1.0);
  recordJson("peak_espresso", "lea", Baseline);

  long Gc = peakRssKb([] {
    GcAllocator A(size_t(768) << 20, 16 << 20);
    SyntheticWorkload W(driver());
    W.run(A);
  });
  std::printf("%-26s %14.1f %13.2fx\n", "bdw-gc-sim", Gc / 1024.0,
              static_cast<double>(Gc) / Baseline);
  recordJson("peak_espresso", "gc", Gc);

  long Fixed = peakRssKb([] {
    DieHardOptions O;
    O.HeapSize = 384 * 1024 * 1024;
    O.Seed = 0x5BACE;
    O.InitialActiveSlots = 0;
    DieHardAllocator A(O);
    SyntheticWorkload W(driver());
    W.run(A);
  });
  std::printf("%-26s %14.1f %13.2fx\n", "diehard (fixed, M=2)",
              Fixed / 1024.0, static_cast<double>(Fixed) / Baseline);
  recordJson("peak_espresso", "diehard_fixed", Fixed);

  long Growing = peakRssKb([] {
    DieHardOptions O;
    O.HeapSize = 384 * 1024 * 1024;
    O.Seed = 0x5BACE;
    DieHardAllocator A(O);
    SyntheticWorkload W(driver());
    W.run(A);
  });
  std::printf("%-26s %14.1f %13.2fx\n", "diehard (growing, M=2)",
              Growing / 1024.0, static_cast<double>(Growing) / Baseline);
  recordJson("peak_espresso", "diehard_adaptive", Growing);

  bench::printRule();
  std::printf("Shape: freelist is the compact baseline; the collector\n"
              "holds several times more (garbage awaits collection);\n"
              "fixed DieHard touches pages across its randomized regions;\n"
              "the growing default recovers most of that by widening\n"
              "each region's active prefix on demand (Sections 4.5, 8, 9).\n"
              "Note: this workload's live set is well under a megabyte, so\n"
              "the fixed-heap ratio is near its worst case — the paper's\n"
              "\"up to 12M more memory than needed\" concern, and exactly\n"
              "why Section 9 proposes the growing heap measured above.\n");

  // RSS over time: fill the 4 KB partition, free it all, idle 100 ms.
  // Only the sweeper configuration can shed the freed pages.
  std::printf("\nepoch sweeper page return "
              "(sharded heap, burst of 4 KB objects)\n");
  bench::printRule();
  std::printf("%-14s %10s %10s %10s %12s\n", "config", "start KB",
              "burst KB", "freed KB", "idle+100ms");
  bench::printRule();
  RssTimeline Off = rssTimeline(false);
  RssTimeline On = rssTimeline(true);
  std::printf("%-14s %10ld %10ld %10ld %12ld\n", "sweeper-off", Off.Start,
              Off.Burst, Off.Freed, Off.Idle);
  std::printf("%-14s %10ld %10ld %10ld %12ld\n", "sweeper-on", On.Start,
              On.Burst, On.Freed, On.Idle);
  bench::printRule();
  std::printf("idle tail shed %ld KB with the sweeper on vs %ld KB off\n"
              "(freed bitmap slots keep their data pages resident until a\n"
              "sweep pass returns the empty partition's pages to the OS).\n",
              On.Freed - On.Idle, Off.Freed - Off.Idle);

  // Production-footprint matrix: pinned partitions force *partial* page
  // return; the policies and the sweeper switch are crossed so the table
  // shows which knob buys what.
  std::printf("\npartial page return under churn "
              "(one pinned object per partition)\n");
  bench::printRule();
  std::printf("%-18s %8s %8s %8s\n", "config", "start KB", "burst KB",
              "idle KB");
  bench::printRule();
  ChurnSample Matrix[] = {
      {"return-off", PageReturnPolicy::Off, true},
      {"dontneed-nosweep", PageReturnPolicy::DontNeed, false},
      {"dontneed", PageReturnPolicy::DontNeed, true},
  };
  for (ChurnSample &S : Matrix) {
    churnTimeline(S);
    std::printf("%-18s %8ld %8ld %8ld\n", S.Name, S.Start, S.Burst,
                S.Idle);
    recordJson("churn_idle", S.Name, S.Idle);
  }
  bench::printRule();
  const ChurnSample &ReturnOff = Matrix[0];
  const ChurnSample &DontNeed = Matrix[2];
  double Shed = ReturnOff.Idle > 0
                    ? 100.0 * (ReturnOff.Idle - DontNeed.Idle) / ReturnOff.Idle
                    : 0.0;
  std::printf("steady-state idle RSS with dontneed+sweeper is %.0f%% below\n"
              "page-return-off (span scanner returns object-free pages of\n"
              "partitions that are still live).\n",
              Shed);

  std::printf("\nJSON: {\"bench\":\"space\",\"lower_is_better\":true,"
              "\"unit\":\"kb\",\"results\":[%s]}\n",
              JsonRows.c_str());
  return 0;
}
