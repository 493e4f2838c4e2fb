//===- bench/bench_gauntlet.cpp - allocator gauntlet macrobench -----------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator gauntlet: the classic allocator-bench stress workloads
/// (larson server churn with cross-thread handoff, a producer/consumer
/// pipeline, burst alloc/free phases, and a fragmentation-heavy
/// long-runner — see docs/ARCHITECTURE.md for the canon mapping) run
/// head-to-head across allocator backends through ONE shared driver
/// (src/workloads/WorkloadDriver):
///
///   glibc         the system malloc, plain — the Fig. 5 reference
///   shim          libdiehard.so LD_PRELOADed, thread cache off
///   shim-tcache   + per-thread caches (DIEHARD_TCACHE=32)
///   shim-sweeper  + the background epoch sweeper (DIEHARD_SWEEPER=1)
///   lea           the in-tree Lea baseline behind one lock
///   diehard       the in-tree DieHardHeap (direct, unsharded) behind
///                 one lock — the paper's allocator without the
///                 scalability tiers, its honest single-heap cost
///
/// Every (workload, backend) cell runs in a fresh fork+exec'd child — the
/// bench re-executes itself in `--child` mode — so each measurement gets a
/// clean address space, an honest peak RSS (ru_maxrss from the parent's
/// wait4), and, for the shim rows, the LD_PRELOAD interposition exactly as
/// production processes see it. The child reports ops/s, sampled p50/p99
/// per-op latency, and the driver's determinism counters through a result
/// line the parent parses.
///
/// The driver's checksums are allocator-independent, so the parent also
/// asserts every backend produced the identical checksum per workload — a
/// cross-allocator correctness gate riding along with the perf numbers
/// (a mismatch fails the bench).
///
/// Usage: bench_gauntlet [ops-per-thread] [threads]
/// (defaults: 100000 ops, 4 threads; CI runs 20000 x 2)
///
/// After the tables the bench emits one line starting with "JSON: " — the
/// machine-readable trailer CI archives and diffs against the committed
/// baseline (BENCH_gauntlet.json) via tools/bench_compare.py. Rows mix
/// directions: ops/s is higher-is-better, p99 and peak RSS carry
/// "lower_is_better": true per row.
///
//===----------------------------------------------------------------------===//

#include "baselines/DieHardAllocator.h"
#include "baselines/LeaAllocator.h"
#include "bench/BenchUtil.h"
#include "workloads/ForkHarness.h"
#include "workloads/WorkloadDriver.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#ifndef DIEHARD_SHIM_PATH
#error "bench_gauntlet needs DIEHARD_SHIM_PATH (set by CMake)"
#endif

using namespace diehard;

namespace {

constexpr uint64_t GauntletSeed = 0x6A07;

/// One backend of the matrix: how the child allocates, and the
/// environment the parent applies to the child process.
struct Backend {
  const char *Name;      ///< Report/JSON config name.
  const char *ChildMode; ///< Child-side allocator: malloc | lea | diehard.
  bool Preload;          ///< LD_PRELOAD the shim into the child.
  std::vector<const char *> Env; ///< Extra DIEHARD_* settings.
};

const Backend Backends[] = {
    {"glibc", "malloc", false, {}},
    {"shim", "malloc", true, {"DIEHARD_TCACHE=0"}},
    {"shim-tcache", "malloc", true, {"DIEHARD_TCACHE=32"}},
    {"shim-sweeper",
     "malloc",
     true,
     {"DIEHARD_TCACHE=32", "DIEHARD_SWEEPER=1"}},
    {"lea", "lea", false, {}},
    {"diehard", "diehard", false, {}},
};

/// The gauntlet's workload list. Sizes and live sets follow the canon
/// shapes each workload is named for (docs/ARCHITECTURE.md).
GauntletParams workloadParams(GauntletKind Kind, uint64_t Ops, int Threads) {
  GauntletParams P;
  P.Kind = Kind;
  P.OpsPerThread = Ops;
  P.Threads = Threads;
  P.Seed = GauntletSeed;
  switch (Kind) {
  case GauntletKind::Larson:
    P.MinSize = 8;
    P.MaxSize = 1024;
    P.SlotsPerThread = 512;
    break;
  case GauntletKind::Pipeline:
    P.MinSize = 8;
    P.MaxSize = 256;
    break;
  case GauntletKind::Burst:
    P.MinSize = 16;
    P.MaxSize = 2048;
    P.BurstObjects = 1024;
    break;
  case GauntletKind::Fragment:
    P.MinSize = 32;
    P.MaxSize = 8192;
    P.SlotsPerThread = 2048;
    P.PinnedStride = 16;
    break;
  }
  return P;
}

constexpr GauntletKind AllWorkloads[] = {
    GauntletKind::Larson, GauntletKind::Pipeline, GauntletKind::Burst,
    GauntletKind::Fragment};

/// What the parent extracts from one child run.
struct CellResult {
  bool Ok = false;
  uint64_t Allocations = 0;
  uint64_t Frees = 0;
  uint64_t Failed = 0;
  uint64_t Checksum = 0;
  double Seconds = 0.0;
  double OpsPerSec = 0.0;
  uint64_t P50Ns = 0;
  uint64_t P99Ns = 0;
  long PeakRssKb = 0;
};

/// Child mode: run one workload against the requested allocator and print
/// the result line the parent parses. The "malloc" mode goes through the
/// process allocator, which is glibc when exec'd plain and the DieHard
/// shim when the parent LD_PRELOADs libdiehard.so.
int runChild(const std::string &Workload, const std::string &Mode,
             uint64_t Ops, int Threads) {
  GauntletKind Kind;
  if (!gauntletKindFromName(Workload, Kind)) {
    std::fprintf(stderr, "unknown workload: %s\n", Workload.c_str());
    return 2;
  }
  GauntletParams Params = workloadParams(Kind, Ops, Threads);

  std::unique_ptr<Allocator> Owned;
  std::unique_ptr<LockedAllocator> Locked;
  Allocator *Target = nullptr;
  if (Mode == "malloc") {
    Owned = std::make_unique<SystemAllocator>();
    Target = Owned.get();
  } else if (Mode == "lea") {
    Owned = std::make_unique<LeaAllocator>(size_t(512) << 20);
    Locked = std::make_unique<LockedAllocator>(*Owned);
    Target = Locked.get();
  } else if (Mode == "diehard") {
    DieHardOptions O;
    O.HeapSize = 384 * 1024 * 1024;
    O.Seed = GauntletSeed;
    Owned = std::make_unique<DieHardAllocator>(O);
    Locked = std::make_unique<LockedAllocator>(*Owned);
    Target = Locked.get();
  } else {
    std::fprintf(stderr, "unknown child mode: %s\n", Mode.c_str());
    return 2;
  }

  GauntletResult R = runGauntlet(Params, *Target);
  std::printf("GAUNTLET_RESULT: {\"allocations\":%" PRIu64
              ",\"frees\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"checksum\":%" PRIu64
              ",\"seconds\":%.6f,\"ops_per_sec\":%.0f,\"p50_ns\":%" PRIu64
              ",\"p99_ns\":%" PRIu64 "}\n",
              R.Allocations, R.Frees, R.FailedAllocations, R.Checksum,
              R.Seconds, R.OpsPerSec, R.Latency.p50(), R.Latency.p99());
  return 0;
}

/// Parent side of one cell: fork+exec the child with the backend's
/// environment and parse its result line.
CellResult runCell(const std::string &Self, GauntletKind Kind,
                   const Backend &B, uint64_t Ops, int Threads) {
  CellResult Cell;
  std::vector<std::string> Argv = {Self,
                                   "--child",
                                   gauntletKindName(Kind),
                                   B.ChildMode,
                                   std::to_string(Ops),
                                   std::to_string(Threads)};
  std::vector<std::string> Env;
  if (B.Preload) {
    Env.push_back(std::string("LD_PRELOAD=") + DIEHARD_SHIM_PATH);
    // A fixed seed keeps the shim's randomized placement on one stream
    // across runs, so the trajectory's run-to-run noise is scheduling,
    // not layout.
    Env.push_back("DIEHARD_SEED=23459");
  }
  for (const char *E : B.Env)
    Env.emplace_back(E);

  ExecCapture Capture = runCommandCapture(Argv, Env, /*TimeoutMillis=*/
                                          300000);
  if (!Capture.Outcome.cleanExit()) {
    std::fprintf(stderr, "  %s/%s child failed (exit=%d signal=%d%s)\n",
                 gauntletKindName(Kind), B.Name, Capture.Outcome.ExitCode,
                 Capture.Outcome.Signal,
                 Capture.Outcome.TimedOut ? " timeout" : "");
    return Cell;
  }
  size_t Pos = Capture.Output.find("GAUNTLET_RESULT: ");
  if (Pos == std::string::npos) {
    std::fprintf(stderr, "  %s/%s child printed no result line\n",
                 gauntletKindName(Kind), B.Name);
    return Cell;
  }
  const char *Line = Capture.Output.c_str() + Pos;
  if (std::sscanf(Line,
                  "GAUNTLET_RESULT: {\"allocations\":%" SCNu64
                  ",\"frees\":%" SCNu64 ",\"failed\":%" SCNu64
                  ",\"checksum\":%" SCNu64
                  ",\"seconds\":%lf,\"ops_per_sec\":%lf,\"p50_ns\":%" SCNu64
                  ",\"p99_ns\":%" SCNu64 "}",
                  &Cell.Allocations, &Cell.Frees, &Cell.Failed,
                  &Cell.Checksum, &Cell.Seconds, &Cell.OpsPerSec,
                  &Cell.P50Ns, &Cell.P99Ns) != 8) {
    std::fprintf(stderr, "  %s/%s result line did not parse\n",
                 gauntletKindName(Kind), B.Name);
    return Cell;
  }
  Cell.PeakRssKb = Capture.Outcome.MaxRssKb;
  Cell.Ok = true;
  return Cell;
}

/// Accumulates every measurement for the trailing JSON summary.
std::string JsonRows;

void recordJson(const char *Scenario, const char *Config, int Threads,
                double Value, bool LowerIsBetter) {
  char Row[200];
  std::snprintf(Row, sizeof(Row),
                "%s{\"scenario\":\"%s\",\"config\":\"%s\",\"threads\":%d,"
                "\"value\":%.0f%s}",
                JsonRows.empty() ? "" : ",", Scenario, Config, Threads,
                Value, LowerIsBetter ? ",\"lower_is_better\":true" : "");
  JsonRows += Row;
}

std::string selfExePath(const char *Argv0) {
  char Buffer[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buffer, sizeof(Buffer) - 1);
  if (N > 0) {
    Buffer[N] = '\0';
    return Buffer;
  }
  return Argv0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--child") == 0) {
    if (argc != 6) {
      std::fprintf(stderr,
                   "usage: %s --child <workload> <mode> <ops> <threads>\n",
                   argv[0]);
      return 2;
    }
    return runChild(argv[2], argv[3],
                    std::strtoull(argv[4], nullptr, 10),
                    static_cast<int>(std::strtol(argv[5], nullptr, 10)));
  }

  uint64_t Ops = 100000;
  if (argc > 1) {
    long long V = std::strtoll(argv[1], nullptr, 10);
    if (V > 0)
      Ops = static_cast<uint64_t>(V);
  }
  int Threads = 4;
  if (argc > 2) {
    long V = std::strtol(argv[2], nullptr, 10);
    if (V > 0)
      Threads = static_cast<int>(V);
  }
  std::string Self = selfExePath(argv[0]);

  std::printf("allocator gauntlet: %" PRIu64
              " ops/thread, %d threads, shim=%s\n",
              Ops, Threads, DIEHARD_SHIM_PATH);

  int FailedCells = 0;
  int ChecksumMismatches = 0;
  for (GauntletKind Kind : AllWorkloads) {
    GauntletParams Params = workloadParams(Kind, Ops, Threads);
    int Used = gauntletThreadsUsed(Params);
    std::printf("\n%s (%d threads, %" PRIu64 " expected allocations)\n",
                gauntletKindName(Kind), Used, expectedAllocations(Params));
    bench::printRule();
    std::printf("%-14s %12s %10s %10s %10s %9s\n", "backend", "ops/s",
                "p50 ns", "p99 ns", "rss KB", "vs glibc");
    bench::printRule();

    double GlibcOps = 0.0;
    bool HaveChecksum = false;
    uint64_t ReferenceChecksum = 0;
    for (const Backend &B : Backends) {
      CellResult Cell = runCell(Self, Kind, B, Ops, Threads);
      if (!Cell.Ok) {
        ++FailedCells;
        std::printf("%-14s %12s\n", B.Name, "FAILED");
        continue;
      }
      if (Cell.Failed != 0)
        std::fprintf(stderr, "  %s/%s: %" PRIu64 " failed allocations\n",
                     gauntletKindName(Kind), B.Name, Cell.Failed);
      if (Cell.Allocations != Cell.Frees) {
        std::fprintf(stderr,
                     "  %s/%s: allocations %" PRIu64 " != frees %" PRIu64
                     "\n",
                     gauntletKindName(Kind), B.Name, Cell.Allocations,
                     Cell.Frees);
        ++FailedCells;
      }
      // The checksum is allocator-independent when nothing failed, so
      // every backend must agree — the gauntlet doubles as a
      // cross-allocator differential test.
      if (Cell.Failed == 0) {
        if (!HaveChecksum) {
          HaveChecksum = true;
          ReferenceChecksum = Cell.Checksum;
        } else if (Cell.Checksum != ReferenceChecksum) {
          std::fprintf(stderr,
                       "  %s/%s: checksum %016" PRIx64
                       " differs from reference %016" PRIx64 "\n",
                       gauntletKindName(Kind), B.Name, Cell.Checksum,
                       ReferenceChecksum);
          ++ChecksumMismatches;
        }
      }
      if (std::strcmp(B.Name, "glibc") == 0)
        GlibcOps = Cell.OpsPerSec;
      std::printf("%-14s %12.0f %10" PRIu64 " %10" PRIu64 " %10ld %8.2fx\n",
                  B.Name, Cell.OpsPerSec, Cell.P50Ns, Cell.P99Ns,
                  Cell.PeakRssKb,
                  GlibcOps > 0.0 ? Cell.OpsPerSec / GlibcOps : 0.0);

      std::string Prefix = gauntletKindName(Kind);
      recordJson((Prefix + "_ops").c_str(), B.Name, Threads, Cell.OpsPerSec,
                 /*LowerIsBetter=*/false);
      recordJson((Prefix + "_p99").c_str(), B.Name, Threads,
                 static_cast<double>(Cell.P99Ns), /*LowerIsBetter=*/true);
      recordJson((Prefix + "_rss").c_str(), B.Name, Threads,
                 static_cast<double>(Cell.PeakRssKb),
                 /*LowerIsBetter=*/true);
    }
    bench::printRule();
  }

  if (ChecksumMismatches > 0)
    std::fprintf(stderr,
                 "\n%d checksum mismatches: some backend corrupted or "
                 "reordered user data\n",
                 ChecksumMismatches);
  if (FailedCells > 0)
    std::fprintf(stderr, "\n%d gauntlet cells failed\n", FailedCells);

  // Machine-readable trailer for the perf trajectory. reference_config
  // tells bench_compare.py which backend anchors each scenario's ratios.
  std::printf("\nJSON: {\"bench\":\"gauntlet\",\"ops_per_thread\":%" PRIu64
              ",\"threads\":%d,\"reference_config\":\"glibc\","
              "\"results\":[%s]}\n",
              Ops, Threads, JsonRows.c_str());
  return ChecksumMismatches > 0 ? 1 : 0;
}
