//===- perfbench/perf_child.cpp - one timed workload process --------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one gauntlet workload through the process allocator — glibc when
/// exec'd plain, libdiehard.so when run.py LD_PRELOADs it — and prints one
/// PERF_RESULT line. run.py spawns one of these per repetition and reads
/// CPU time, faults, context switches and peak RSS from its own wait4.
///
/// Usage: perf_child --kind K --ops N --threads T --min A --max B
///                   [--slots S] [--burst B] [--stride S] [--seed X]
///                   [--idle-ms MS]
///
/// Besides runGauntlet's counters and checksum the line carries:
///   end_mono_ns  CLOCK_MONOTONIC when the worker phase ended; minus the
///                worker seconds and run.py's pre-spawn timestamp this is
///                the set-up time (exec, loader, shim start, thread spawn);
///   retained_kb  resident set after every object was freed and the idle
///                tail (--idle-ms) elapsed, which is what the sweeper's
///                page return acts on.
///
//===----------------------------------------------------------------------===//

#include "PerfCommon.h"

#include "workloads/ProcessStats.h"

#include <cinttypes>
#include <cstdlib>

#include <unistd.h>

using namespace diehard;

namespace {

/// The process allocator, called directly (no extra virtual hop).
struct Malloc {
  void *allocate(size_t Size) { return std::malloc(Size); }
  void deallocate(void *Ptr) { std::free(Ptr); }
};

} // namespace

int main(int argc, char **argv) {
  GauntletParams Params;
  std::vector<std::pair<std::string, std::string>> Rest;
  if (!perf::parseParams(argc, argv, Params, Rest))
    return 2;
  long IdleMs = std::strtol(perf::flagValue(Rest, "idle-ms", "0").c_str(),
                            nullptr, 10);

  Malloc Layer;
  perf::SampledAllocator<Malloc> Target(Layer);
  GauntletResult R = runGauntlet(Params, Target);
  uint64_t EndNs = perf::monoNs();
  if (IdleMs > 0)
    ::usleep(static_cast<useconds_t>(IdleMs) * 1000);
  long RetainedKb = currentRssKb();

  perf::FineHistogram Lat = Target.merged();
  std::printf("PERF_RESULT {\"allocations\":%" PRIu64 ",\"frees\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"expected\":%" PRIu64
              ",\"checksum\":%" PRIu64 ",\"seconds\":%.9f,\"end_mono_ns\":%" PRIu64
              ",\"samples\":%" PRIu64 ",\"p50_ns\":%.4f,\"p99_ns\":%.4f"
              ",\"retained_kb\":%ld}\n",
              R.Allocations, R.Frees, R.FailedAllocations,
              expectedAllocations(Params), R.Checksum, R.Seconds, EndNs,
              Lat.samples(), Lat.quantile(0.50), Lat.quantile(0.99),
              RetainedKb);
  return 0;
}
