//===- tests/interpose/InterposeTest.cpp ----------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the LD_PRELOAD shim (Section 5.1): unmodified system
/// binaries run correctly with every malloc/free redirected into DieHard.
/// The library path is provided by CMake via DIEHARD_SHIM_PATH.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

#ifndef DIEHARD_SHIM_PATH
#error "DIEHARD_SHIM_PATH must be defined by the build"
#endif

/// Runs `/bin/sh -c Command` with libdiehard.so preloaded plus extra
/// environment assignments; returns {exit code, captured stdout}.
struct RunResult {
  int ExitCode;
  std::string Output;
};

RunResult runPreloaded(const std::string &Command,
                       const std::string &ExtraEnv = "") {
  std::string Full = ExtraEnv + " LD_PRELOAD=" + DIEHARD_SHIM_PATH + " " +
                     Command;
  FILE *Pipe = ::popen(Full.c_str(), "r");
  if (Pipe == nullptr)
    return {-1, ""};
  std::string Output;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Output.append(Buf, N);
  int Status = ::pclose(Pipe);
  int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return {Code, Output};
}

TEST(InterposeTest, EchoRunsUnderDieHard) {
  RunResult R = runPreloaded("echo diehard-works");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "diehard-works\n");
}

TEST(InterposeTest, SortAllocatesHeavily) {
  // sort(1) makes real malloc/realloc/free traffic.
  RunResult R = runPreloaded("printf 'c\\nb\\na\\n' | sort");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "a\nb\nc\n");
}

TEST(InterposeTest, SedAndGrepPipeline) {
  RunResult R = runPreloaded(
      "printf 'one\\ntwo\\nthree\\n' | grep t | sed s/t/T/");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "Two\nThree\n");
}

TEST(InterposeTest, LargeAllocationsViaAwk) {
  // Build a ~1 MB string inside awk: exercises realloc growth into the
  // large-object (mmap) path.
  RunResult R = runPreloaded(
      "awk 'BEGIN { s=\"x\"; for (i=0;i<20;i++) s = s s; print length(s) }'");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "1048576\n");
}

TEST(InterposeTest, SeedEnvironmentControlsDeterminism) {
  // With DIEHARD_SEED fixed, behaviour must be stable (and correct).
  RunResult A = runPreloaded("printf '2\\n1\\n3\\n' | sort -n",
                             "DIEHARD_SEED=12345");
  RunResult B = runPreloaded("printf '2\\n1\\n3\\n' | sort -n",
                             "DIEHARD_SEED=12345");
  EXPECT_EQ(A.ExitCode, 0);
  EXPECT_EQ(A.Output, "1\n2\n3\n");
  EXPECT_EQ(B.Output, A.Output);
}

TEST(InterposeTest, HeapSizeEnvironmentIsHonoured) {
  // A tiny heap still works for a small program.
  RunResult R = runPreloaded("echo small-heap",
                             "DIEHARD_HEAP_SIZE=50331648");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "small-heap\n");
}

TEST(InterposeTest, ReplicatedFillModeWorks) {
  // Random object fill must not break correct programs (they initialize
  // what they read).
  RunResult R = runPreloaded("printf 'b\\na\\n' | sort",
                             "DIEHARD_REPLICATED=1");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "a\nb\n");
}

TEST(InterposeTest, MultithreadedMallocTraffic) {
  // Eight threads of concurrent malloc/calloc/realloc/free under the shim;
  // the victim verifies its own data and prints MT-OK.
  RunResult R = runPreloaded(DIEHARD_MT_VICTIM_PATH,
                             "DIEHARD_HEAP_SIZE=402653184");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-OK\n");
}

TEST(InterposeTest, MultithreadedUnderReplicatedFill) {
  RunResult R = runPreloaded(DIEHARD_MT_VICTIM_PATH, "DIEHARD_REPLICATED=1");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-OK\n");
}

TEST(InterposeTest, ShardedCrossThreadFreeStress) {
  // Producer/consumer cross-thread frees plus thread churn, with the heap
  // split into four shards: frees must be routed to the owning shard.
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                             "DIEHARD_SHARDS=4");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, ShardedStressWithSingleShard) {
  // One shard is the degenerate (fully serialized) configuration; the same
  // workload must be correct there too.
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                             "DIEHARD_SHARDS=1");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, ShardedStressWithDefaultShards) {
  // No DIEHARD_SHARDS: the shim picks one shard per CPU.
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, ShardedStressUnderReplicatedFill) {
  // Replica mode random-fills objects; combined with explicit sharding the
  // stress must still verify (fills happen before the object is handed
  // out).
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                             "DIEHARD_REPLICATED=1 DIEHARD_SHARDS=4");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, OverflowRoutingTogglesViaEnvironment) {
  // DIEHARD_OVERFLOW only changes behaviour at partition saturation, which
  // a healthy victim never reaches — both settings must run the full
  // cross-thread stress cleanly (the saturation semantics themselves are
  // unit-tested at the ShardedHeap layer).
  RunResult On = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                              "DIEHARD_SHARDS=4 DIEHARD_OVERFLOW=1");
  EXPECT_EQ(On.ExitCode, 0);
  EXPECT_EQ(On.Output, "MT-SHARD-OK\n");
  RunResult Off = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                               "DIEHARD_SHARDS=4 DIEHARD_OVERFLOW=0");
  EXPECT_EQ(Off.ExitCode, 0);
  EXPECT_EQ(Off.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, ThreadCacheServesTheFullStress) {
  // The default sharded configuration runs with the thread-cache fast path
  // on; pin the size explicitly and let the victim's phase 3 verify (via
  // the dlsym hooks) that no cached slot survives the thread joins.
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                             "DIEHARD_SHARDS=4 DIEHARD_TCACHE=16");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, ThreadCacheDisabledStillPasses) {
  // DIEHARD_TCACHE=0 keeps every operation on the locked paths.
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                             "DIEHARD_SHARDS=4 DIEHARD_TCACHE=0");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, TinyThreadCacheForcesConstantRefills) {
  // K=1 degenerates to a refill per allocation — the worst case for the
  // refill/flush machinery, which must still be correct.
  RunResult R = runPreloaded(DIEHARD_MT_SHARD_VICTIM_PATH,
                             "DIEHARD_SHARDS=2 DIEHARD_TCACHE=1");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, RetiredSettingsAreInert) {
  // A deployment that still exports the retired settings below (adaptive
  // cache sizing, metadata huge pages, lazy page return) must get the
  // production configuration — fixed K, MADV_DONTNEED page return — and
  // pass the full sweeper-on stress unchanged.
  RunResult R = runPreloaded(
      DIEHARD_MT_SHARD_VICTIM_PATH,
      "DIEHARD_SHARDS=4 DIEHARD_TCACHE=8 DIEHARD_SWEEPER=1 "
      "DIEHARD_SWEEP_MS=5 DIEHARD_TCACHE_ADAPT=1 DIEHARD_THP=1 "
      "DIEHARD_PAGE_RETURN=free");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, SweeperServesTheFullStress) {
  // A fast sweeper (5 ms passes) runs concurrently with the whole
  // cross-thread stress: drains, cache aging and page returns must never
  // corrupt an object, and the victim's phase 5 demands at least one
  // completed pass.
  RunResult R = runPreloaded(
      DIEHARD_MT_SHARD_VICTIM_PATH,
      "DIEHARD_SHARDS=4 DIEHARD_TCACHE=8 DIEHARD_SWEEPER=1 "
      "DIEHARD_SWEEP_MS=5");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, SweeperWithUncachedFreesUsesSidecars) {
  // DIEHARD_TCACHE=0 sends every cross-shard free straight to the owning
  // partition's lock-free sidecar; only the sweeper (and allocation-path
  // materialization) ever drains them.
  RunResult R = runPreloaded(
      DIEHARD_MT_SHARD_VICTIM_PATH,
      "DIEHARD_SHARDS=4 DIEHARD_TCACHE=0 DIEHARD_SWEEPER=1 "
      "DIEHARD_SWEEP_MS=5");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-SHARD-OK\n");
}

TEST(InterposeTest, ReplicationForcesTheSweeperOff) {
  // Replicas must stay deterministic per seed, so DIEHARD_SWEEPER=1 is
  // ignored in replicated mode. The victim's phase 5 would fail waiting
  // for a pass if the sweeper were (incorrectly) running yet reporting
  // zero — here the hooks report 0 passes and the phase is skipped only
  // because the victim checks the env; what matters is the stress stays
  // clean and deterministic replication machinery never sees a
  // maintenance thread.
  RunResult R = runPreloaded(DIEHARD_MT_VICTIM_PATH,
                             "DIEHARD_REPLICATED=1 DIEHARD_SWEEPER=1 "
                             "DIEHARD_SWEEP_MS=5");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "MT-OK\n");
}

TEST(InterposeTest, StatsDumpEmitsJsonAtExit) {
  // (Sweeper counter fields are asserted below even with the sweeper off:
  // they must always be present, reading 0.)
  // A DIEHARD_STATS value other than 0/1 names a file to append the JSON
  // line to — the robust capture for pipelines, whose stderr the shim's
  // startup dup would otherwise point at the test harness.
  std::string StatsFile =
      ::testing::TempDir() + "diehard-stats-dump.json";
  std::remove(StatsFile.c_str());
  RunResult R = runPreloaded("sort /etc/hostname > /dev/null && echo ok",
                             "DIEHARD_STATS=" + StatsFile +
                                 " DIEHARD_TCACHE=8");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "ok\n");
  std::FILE *F = std::fopen(StatsFile.c_str(), "r");
  ASSERT_NE(F, nullptr) << "no stats dump written to " << StatsFile;
  char Buf[4096];
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::remove(StatsFile.c_str());
  std::string Dump(Buf, N);
  EXPECT_NE(Dump.find("\"diehard_stats\""), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("\"allocations\""), std::string::npos);
  EXPECT_NE(Dump.find("\"cache_refills\""), std::string::npos);
  EXPECT_NE(Dump.find("\"remote_frees\""), std::string::npos);
  EXPECT_NE(Dump.find("\"sidecar_drains\""), std::string::npos);
  EXPECT_NE(Dump.find("\"sweep_passes\""), std::string::npos);
  EXPECT_NE(Dump.find("\"sweeper_drained\""), std::string::npos);
  EXPECT_NE(Dump.find("\"aged_caches\""), std::string::npos);
  EXPECT_NE(Dump.find("\"pages_returned\""), std::string::npos);
}

TEST(InterposeTest, CppBinaryWithNewDelete) {
  // ls uses C++-free paths but covers opendir/qsort allocation patterns;
  // this at least exercises a real multi-library binary end to end.
  RunResult R = runPreloaded("ls / > /dev/null && echo ok");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output, "ok\n");
}

// --- API-contract victim -----------------------------------------------------
// ContractVictim.cpp asserts the portable POSIX/C allocation contracts
// (calloc overflow refusal, posix_memalign validation, realloc semantics,
// malloc_usable_size floors, errno on failure). Running it both ways keeps
// the suite honest: a contract the system allocator fails would be a bogus
// test, and a contract the shim fails is a real finding.

TEST(InterposeTest, ContractVictimPassesAgainstSystemAllocator) {
  // No LD_PRELOAD: run the victim directly against glibc.
  FILE *Pipe = ::popen(DIEHARD_CONTRACT_VICTIM_PATH, "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Output;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Output.append(Buf, N);
  int Status = ::pclose(Pipe);
  EXPECT_EQ(WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, 0) << Output;
  EXPECT_EQ(Output, "CONTRACT-OK\n");
}

TEST(InterposeTest, ContractVictimPassesUnderShim) {
  // DIEHARD_CONTRACT_SHIM additionally enables the documented shim
  // divergences (alignment above a page refused with ENOMEM, aligned_alloc
  // validation glibc only gained in 2.38).
  RunResult R = runPreloaded(DIEHARD_CONTRACT_VICTIM_PATH,
                             "DIEHARD_CONTRACT_SHIM=1");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "CONTRACT-OK\n");
}

TEST(InterposeTest, ContractVictimPassesUnderShardedCachedShim) {
  // The contracts must hold in the scaled configuration too: shards plus
  // the lock-free thread-cache tier in front of them.
  RunResult R = runPreloaded(
      DIEHARD_CONTRACT_VICTIM_PATH,
      "DIEHARD_CONTRACT_SHIM=1 DIEHARD_SHARDS=4 DIEHARD_TCACHE=8");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "CONTRACT-OK\n");
}

TEST(InterposeTest, ContractVictimPassesUnderReplicatedFill) {
  // Random object fill must never leak through calloc's zeroing or
  // realloc's preserved prefix.
  RunResult R = runPreloaded(DIEHARD_CONTRACT_VICTIM_PATH,
                             "DIEHARD_CONTRACT_SHIM=1 DIEHARD_REPLICATED=1");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "CONTRACT-OK\n");
}

TEST(InterposeTest, LarsonShapedFootprintFollowsLiveData) {
  // Two threads churning ~512 live objects of 8-1024 bytes each (under
  // 1 MB live) for 3.2M operations. Each partition grows its active prefix
  // to fit its live data, so the process touches a few MB of heap; probing
  // every class's whole 32 MB region instead touches ~450 MB. Measured on
  // x86-64 Linux (4 CPUs): 6.4 MB peak under the shim, 3.4 MB under glibc;
  // the bound leaves 5x headroom and still fails the whole-region heap.
  int Out[2];
  ASSERT_EQ(::pipe(Out), 0);
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::dup2(Out[1], STDOUT_FILENO);
    ::close(Out[0]);
    ::close(Out[1]);
    ::setenv("LD_PRELOAD", DIEHARD_SHIM_PATH, 1);
    ::execl(DIEHARD_FOOTPRINT_VICTIM_PATH, DIEHARD_FOOTPRINT_VICTIM_PATH,
            static_cast<char *>(nullptr));
    ::_exit(127);
  }
  ::close(Out[1]);
  std::string Output;
  char Buf[256];
  ssize_t N;
  while ((N = ::read(Out[0], Buf, sizeof(Buf))) > 0)
    Output.append(Buf, static_cast<size_t>(N));
  ::close(Out[0]);
  int Status = 0;
  struct rusage Usage {};
  ASSERT_EQ(::wait4(Pid, &Status, 0, &Usage), Pid);
  EXPECT_EQ(WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, 0) << Output;
  EXPECT_EQ(Output, "FOOTPRINT-OK\n");
  long PeakMb = Usage.ru_maxrss / 1024; // ru_maxrss is in KB on Linux.
  EXPECT_LT(PeakMb, 32) << "peak RSS must follow the live data";
}

} // namespace
